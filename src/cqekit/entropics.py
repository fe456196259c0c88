"""Classical-quantum ensembles and the entropic quantities of the one-shot state.

The one-shot state sigma^{XABE} is kept block-diagonal: one pure block
phi_x^{ABE} per classical letter x.  Entropies of classical-quantum states
are assembled from the block decomposition, e.g. H(XB) = H(p) + sum_x
p(x) H(rho_x^B), and block purity gives H(AB)_x = H(E)_x.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .channels import IsometricExtension, apply_isometry
from .errors import DimMismatch, InvalidState, SpecFormatError, check_range
from .qlinalg import PureStateVector, matrix_entropy

IDENTITY_TOL = 1e-9


def _check_probs(probs) -> None:
    probs = np.asarray(probs, dtype=float)
    if np.any(probs < 0):
        raise InvalidState("negative probability in ensemble")
    if abs(probs.sum() - 1.0) > 1e-12:
        raise InvalidState(f"probabilities sum to {probs.sum()}, not 1")


@dataclass(frozen=True, eq=False)
class CQEnsemble:
    """{p(x), phi_x} with pure phi_x on A (x) A' (labels "A", "Ap")."""

    entries: tuple[tuple[float, PureStateVector], ...]
    dim_A: int
    dim_Aprime: int

    def __post_init__(self):
        _check_probs([p for p, _ in self.entries])
        for _, phi in self.entries:
            if phi.dims != (self.dim_A, self.dim_Aprime):
                raise DimMismatch(f"entry dims {phi.dims} != ({self.dim_A}, {self.dim_Aprime})")
        bound = min(self.dim_Aprime, self.dim_A) ** 2 + 1
        if len(self.entries) > bound:
            warnings.warn(
                f"ensemble has {len(self.entries)} letters; "
                f"{bound} suffice for this input dimension",
                stacklevel=2,
            )

    def pruned(self) -> "CQEnsemble":
        """Drop zero-probability entries (avoids 0*log0 block pathologies)."""
        kept = tuple((p, phi) for p, phi in self.entries if p > 0.0)
        return CQEnsemble(kept, self.dim_A, self.dim_Aprime)


@dataclass(frozen=True)
class EntropyProfile:
    """Entropic quantities of a one-shot state, in bits: H(A|X), I(A;B|X),
    I(A;E|X), I(A>BX), I(X;B) and I(AX;B)."""

    h_a_given_x: float
    i_ab_given_x: float
    i_ae_given_x: float
    i_coh: float
    i_xb: float
    i_axb: float


@dataclass(frozen=True, eq=False)
class CQEJointState:
    """Block-diagonal sigma^{XABE}: per-x pure blocks on A (x) B (x) E.

    Every entropic quantity is read from `profile`, computed once per state.
    """

    blocks: tuple[tuple[float, PureStateVector], ...]
    dim_A: int
    dim_B: int
    dim_E: int

    def __post_init__(self):
        _check_probs([p for p, _ in self.blocks])
        for _, psi in self.blocks:
            if psi.dims != (self.dim_A, self.dim_B, self.dim_E):
                raise DimMismatch(
                    f"block dims {psi.dims} != ({self.dim_A}, {self.dim_B}, {self.dim_E})"
                )

    @cached_property
    def profile(self) -> EntropyProfile:
        """The entropy profile, built and cross-checked on first access."""
        return _entropy_profile(self)


def make_ensemble(entries, dim_A: int, dim_Aprime: int) -> CQEnsemble:
    """Build an ensemble from (p, amplitude-vector) pairs and prune zero weights."""
    built = tuple(
        (float(p), v if isinstance(v, PureStateVector)
         else PureStateVector(np.asarray(v, dtype=complex), (dim_A, dim_Aprime), ("A", "Ap")))
        for p, v in entries
    )
    return CQEnsemble(built, dim_A, dim_Aprime).pruned()


def mu_ensemble(mu: float) -> CQEnsemble:
    """Uniform two-letter qubit ensemble psi_0 = sqrt(mu)|00> + sqrt(1-mu)|11>,
    psi_1 with mu and 1-mu exchanged."""
    check_range("mu", mu, 0.0, 1.0, InvalidState)
    v0 = np.array([np.sqrt(mu), 0.0, 0.0, np.sqrt(1.0 - mu)], dtype=complex)
    v1 = np.array([np.sqrt(1.0 - mu), 0.0, 0.0, np.sqrt(mu)], dtype=complex)
    return make_ensemble([(0.5, v0), (0.5, v1)], 2, 2)


def channel_output_ensemble(ens: CQEnsemble, v: IsometricExtension) -> CQEJointState:
    """Send the A' factor of every ensemble member through the isometry."""
    if ens.dim_Aprime != v.in_dim:
        raise DimMismatch(f"ensemble A' dimension {ens.dim_Aprime} != isometry input {v.in_dim}")
    pruned = ens.pruned()
    blocks = tuple((p, apply_isometry(v, phi)) for p, phi in pruned.entries)
    return CQEJointState(blocks, ens.dim_A, v.out_dim, v.env_dim)


def _entropy_profile(sigma: CQEJointState) -> EntropyProfile:
    """One pass over the blocks: H(A)_x, H(B)_x, H(E)_x per block, H(avg B) once,
    then the chain-rule I(AX;B) cross-checked against H(AX) + H(B) - H(AXB) of
    the assembled block-diagonal matrices."""
    n = len(sigma.blocks)
    da, dab = sigma.dim_A, sigma.dim_A * sigma.dim_B
    big_ax = np.zeros((n * da, n * da), dtype=complex)
    big_axb = np.zeros((n * dab, n * dab), dtype=complex)
    rows, weighted_b = [], []
    for i, (p, psi) in enumerate(sigma.blocks):
        rho_a, rho_b = psi.marginal_mat({"A"}), psi.marginal_mat({"B"})
        he = matrix_entropy(psi.marginal_mat({"E"}))
        rows.append((p, matrix_entropy(rho_a), matrix_entropy(rho_b), he))
        weighted_b.append(p * rho_b)
        big_ax[i * da:(i + 1) * da, i * da:(i + 1) * da] = p * rho_a
        big_axb[i * dab:(i + 1) * dab, i * dab:(i + 1) * dab] = p * psi.marginal_mat({"A", "B"})
    h_avg_b = matrix_entropy(sum(weighted_b))
    i_ab = sum(p * (ha + hb - he) for p, ha, hb, he in rows)
    i_xb = h_avg_b - sum(p * hb for p, _, hb, _ in rows)
    chain = i_ab + i_xb
    direct = matrix_entropy(big_ax) + h_avg_b - matrix_entropy(big_axb)
    if abs(direct - chain) > IDENTITY_TOL:
        raise InvalidState(
            f"chain-rule value {chain} and direct value {direct} disagree beyond {IDENTITY_TOL}"
        )
    return EntropyProfile(
        h_a_given_x=sum(p * ha for p, ha, _, _ in rows),
        i_ab_given_x=i_ab,
        i_ae_given_x=sum(p * (ha + he - hb) for p, ha, hb, he in rows),
        i_coh=sum(p * (hb - he) for p, _, hb, he in rows),
        i_xb=i_xb,
        i_axb=chain,
    )


def cond_entropy_A_given_X(sigma: CQEJointState) -> float:
    """H(A|X) = sum_x p(x) H(A)_x."""
    return sigma.profile.h_a_given_x


def holevo_X_B(sigma: CQEJointState) -> float:
    """I(X;B) = H(avg B) - sum_x p(x) H(B)_x."""
    return sigma.profile.i_xb


def cond_mutual_A_B_given_X(sigma: CQEJointState) -> float:
    """I(A;B|X); H(AB)_x is computed as H(E)_x using block purity."""
    return sigma.profile.i_ab_given_x


def cond_mutual_A_E_given_X(sigma: CQEJointState) -> float:
    """I(A;E|X); H(AE)_x is computed as H(B)_x using block purity."""
    return sigma.profile.i_ae_given_x


def coherent_A_given_BX(sigma: CQEJointState) -> float:
    """I(A>BX) = sum_x p(x) (H(B)_x - H(AB)_x)."""
    return sigma.profile.i_coh


def mutual_AX_B(sigma: CQEJointState) -> float:
    """I(AX;B), computed via the chain rule and cross-checked against the
    entropies of the assembled classical-quantum matrices."""
    return sigma.profile.i_axb


@dataclass(frozen=True)
class IdentityReport:
    """Residuals of the entropic identities on a one-shot state."""

    residuals: dict
    max_residual: float


def verify_identities(sigma: CQEJointState) -> IdentityReport:
    """Check the conditional-entropy, coherent-information, their sum, and
    chain-rule identities; report the max residual."""
    prof = sigma.profile
    i_ab, i_ae = prof.i_ab_given_x, prof.i_ae_given_x
    residuals = {
        "entropy_identity": abs(prof.h_a_given_x - 0.5 * i_ab - 0.5 * i_ae),
        "coherent_identity": abs(prof.i_coh - (0.5 * i_ab - 0.5 * i_ae)),
        "ent_coh_mut_identity": abs(prof.h_a_given_x + prof.i_coh - i_ab),
        "chain_rule": abs(prof.i_axb - (i_ab + prof.i_xb)),
    }
    return IdentityReport(residuals=residuals, max_residual=max(residuals.values()))


def ensemble_from_spec(spec: dict) -> CQEnsemble:
    """Parse {"entries": [{"p": .., "amps": [[re, im], ...]}], "dim_A": .., "dim_Aprime": ..}."""
    try:
        dim_a = int(spec["dim_A"])
        dim_ap = int(spec["dim_Aprime"])
        entries = [
            (float(e["p"]), np.array([complex(re, im) for re, im in e["amps"]]))
            for e in spec["entries"]
        ]
    except (KeyError, TypeError, ValueError) as exc:
        raise SpecFormatError(f"malformed ensemble spec: {exc}") from exc
    return make_ensemble(entries, dim_a, dim_ap)


def load_ensemble(path: str) -> CQEnsemble:
    with open(path) as fh:
        try:
            spec = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SpecFormatError(f"invalid JSON in {path}: {exc}") from exc
    return ensemble_from_spec(spec)
