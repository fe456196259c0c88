"""Classical-quantum ensembles and the entropic quantities of the one-shot state.

The one-shot state sigma^{XABE} is kept block-diagonal: one pure block
phi_x^{ABE} per classical letter x, all blocks in one array whose first
axis is the letter.  Entropies of classical-quantum states are assembled
from the block decomposition, e.g. H(XB) = H(p) + sum_x p(x) H(rho_x^B),
and block purity gives H(AB)_x = H(E)_x.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .channels import MAX_DIM, TP_TOL, IsometricExtension, apply_isometry, read_spec
from .errors import DimMismatch, InvalidState, SpecFormatError, check_complex, check_int
from .errors import check_range, check_real
from .qlinalg import matrix_entropy, shannon_entropy, squared_norms

IDENTITY_TOL = 1e-9
NORM_TOL = 1e-10  # on the squared norm of an ensemble letter
# On a state's block: an accepted channel (input dimension <= MAX_DIM) moves a squared norm
# by at most MAX_DIM * TP_TOL * (1 + NORM_TOL); a second NORM_TOL covers that and rounding.
# A squared norm 1 + d takes about d log2(e) < ENTROPIC_TOL off a region row's margin.
STATE_NORM_TOL = 2 * NORM_TOL + MAX_DIM * TP_TOL  # 5.2e-10


def _check_letters(state, field: str, ndim: int, tol: float) -> None:
    """Store `state.probs` and `state.<field>` as float and complex arrays; check that probs
    is a probability vector and <field> has `ndim` axes, one letter per weight whose
    squared norm is within `tol` of 1."""
    probs = np.asarray(state.probs, dtype=float)
    letters = np.asarray(getattr(state, field), dtype=complex)
    object.__setattr__(state, "probs", probs)
    object.__setattr__(state, field, letters)
    if probs.ndim != 1 or letters.ndim != ndim or len(letters) != len(probs):
        raise DimMismatch(f"{field} shape {letters.shape} is not (len(probs), ...) in {ndim} axes")
    if not (np.all(probs >= 0) and abs(probs.sum() - 1.0) <= 1e-12):  # NaN fails both
        raise InvalidState(f"weights {probs} are negative, NaN or do not sum to 1")
    deviation = float(np.max(np.abs(squared_norms(letters.reshape(len(probs), -1)) - 1.0)))
    if not deviation <= tol:  # NaN fails too
        raise InvalidState(f"letter squared norms deviate from 1 by up to {deviation!r} > {tol}")


@dataclass(frozen=True, eq=False)
class CQEnsemble:
    """{p(x), phi_x}: weights `probs` of shape (L,) and pure states `amps` of shape
    (L, d_A, d_A'), letter x's amplitudes on A (x) A' as a d_A x d_A' matrix."""

    probs: np.ndarray
    amps: np.ndarray

    def __post_init__(self):
        _check_letters(self, "amps", 3, NORM_TOL)
        bound = min(self.dim_Aprime, self.dim_A) ** 2 + 1
        if len(self.probs) > bound:
            warnings.warn(f"ensemble has {len(self.probs)} letters; {bound} suffice for this "
                          "input dimension", stacklevel=2)

    dim_A = property(lambda self: self.amps.shape[1])
    dim_Aprime = property(lambda self: self.amps.shape[2])

    def pruned(self) -> "CQEnsemble":
        """Drop zero-probability letters (avoids 0*log0 block pathologies); self if none."""
        keep = self.probs > 0.0
        return self if keep.all() else CQEnsemble(self.probs[keep], self.amps[keep])


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
    """Block-diagonal sigma^{XABE}: weights `probs` of shape (L,) and pure blocks
    `psi` of shape (L, d_A, d_B, d_E).

    Every entropic quantity is read from `profile`, computed once per state.
    """

    probs: np.ndarray
    psi: np.ndarray

    def __post_init__(self):
        _check_letters(self, "psi", 4, STATE_NORM_TOL)

    dim_A = property(lambda self: self.psi.shape[1])
    dim_B = property(lambda self: self.psi.shape[2])
    dim_E = property(lambda self: self.psi.shape[3])

    @cached_property
    def profile(self) -> EntropyProfile:
        """The entropy profile, built and cross-checked on first access."""
        return _entropy_profile(self)


def make_ensemble(entries, dim_A: int, dim_Aprime: int) -> CQEnsemble:
    """Build an ensemble from (p, amplitude-vector) pairs and prune zero weights."""
    probs = [p for p, _ in entries]
    vecs = np.array([v for _, v in entries], dtype=complex)
    if vecs.shape != (len(probs), dim_A * dim_Aprime):
        raise InvalidState(f"amplitude vectors {vecs.shape} for dims ({dim_A}, {dim_Aprime})")
    return CQEnsemble(probs, vecs.reshape(-1, dim_A, dim_Aprime)).pruned()


def mu_ensemble(mu: float) -> CQEnsemble:
    """Uniform two-letter qubit ensemble psi_0 = sqrt(mu)|00> + sqrt(1-mu)|11>,
    psi_1 with mu and 1-mu exchanged."""
    check_range("mu", mu, 0.0, 1.0, InvalidState)
    v0 = np.array([np.sqrt(mu), 0.0, 0.0, np.sqrt(1.0 - mu)], dtype=complex)
    v1 = np.array([np.sqrt(1.0 - mu), 0.0, 0.0, np.sqrt(mu)], dtype=complex)
    return make_ensemble([(0.5, v0), (0.5, v1)], 2, 2)


def channel_output_ensemble(ens: CQEnsemble, v: IsometricExtension) -> CQEJointState:
    """Send the A' axis of every ensemble letter through the isometry, in one product."""
    if ens.dim_Aprime != v.in_dim:
        raise DimMismatch(f"ensemble A' dimension {ens.dim_Aprime} != isometry input {v.in_dim}")
    pruned = ens.pruned()
    return CQEJointState(pruned.probs, apply_isometry(v, pruned.amps))


def _gram(m: np.ndarray) -> np.ndarray:
    """m @ m^dag for a stack of matrices: per block, PureStateVector.marginal_mat's product."""
    return m @ m.conj().transpose(0, 2, 1)


def _entropy_profile(sigma: CQEJointState) -> EntropyProfile:
    """H(A)_x, H(B)_x, H(E)_x from one eigensolve per subsystem stacked over the blocks,
    H(avg B) once, and the chain-rule I(AX;B) cross-checked against H(AX) + H(B) - H(AXB),
    whose H(AX) and H(AXB) are entropies of the spectra of the blocks p rho_A, p rho_AB."""
    psi, probs = sigma.psi, sigma.probs.tolist()
    _, da, db, de = psi.shape
    rho_a = _gram(psi.reshape(-1, da, db * de))
    rho_b = _gram(psi.transpose(0, 2, 1, 3).reshape(-1, db, da * de))
    rho_e = _gram(psi.transpose(0, 3, 1, 2).reshape(-1, de, da * db))
    rho_ab = _gram(psi.reshape(-1, da * db, de))
    spectra = (np.linalg.eigvalsh(rho) for rho in (rho_a, rho_b, rho_e))
    rows = [(p, *map(shannon_entropy, w)) for p, *w in zip(probs, *spectra)]
    h_avg_b = matrix_entropy(sum(p * rho for p, rho in zip(probs, rho_b)))
    i_ab = sum(p * (ha + hb - he) for p, ha, hb, he in rows)
    i_xb = h_avg_b - sum(p * hb for p, _, hb, _ in rows)
    chain = i_ab + i_xb
    weights = sigma.probs[:, None, None]
    h_ax, h_axb = (shannon_entropy(np.linalg.eigvalsh(weights * rho)) for rho in (rho_a, rho_ab))
    direct = h_ax + h_avg_b - h_axb
    if abs(direct - chain) > IDENTITY_TOL:
        raise InvalidState(f"chain-rule value {chain} and direct value {direct} disagree "
                           f"beyond {IDENTITY_TOL}")
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
    """Parse {"entries": [{"p": .., "amps": [[re, im], ...]}], "dim_A": .., "dim_Aprime": ..};
    both dimensions are at most MAX_DIM, as the profile forms a dim_A^2 matrix per letter."""
    try:
        dim_a = check_int("dim_A", spec["dim_A"], 1, MAX_DIM)
        dim_ap = check_int("dim_Aprime", spec["dim_Aprime"], 1, MAX_DIM)
        entries = [
            (check_real("p", e["p"], 0.0, 1.0), [check_complex("amplitude", z) for z in e["amps"]])
            for e in spec["entries"]
        ]
    except (KeyError, TypeError, ValueError) as exc:
        raise SpecFormatError(f"malformed ensemble spec: {exc}") from exc
    return make_ensemble(entries, dim_a, dim_ap)


def load_ensemble(path: str) -> CQEnsemble:
    return ensemble_from_spec(read_spec(path))
