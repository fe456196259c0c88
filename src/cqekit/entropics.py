"""Classical-quantum ensembles and the entropic quantities of the one-shot state.

The one-shot state sigma^{XABE} is kept block-diagonal: one pure block
phi_x^{ABE} per classical letter x, all blocks in one array whose first
axis is the letter.  Entropies of classical-quantum states are assembled
from the block decomposition, e.g. H(XB) = H(p) + sum_x p(x) H(rho_x^B),
and block purity gives H(AB)_x = H(E)_x.
"""

from __future__ import annotations

import sys
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .channels import MAX_DIM, TP_TOL, apply_isometry, read_spec
from .errors import ARITH_TOL, NORM_TOL, DimMismatch, InvalidState, SpecFormatError
from .errors import check_complex, check_int, check_range, check_real
from .qlinalg import grouped_entropies, squared_norms

# On a state's block: an accepted channel (input dimension <= MAX_DIM) moves a squared norm
# by at most MAX_DIM * TP_TOL * (1 + NORM_TOL); a second NORM_TOL covers that and rounding.
# A squared norm 1 + d takes about d log2(e) < ENTROPIC_TOL off a region row's margin.
STATE_NORM_TOL = 2 * NORM_TOL + MAX_DIM * TP_TOL  # 5.2e-10
# Row slack floor in regions (but contains'): > RATE_TOL + ARITH_TOL, and > ROW_REL_TOL |b|
# while |b| < 1e5.  Also the I(AX;B) chain-vs-direct slack: measured gaps are < 1e-13.
ENTROPIC_TOL = 1e-9


def _check_letters(probs: np.ndarray, letters: np.ndarray, ndim: int, tol: float,
                   padded: bool = False) -> None:
    """Check a stack (N, W) of weights and a stack (N, W, ...) of letters in `ndim` axes: every
    row of probs is a probability vector, and every letter's squared norm is within `tol` of 1
    (NORM_TOL for an ensemble's letters, STATE_NORM_TOL for a state's blocks).  In a `padded`
    stack a slot of weight 0 and squared norm 0 is padding and is not checked; a letter of
    weight 0 is.  The first state that fails raises, and in a stack of two or more, its error
    names its index k."""
    if probs.ndim != 2 or letters.ndim != ndim or letters.shape[:2] != probs.shape:
        raise DimMismatch(f"letter stack {letters.shape} is not the weight stack {probs.shape} "
                          f"plus {ndim - 2} axes")
    if not probs.size:  # a stack of no states passes; a state of no letters has no weights
        if len(probs):
            raise InvalidState("weights [] are empty and do not sum to 1")
        return
    norms = squared_norms(letters.reshape(probs.size, -1))
    deviation = abs(norms - 1.0)
    if padded:
        deviation[(probs.ravel() == 0.0) & (norms == 0.0)] = 0.0
    sums = probs.sum(1).tolist()
    if probs.min() >= 0 and all(abs(x - 1.0) <= ARITH_TOL for x in sums) and deviation.max() <= tol:
        return  # NaN fails each test
    deviation = deviation.reshape(probs.shape)
    bad_weights = ~((probs >= 0).all(1) & (abs(np.array(sums) - 1.0) <= ARITH_TOL))
    k = int((bad_weights | ~(deviation.max(1) <= tol)).argmax())
    at = f" of state {k}" if len(probs) > 1 else ""
    if bad_weights[k]:
        raise InvalidState(f"weights {probs[k]}{at} are negative, NaN or do not sum to 1")
    raise InvalidState(f"letter squared norms{at} deviate from 1 by up to "
                       f"{float(deviation[k].max())!r} > {tol}")


@dataclass(frozen=True, eq=False)
class CQEnsemble:
    """{p(x), phi_x}: weights `probs` of shape (L,) and pure states `amps` of shape
    (L, d_A, d_A'), letter x's amplitudes on A (x) A' as a d_A x d_A' matrix.  Construction
    checks every letter of a read-only copy of both, then drops the letters of weight 0."""

    probs: np.ndarray
    amps: np.ndarray

    def __post_init__(self):
        probs, amps = np.array(self.probs, dtype=float), np.array(self.amps, dtype=complex)
        _check_letters(probs[None], amps[None], 4, NORM_TOL)
        if not probs.all():  # the weights are checked >= 0
            probs, amps = probs[probs > 0.0], amps[probs > 0.0]
        for name, value in (("probs", probs), ("amps", amps)):
            value.setflags(write=False)
            object.__setattr__(self, name, value)
        bound = min(amps.shape[1:]) ** 2 + 1  # min(d_A, d_A') ** 2 + 1
        if len(probs) > bound:  # warn at the first caller outside cqekit; dataclass's __init__
            frame, level = sys._getframe(1), 2  # runs in this module's globals, so it is skipped
            while frame is not None and frame.f_globals.get("__package__") == __package__:
                frame, level = frame.f_back, level + 1
            warnings.warn(f"ensemble has {len(probs)} letters; {bound} suffice for this "
                          "input dimension", stacklevel=level)


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
        object.__setattr__(self, "probs", np.asarray(self.probs, dtype=float))
        object.__setattr__(self, "psi", np.asarray(self.psi, dtype=complex))
        _check_letters(self.probs[None], self.psi[None], 5, STATE_NORM_TOL)

    @cached_property
    def profile(self) -> EntropyProfile:
        """The entropy profile, built and cross-checked on first access as a stack of one; the
        state was checked when built, or comes from a checked ensemble, so it is not again."""
        return _profiles(self.probs[None], self.psi[None])[0]


class StateStack(tuple):
    """A stack of N states that unpacks as (probs, psi): weights (N, W) and blocks (N, W, d_A,
    d_B, d_E), padded with zero blocks of weight 0.  StateStack(pair) checks a pair (probs, psi)
    against STATE_NORM_TOL and returns a StateStack as it is; channel_output_ensemble and
    dephase_environment build theirs from a checked input with tuple.__new__, unchecked."""

    def __new__(cls, states):
        if isinstance(states, StateStack):
            return states
        probs, psi = states
        _check_letters(probs, psi, 5, STATE_NORM_TOL, padded=True)
        return tuple.__new__(cls, (probs, psi))


def make_ensemble(entries, dim_A: int, dim_Aprime: int) -> CQEnsemble:
    """Build an ensemble from (p, amplitude-vector) pairs."""
    probs = [p for p, _ in entries]
    vecs = np.array([v for _, v in entries], dtype=complex)
    if vecs.shape != (len(probs), dim_A * dim_Aprime):
        raise InvalidState(f"amplitude vectors {vecs.shape} for dims ({dim_A}, {dim_Aprime})")
    return CQEnsemble(probs, vecs.reshape(-1, dim_A, dim_Aprime))


def mu_ensemble(mu: float) -> CQEnsemble:
    """Uniform two-letter qubit ensemble psi_0 = sqrt(mu)|00> + sqrt(1-mu)|11>,
    psi_1 with mu and 1-mu exchanged."""
    check_range("mu", mu, 0.0, 1.0, InvalidState)
    v0 = np.array([np.sqrt(mu), 0.0, 0.0, np.sqrt(1.0 - mu)], dtype=complex)
    v1 = np.array([np.sqrt(1.0 - mu), 0.0, 0.0, np.sqrt(mu)], dtype=complex)
    return make_ensemble([(0.5, v0), (0.5, v1)], 2, 2)


def channel_output_ensemble(ens, v):
    """Send the A' axis of every ensemble letter through an isometry, in one product.  A
    CQEnsemble, checked when built, and an isometry `v` give its CQEJointState, not checked
    again.  A stack (probs (N, W), amps (N, W, d_A, d_A')) of ensembles of one shape, padded
    with zero letters of weight 0, and a sequence `v` of isometries give one StateStack per
    isometry, after one _check_letters against NORM_TOL: an accepted isometry keeps every block
    within STATE_NORM_TOL, and a padding block stays 0."""
    if isinstance(ens, CQEnsemble):
        sigma = object.__new__(CQEJointState)  # CQEJointState(...) would check it again
        sigma.__dict__.update(probs=ens.probs, psi=apply_isometry(v, ens.amps))
        return sigma
    probs, amps = ens
    _check_letters(probs, amps, 4, NORM_TOL, padded=True)
    return [tuple.__new__(StateStack, (probs, apply_isometry(iso, amps))) for iso in v]


def _gram(m: np.ndarray) -> np.ndarray:
    """m @ m^dag for a stack of matrices: each block's reduced state on the rows' subsystem."""
    return m @ m.conj().transpose(0, 2, 1)


def entropy_profiles(states) -> list[EntropyProfile]:
    """The profiles of the stack of N states StateStack(states), checked unless it is one."""
    return _profiles(*StateStack(states))


def _profiles(probs: np.ndarray, psi: np.ndarray) -> list[EntropyProfile]:
    """entropy_profiles of a checked stack; a slot of weight 0 is padding and adds nothing.
    H(A)_x, H(B)_x, H(E)_x, H(AB)_x and H(avg B) come from one eigensolve per matrix size.  Each
    chain-rule I(AX;B) is checked against the direct sum_x p(x) (H(A)_x - H(AB)_x) + H(avg B)
    (H(p) cancels), off by sum_x p(x) (H(E)_x - H(AB)_x), which block purity makes 0."""
    n, width, da, db, de = psi.shape
    psi = np.ascontiguousarray(psi).reshape(n * width, da, db, de)
    rho_b = _gram(psi.transpose(0, 2, 1, 3).reshape(-1, db, da * de))
    avg_b = (probs.reshape(-1, 1, 1) * rho_b).reshape(n, width, db, db).sum(1)
    if not np.isfinite(avg_b).all():  # a block edited after its check; LAPACK can miss a NaN
        raise InvalidState("an average B state has a NaN or infinite entry")
    h_a, h_b, h_e, h_ab, h_avg_b = grouped_entropies(
        _gram(psi.reshape(-1, da, db * de)), rho_b,
        _gram(psi.transpose(0, 3, 1, 2).reshape(-1, de, da * db)),
        _gram(psi.reshape(-1, da * db, de)), avg_b)
    out = []
    for i, weights_i in enumerate(probs.tolist()):
        at = slice(i * width, (i + 1) * width)
        h_a_x = i_ab = i_ae = i_coh = h_b_x = direct = 0.0  # each summed in letter order
        for p, ha, hb, he, hab in zip(weights_i, h_a[at], h_b[at], h_e[at], h_ab[at]):
            h_a_x, i_ab, i_ae = h_a_x + p * ha, i_ab + p * (ha + hb - he), i_ae + p * (ha + he - hb)
            i_coh, h_b_x, direct = i_coh + p * (hb - he), h_b_x + p * hb, direct + p * (ha - hab)
        i_xb, direct = h_avg_b[i] - h_b_x, direct + h_avg_b[i]
        if abs(direct - (i_ab + i_xb)) > ENTROPIC_TOL:
            raise InvalidState(f"chain-rule value {i_ab + i_xb} and direct value {direct} "
                               f"disagree beyond {ENTROPIC_TOL}")
        out.append(EntropyProfile(h_a_x, i_ab, i_ae, i_coh, i_xb, i_ab + i_xb))
    return out


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


def verify_identities(prof: EntropyProfile) -> dict[str, float]:
    """Residuals on a state's profile of the conditional-entropy, coherent-information and
    their-sum identities: rounding only.  The independent check is entropy_profiles' chain
    value of I(AX;B) against the direct H(AX) + H(B) - H(AXB), which raises."""
    i_ab, i_ae = prof.i_ab_given_x, prof.i_ae_given_x
    return {
        "entropy_identity": abs(prof.h_a_given_x - 0.5 * i_ab - 0.5 * i_ae),
        "coherent_identity": abs(prof.i_coh - (0.5 * i_ab - 0.5 * i_ae)),
        "ent_coh_mut_identity": abs(prof.h_a_given_x + prof.i_coh - i_ab),
    }


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
