"""Shared helpers for the test suite."""

from cqekit import bounds
from cqekit.bounds import random_pure as random_state_vector  # noqa: F401
from cqekit.entropics import CQEnsemble, entropy_profiles


def random_ensemble(rng):
    """One random input ensemble, drawn as each of a bounds.random_ensemble stack is."""
    probs, amps = bounds.random_ensemble(rng, 1)
    real = probs[0] > 0.0  # not the padding
    return CQEnsemble(probs[0, real], amps[0, real])


def dephased_profile(sigma):
    """The profile of sigma after bounds.dephase_environment, as a stack of one."""
    return entropy_profiles(bounds.dephase_environment((sigma.probs[None], sigma.psi[None])))[0]
