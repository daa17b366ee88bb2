"""Shared helpers: random physical Gaussian states built from symplectics, and state checks."""

import math

import numpy as np
import pytest

from mzi_lab import OMEGA, GaussianState, beam_splitter


def vacuum():
    return GaussianState(np.eye(4) / 2.0, np.zeros(4))


def photon_number(state):
    """Total mean photon number ``(tr cov + |mean|^2)/2 - 1`` of a two-mode state."""
    return (np.trace(state.cov) + state.mean @ state.mean) / 2.0 - 1.0


def is_physical(state, tol=1e-10):
    """Check the uncertainty relation ``cov + i Omega/2 >= 0``."""
    return float(np.linalg.eigvalsh(state.cov + 0.5j * OMEGA).min()) >= -tol


def rotation_pair(theta_a, theta_b):
    """Independent phase rotations on the two modes (a valid symplectic)."""
    m = np.zeros((4, 4))
    for block, theta in ((0, theta_a), (2, theta_b)):
        c, s = math.cos(theta), math.sin(theta)
        m[block, block] = c
        m[block, block + 1] = s
        m[block + 1, block] = -s
        m[block + 1, block + 1] = c
    return m


def squeezer_pair(r_a, r_b):
    return np.diag([math.exp(r_a), math.exp(-r_a), math.exp(r_b), math.exp(-r_b)])


def random_symplectic(rng, max_squeeze=1.0):
    angles = rng.uniform(0.0, 2.0 * math.pi, size=4)
    squeezes = rng.uniform(-max_squeeze, max_squeeze, size=2)
    mix = rng.uniform(0.0, 2.0 * math.pi)
    return (
        rotation_pair(angles[0], angles[1])
        @ squeezer_pair(squeezes[0], squeezes[1])
        @ beam_splitter(mix)
        @ rotation_pair(angles[2], angles[3])
    )


def random_physical_state(rng, pure=False, max_squeeze=1.0, max_mean=1.5):
    """Random state from the Williamson form: S (thermal) S^T plus displacement."""
    if pure:
        nu = np.ones(2)
    else:
        nu = 1.0 + rng.uniform(0.0, 1.5, size=2)
    core = np.diag(np.repeat(nu, 2)) / 2.0
    s = random_symplectic(rng, max_squeeze)
    mean = rng.uniform(-max_mean, max_mean, size=4)
    return GaussianState(s @ core @ s.T, mean)


@pytest.fixture
def rng():
    return np.random.default_rng(20260808)
