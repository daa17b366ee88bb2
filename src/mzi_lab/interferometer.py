"""Lossy Mach-Zehnder pipeline: splitter, per-arm loss, phase shift, splitter.

The phase is imprinted on mode a by ``exp(-i phi a†a)``; photon loss acts
between the first splitter and the phase shifter (loss and phase shifting
commute, so this placement is a convention, tested rather than assumed).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import InvalidArgument
from .states import (
    GaussianState,
    Mode,
    ResourceSpec,
    SingleModeState,
    apply_loss,
    apply_symplectic,
    beam_splitter,
    make_input,
    reduce_to_mode,
)

__all__ = ["LossModel", "InterferometerConfig", "output_state", "output_mode_a", "phase_coefficients"]


@dataclass(frozen=True)
class LossModel:
    """Pair of arm transmissivities ``(eta_a, eta_b)``."""

    eta_a: float = 1.0
    eta_b: float = 1.0

    def __post_init__(self):
        for name, eta in (("eta_a", self.eta_a), ("eta_b", self.eta_b)):
            if not 0.0 <= eta <= 1.0:
                raise InvalidArgument(f"{name} must lie in [0, 1], got {eta}")

    @classmethod
    def lossless(cls):
        return cls(1.0, 1.0)

    @classmethod
    def symmetric(cls, eta):
        """Identical loss in both arms."""
        return cls(float(eta), float(eta))

    @classmethod
    def one_arm(cls, eta):
        """Loss only in the phase-shifter arm (mode a)."""
        return cls(float(eta), 1.0)

    @property
    def is_lossless(self):
        return self.eta_a == 1.0 and self.eta_b == 1.0


@dataclass(frozen=True)
class InterferometerConfig:
    resource: ResourceSpec
    phi: float
    loss: LossModel


def output_state(cfg: InterferometerConfig) -> GaussianState:
    """State at the interferometer output ports.

    Applies, in order: the first 50:50 splitter, the loss channel, the
    phase shifter on mode a, and the second 50:50 splitter.  This is
    :func:`output_grid` on a grid of one phase.
    """
    covs, means = output_grid(cfg.resource, cfg.loss, [cfg.phi])
    return GaussianState(covs[0], means[0])


def output_mode_a(cfg: InterferometerConfig) -> SingleModeState:
    """Reduced state of output mode a (the mode read by single-port detectors)."""
    return reduce_to_mode(output_state(cfg), Mode.A)


# The first splitter and the loss channel do not depend on phi, so their
# output is computed once per (resource, loss) and shared by every phase.


@lru_cache(maxsize=512)
def _post_loss_cov_mean(resource: ResourceSpec, loss: LossModel):
    state = apply_symplectic(make_input(resource), beam_splitter(math.pi / 4.0))
    state = apply_loss(state, loss.eta_a, loss.eta_b)
    return state.cov, state.mean


_B2 = beam_splitter(-math.pi / 4.0)


def output_grid(resource: ResourceSpec, loss: LossModel, phis):
    """Output covariances and means for an array of phases.

    Every scalar entry point is a grid of one phase, and
    :func:`phase_coefficients` expands the same composition in the phase.
    Each phase's result does not depend on the other phases in the batch.

    Args:
        resource: input resource.
        loss: arm transmissivities.
        phis: array of phase values, shape (n,).

    Returns:
        Tuple ``(covs, means)`` of shapes (n, 4, 4) and (n, 4).
    """
    phis = np.atleast_1d(np.asarray(phis, dtype=float))
    cov_l, mean_l = _post_loss_cov_mean(resource, loss)
    c, s = np.cos(phis), np.sin(phis)
    n = phis.shape[0]
    rot = np.zeros((n, 4, 4))
    rot[:, 0, 0] = c
    rot[:, 0, 1] = s
    rot[:, 1, 0] = -s
    rot[:, 1, 1] = c
    rot[:, 2, 2] = 1.0
    rot[:, 3, 3] = 1.0
    # Three (n, 4, 4) buffers in all: each is reused once it is consumed.
    post = np.matmul(_B2, rot)
    half = np.matmul(post, cov_l)
    full = np.matmul(half, np.transpose(post, (0, 2, 1)), out=rot)
    covs = np.add(full, np.transpose(full, (0, 2, 1)), out=half)
    covs /= 2.0
    means = np.einsum("nij,j->ni", post, mean_l)
    return covs, means


# B2·R(φ) = P0 + cos φ·P1 + sin φ·P2, as the phase rotates mode a only; _J is the phase shifter's generator.
_J = np.diag([1.0, 0.0, 0.0], 1) - np.diag([1.0, 0.0, 0.0], -1)
_POST = _B2 @ [np.diag([0.0, 0.0, 1.0, 1.0]), np.diag([1.0, 1.0, 0.0, 0.0]), _J]


def phase_coefficients(resource: ResourceSpec, loss: LossModel):
    """The output moments as trigonometric polynomials in the phase.

    ``cov(φ) = Σ_k T_k(φ)·K[k]`` with ``T = (1, cos φ, sin φ, cos²φ, sin²φ,
    cos φ·sin φ)`` and ``mean(φ) = M[0] + cos φ·M[1] + sin φ·M[2]``: the
    moments of :func:`output_grid` to roundoff, with exact phase derivatives.
    Returns ``(K, M)``, of shapes (6, 4, 4) and (3, 4).
    """
    cov_l, mean_l = _post_loss_cov_mean(resource, loss)
    g = (_POST @ cov_l)[:, None] @ np.transpose(_POST, (0, 2, 1))  # g[i, j] = P_i·cov·P_jᵀ
    K = np.array([g[0, 0], g[0, 1] + g[1, 0], g[0, 2] + g[2, 0], g[1, 1], g[2, 2], g[1, 2] + g[2, 1]])
    return (K + np.transpose(K, (0, 2, 1))) / 2.0, _POST @ mean_l
