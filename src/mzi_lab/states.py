"""Two-mode Gaussian states and the symplectic machinery that evolves them.

Conventions fixed once here and relied on everywhere else:

* quadrature ordering ``(X_a, P_a, X_b, P_b)`` with ``X = (a + a†)/√2`` and
  ``P = (a - a†)/(i√2)``,
* vacuum covariance ``I/2`` (so a thermal state has ``(2n̄+1) I/2``),
* symplectic form ``Omega = blockdiag([[0, 1], [-1, 0]], [[0, 1], [-1, 0]])``,
* a squeezed vacuum with ``r > 0`` is anti-squeezed in ``X``: its covariance
  is ``diag(e^{2r}, e^{-2r})/2``.  This sign choice is what reproduces the
  closed-form sensitivities of the optical schemes implemented in
  :mod:`mzi_lab.measurements` and is cross-checked against the Fock-basis
  oracle in the test suite.

States are immutable values; every operation returns a new state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import InvalidArgument

__all__ = [
    "X_A",
    "P_A",
    "X_B",
    "P_B",
    "OMEGA",
    "Mode",
    "GaussianState",
    "SingleModeState",
    "ResourceKind",
    "ResourceSpec",
    "make_input",
    "beam_splitter",
    "apply_symplectic",
    "apply_loss",
    "reduce_to_mode",
    "symmetric_moment",
]

# Quadrature indices in the fixed (X_a, P_a, X_b, P_b) ordering.
X_A, P_A, X_B, P_B = 0, 1, 2, 3

_OMEGA_1 = np.array([[0.0, 1.0], [-1.0, 0.0]])

#: Symplectic form for two modes, [R_k, R_l] = i * OMEGA[k, l].
OMEGA = np.block(
    [[_OMEGA_1, np.zeros((2, 2))], [np.zeros((2, 2)), _OMEGA_1]]
)
OMEGA.setflags(write=False)

_SYMMETRY_TOL = 1e-12
_SYMPLECTIC_TOL = 1e-12


class Mode(Enum):
    A = 0
    B = 1


def _frozen(a):
    out = np.array(a, dtype=float)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class _Moments:
    """Covariance matrix plus first moments of ``_DIM`` quadratures, a constant of each subclass.

    ``cov`` is symmetrized on construction (stray asymmetry beyond 1e-12
    is rejected); both arrays are stored read-only.
    """

    cov: np.ndarray
    mean: np.ndarray

    def __post_init__(self):
        n = self._DIM
        cov = np.asarray(self.cov, dtype=float)
        mean = np.asarray(self.mean, dtype=float)
        if cov.shape != (n, n) or mean.shape != (n,):
            raise InvalidArgument(
                f"expected a {n}x{n} covariance and length-{n} mean, got {cov.shape} and {mean.shape}"
            )
        if not np.all(np.abs(cov - cov.T) <= _SYMMETRY_TOL * max(1.0, np.abs(cov).max())):
            raise InvalidArgument("covariance matrix is not symmetric")
        object.__setattr__(self, "cov", _frozen((cov + cov.T) / 2.0))
        object.__setattr__(self, "mean", _frozen(mean))


@dataclass(frozen=True)
class GaussianState(_Moments):
    """A two-mode Gaussian state: 4x4 covariance matrix plus first moments."""

    _DIM = 4


@dataclass(frozen=True)
class SingleModeState(_Moments):
    """A single-mode Gaussian state: 2x2 covariance block plus first moments."""

    _DIM = 2


class ResourceKind(Enum):
    CSV = "csv"
    TMSV = "tmsv"
    COHERENT = "coherent"


@dataclass(frozen=True)
class ResourceSpec:
    """Input resource of the interferometer.

    ``CSV`` is a coherent state of amplitude ``alpha`` in mode a together
    with a single-mode squeezed vacuum of parameter ``r`` in mode b,
    ``TMSV`` a two-mode squeezed vacuum of parameter ``s``, ``COHERENT`` a
    coherent state in mode a with vacuum in mode b.  All parameters are
    real and non-negative; complex phases only rotate optimal observables
    and are not modelled.
    """

    kind: ResourceKind
    alpha: float = 0.0
    r: float = 0.0
    s: float = 0.0

    def __post_init__(self):
        for name in ("alpha", "r", "s"):
            value = getattr(self, name)
            if not math.isfinite(value) or value < 0.0:
                raise InvalidArgument(f"{name} must be finite and >= 0, got {value}")

    @classmethod
    def csv(cls, alpha, r):
        return cls(ResourceKind.CSV, alpha=float(alpha), r=float(r))

    @classmethod
    def tmsv(cls, s):
        return cls(ResourceKind.TMSV, s=float(s))

    @classmethod
    def coherent(cls, alpha):
        return cls(ResourceKind.COHERENT, alpha=float(alpha))

    @classmethod
    def from_energy(cls, kind, nbar, mu=None):
        """Build a spec with mean photon number ``nbar``.

        For CSV states ``mu`` is the fraction of the energy carried by the
        squeezed vacuum: ``sinh^2 r = mu*nbar`` and ``alpha^2 = (1-mu)*nbar``.
        """
        if not (math.isfinite(nbar) and nbar >= 0.0):
            raise InvalidArgument(f"nbar must be finite and >= 0, got {nbar}")
        if kind is ResourceKind.CSV:
            if mu is None or not 0.0 <= mu <= 1.0:
                raise InvalidArgument(f"CSV needs a squeezing fraction mu in [0, 1], got {mu}")
            return cls.csv(math.sqrt((1.0 - mu) * nbar), math.asinh(math.sqrt(mu * nbar)))
        if kind is ResourceKind.TMSV:
            return cls.tmsv(math.asinh(math.sqrt(nbar / 2.0)))
        return cls.coherent(math.sqrt(nbar))

    @property
    def nbar(self):
        """Mean photon number implied by the parameters."""
        if self.kind is ResourceKind.CSV:
            return self.alpha**2 + math.sinh(self.r) ** 2
        if self.kind is ResourceKind.TMSV:
            return 2.0 * math.sinh(self.s) ** 2
        return self.alpha**2


def _squeezed_vacuum_cov(r):
    # Anti-squeezed in X, squeezed in P (see module docstring).
    return np.diag([math.exp(2.0 * r) / 2.0, math.exp(-2.0 * r) / 2.0])


def make_input(spec: ResourceSpec) -> GaussianState:
    """Two-mode input state of the interferometer for a given resource.

    Args:
        spec: resource description; see :class:`ResourceSpec`.

    Returns:
        The input :class:`GaussianState` before the first beam splitter.
    """
    cov = np.eye(4) / 2.0
    mean = np.zeros(4)
    if spec.kind is ResourceKind.CSV:
        mean[X_A] = math.sqrt(2.0) * spec.alpha
        cov[2:, 2:] = _squeezed_vacuum_cov(spec.r)
    elif spec.kind is ResourceKind.COHERENT:
        mean[X_A] = math.sqrt(2.0) * spec.alpha
    else:
        ch, sh = math.cosh(2.0 * spec.s), math.sinh(2.0 * spec.s)
        cov = 0.5 * np.array(
            [
                [ch, 0.0, sh, 0.0],
                [0.0, ch, 0.0, -sh],
                [sh, 0.0, ch, 0.0],
                [0.0, -sh, 0.0, ch],
            ]
        )
    return GaussianState(cov, mean)


def beam_splitter(theta: float) -> np.ndarray:
    """Symplectic matrix of a beam splitter mixing modes a and b.

    ``theta = pi/4`` is the first 50:50 splitter of the interferometer
    (``a -> (a+b)/√2``), ``theta = -pi/4`` the second.
    """
    c, s = math.cos(theta), math.sin(theta)
    return np.array(
        [
            [c, 0.0, s, 0.0],
            [0.0, c, 0.0, s],
            [-s, 0.0, c, 0.0],
            [0.0, -s, 0.0, c],
        ]
    )


def is_symplectic(M, tol=_SYMPLECTIC_TOL):
    M = np.asarray(M, dtype=float)
    return M.shape == (4, 4) and np.abs(M @ OMEGA @ M.T - OMEGA).max() <= tol


def apply_symplectic(state: GaussianState, M: np.ndarray) -> GaussianState:
    """Evolve a state under a symplectic map: ``cov -> M cov M^T``, ``mean -> M mean``.

    Raises:
        InvalidArgument: if ``M`` does not preserve the symplectic form.
    """
    M = np.asarray(M, dtype=float)
    if not is_symplectic(M):
        raise InvalidArgument("matrix does not satisfy M Omega M^T = Omega")
    cov = M @ state.cov @ M.T
    return GaussianState((cov + cov.T) / 2.0, M @ state.mean)


def apply_loss(state: GaussianState, eta_a: float, eta_b: float) -> GaussianState:
    """Photon-loss channel with per-mode transmissivities.

    Mixes each mode with vacuum on a fictitious beam splitter:
    ``cov -> D1 cov D1 + D2/2`` and ``mean -> D1 mean`` with
    ``D1 = diag(√eta_a, √eta_a, √eta_b, √eta_b)`` and
    ``D2 = diag(1-eta_a, 1-eta_a, 1-eta_b, 1-eta_b)``.
    """
    for name, eta in (("eta_a", eta_a), ("eta_b", eta_b)):
        if not 0.0 <= eta <= 1.0:
            raise InvalidArgument(f"{name} must lie in [0, 1], got {eta}")
    d1 = np.repeat([math.sqrt(eta_a), math.sqrt(eta_b)], 2)
    d2 = np.repeat([1.0 - eta_a, 1.0 - eta_b], 2)
    cov = state.cov * np.outer(d1, d1) + np.diag(d2) / 2.0
    return GaussianState((cov + cov.T) / 2.0, d1 * state.mean)


def reduce_to_mode(state: GaussianState, mode: Mode) -> SingleModeState:
    """Partial trace onto one mode: the 2x2 diagonal block and its mean."""
    i = 2 * mode.value
    return SingleModeState(state.cov[i : i + 2, i : i + 2], state.mean[i : i + 2])


def symmetric_moment(state: GaussianState, indices) -> float:
    """Symmetric-ordered quadrature moment ``<R_{i1} ... R_{ik}>_sym``.

    Supports products of one, two or four quadratures.  The second-order
    moment is ``gamma_ij + d_i d_j``; the fourth-order moment is the Wick
    (Isserlis) expansion including first moments.  For mutually commuting
    quadratures (e.g. ``X_a`` with ``X_b``, or repeated identical indices)
    the symmetric-ordered moment equals the plain operator moment, which
    covers every observable used by :mod:`mzi_lab.measurements`.

    Args:
        state: two-mode Gaussian state.
        indices: sequence of quadrature indices out of
            ``(X_A, P_A, X_B, P_B)``, of length 1, 2 or 4.

    Raises:
        InvalidArgument: for unsupported lengths or out-of-range indices.
    """
    idx = tuple(int(i) for i in indices)
    if any(i < 0 or i > 3 for i in idx):
        raise InvalidArgument(f"quadrature indices must lie in 0..3, got {idx}")
    g, d = state.cov, state.mean
    if len(idx) == 1:
        return float(d[idx[0]])
    if len(idx) == 2:
        i, j = idx
        return float(g[i, j] + d[i] * d[j])
    if len(idx) == 4:
        i, j, k, l = idx
        pair_terms = (
            g[i, j] * g[k, l] + g[i, k] * g[j, l] + g[i, l] * g[j, k]
        )
        mean_terms = (
            g[i, j] * d[k] * d[l]
            + g[i, k] * d[j] * d[l]
            + g[i, l] * d[j] * d[k]
            + g[j, k] * d[i] * d[l]
            + g[j, l] * d[i] * d[k]
            + g[k, l] * d[i] * d[j]
        )
        return float(pair_terms + mean_terms + d[i] * d[j] * d[k] * d[l])
    raise InvalidArgument(f"moments of order {len(idx)} are not supported (use 1, 2 or 4)")

