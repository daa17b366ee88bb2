"""Truncated Fock-basis oracle for cross-checking the Gaussian pipeline.

Every state is a :class:`FockState`: a factor ``V`` of shape ``(d, r)``,
``d = cutoff²``, with ``rho = V V†``.  A pure state is one column.  Photon
loss gives one column ``(K_a ⊗ K_b) v`` per column ``v`` and pair of loss
Kraus operators; columns whose squared norm is below 1e-20 are dropped.
Unitaries act on the columns, expectation values are ``sum_cols v† A v``,
the Uhlmann fidelity is the nuclear norm of the small matrix ``V† W``, and
the SLD Fisher information comes from an SVD of ``V`` with the exact
derivative ``d rho / d phi = -i [n_a, rho]``.  No ``d × d`` matrix is
formed unless a caller reads ``FockState.dm``.  Everything here is numpy:
each beam-splitter sector is exponentiated from the eigenvectors of its
Hermitian generator.

The oracle is meant for small mean photon numbers where truncation leakage
is negligible; it is a validator, never a production path.  Cutoffs above
100 are refused: the loss step holds about cutoff⁴ amplitudes at once.

Basis convention: ``|n, m>`` maps to flat index ``n * cutoff + m``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import CutoffTooSmall, InvalidArgument
from .interferometer import LossModel
from .states import ResourceKind, ResourceSpec, _check_transmissivities

__all__ = [
    "fock_output_state",
    "oracle_expectation",
    "oracle_qfi",
    "uhlmann_fidelity",
]

_LEAKAGE_BOUND = 1e-8
#: Factor columns with less weight than this are dropped.
_DROP = 1e-20
#: The largest cutoff the oracle accepts: ``validate`` peaks near 1 GB there.
_MAX_CUTOFF = 100


@dataclass(frozen=True, eq=False)
class FockState:
    """Two-mode state ``rho = V V†`` over a truncated number basis.

    ``factor`` is ``V``, of shape ``(cutoff², r)``, one column per retained
    component.
    """

    factor: np.ndarray
    cutoff: int

    @cached_property
    def dm(self) -> np.ndarray:
        """The ``d × d`` density matrix ``V V†``, formed on first read."""
        return self.factor @ self.factor.conj().T


# -- input states ---------------------------------------------------------------


def coherent_ket(alpha, cutoff):
    """Coherent state by its recurrence ``c_0 = e^{-alpha²/2}``, ``c_n = c_{n-1} alpha / √n``."""
    ratios = alpha / np.sqrt(np.arange(1.0, cutoff))
    return np.cumprod(np.concatenate([[math.exp(-alpha**2 / 2.0)], ratios]))


def squeezed_vacuum_ket(r, cutoff):
    """Squeezed vacuum (anti-squeezed X) by its recurrence on ``|2m>``: ``c_0 = 1/√cosh r``,
    ``c_m = c_{m-1} tanh(r) √((2m-1)(2m)) / (2m)``; at ``r = 0`` exactly the vacuum."""
    m = np.arange(1.0, (cutoff + 1) // 2)
    ratios = math.tanh(r) * np.sqrt((2.0 * m - 1.0) * (2.0 * m)) / (2.0 * m)
    amp = np.zeros(cutoff)
    amp[::2] = np.cumprod(np.concatenate([[1.0 / math.sqrt(math.cosh(r))], ratios]))
    return amp


def tmsv_ket(s, cutoff):
    """Two-mode squeezed vacuum in Schmidt form, flattened over |n, n>."""
    lam = math.tanh(s)
    ket = np.zeros(cutoff * cutoff)
    weights = math.sqrt(1.0 - lam * lam) * lam ** np.arange(cutoff)
    ket[np.arange(cutoff) * cutoff + np.arange(cutoff)] = weights
    return ket


def _check_leakage(norm_sq):
    leak = 1.0 - norm_sq
    if leak > _LEAKAGE_BOUND:
        raise CutoffTooSmall(
            f"truncation leaks {leak:.3e} probability (> {_LEAKAGE_BOUND:.0e}); raise the cutoff"
        )


def _input_ket(spec: ResourceSpec, cutoff):
    if spec.kind is ResourceKind.TMSV:
        ket = tmsv_ket(spec.s, cutoff)
    else:  # CSV, and COHERENT as the CSV input at r = 0
        ket = np.kron(coherent_ket(spec.alpha, cutoff), squeezed_vacuum_ket(spec.r, cutoff))
    _check_leakage(float(ket @ ket))
    return ket / math.sqrt(float(ket @ ket))


def build_fock_input(spec: ResourceSpec, cutoff: int) -> FockState:
    """The input resource as a one-column factor, renormalized after truncation.

    Raises:
        InvalidArgument: if ``cutoff`` is below 1 or above 100.
        CutoffTooSmall: if more than 1e-8 of the state leaks past the cutoff.
    """
    if cutoff < 1:
        raise InvalidArgument(f"cutoff must be at least 1, got {cutoff}")
    if cutoff > _MAX_CUTOFF:
        raise InvalidArgument(f"cutoff must be at most {_MAX_CUTOFF}, got {cutoff}")
    # Real until the phase shifter, so the SVD in ``oracle_qfi`` runs in real arithmetic.
    return FockState(_input_ket(spec, cutoff)[:, None], cutoff)


# -- channels -------------------------------------------------------------------


@lru_cache(maxsize=8)
def _beam_splitter_blocks(theta, cutoff):
    """exp(theta G), G = a†b - b†a, as ``(indices, block)`` pairs, one per sector.

    The generator conserves total photon number, so it block-diagonalizes
    over sectors n + m = k; each truncated sector exponentiates to an
    orthogonal block, keeping the channel exactly unitary on the truncated
    space.  With ``i G = U Λ U†`` (Hermitian), the block is
    ``Re(U e^{-i theta Λ} U†)``, stored C-contiguous.
    """
    blocks = []
    for k in range(2 * cutoff - 1):
        ns = np.arange(max(0, k - cutoff + 1), min(cutoff - 1, k) + 1)
        # <n+1, m-1| G |n, m> = sqrt((n+1) m)
        coupling = np.sqrt((ns[:-1] + 1.0) * (k - ns[:-1]))
        lam, u = np.linalg.eigh(1j * (np.diag(coupling, -1) - np.diag(coupling, 1)))
        block = np.ascontiguousarray(((u * np.exp(-1j * theta * lam)) @ u.conj().T).real)
        blocks.append((ns * cutoff + (k - ns), block))
    return tuple(blocks)


def apply_beam_splitter(state: FockState, theta: float) -> FockState:
    v = state.factor
    out = np.empty_like(v)
    for idx, block in _beam_splitter_blocks(float(theta), state.cutoff):
        out[idx] = block @ v[idx]
    return FockState(out, state.cutoff)


def apply_phase(state: FockState, phi: float) -> FockState:
    """Phase shifter on mode a: ``|n, m> -> e^{-i n phi} |n, m>``."""
    phases = np.repeat(np.exp(-1j * phi * np.arange(state.cutoff)), state.cutoff)
    return FockState(phases[:, None] * state.factor, state.cutoff)


def _loss_amplitudes(eta, cutoff):
    """``amp[k, i] = <i| K_k |i + k> = sqrt(C(i+k, k) eta^i (1-eta)^k)``, zero past the cutoff."""
    binom = np.array([[math.comb(i + k, k) for i in range(cutoff)] for k in range(cutoff)], dtype=float)
    k = np.arange(cutoff)[:, None]
    i = np.arange(cutoff)[None, :]
    amp = np.sqrt(binom * eta**i * (1.0 - eta) ** k)
    return np.where(i + k < cutoff, amp, 0.0)


def apply_loss_fock(state: FockState, eta_a: float, eta_b: float) -> FockState:
    """Per-mode photon loss: one factor column per input column and Kraus pair.

    The loss Kraus operator ``K_k`` removes ``k`` photons, so each new
    column is the old one shifted down by ``(k, l)`` photons and weighted:
    ``out[i, m] = amp_a[k, i] amp_b[l, m] v[i + k, m + l]``.
    """
    _check_transmissivities(eta_a, eta_b)
    n = state.cutoff
    v = state.factor
    padded = np.zeros((2 * n, 2 * n, v.shape[1]), dtype=v.dtype)
    padded[:n, :n] = v.reshape(n, n, -1)
    # shifted[k, l, c, i, m] = v_c[i + k, m + l]
    shifted = sliding_window_view(padded, (n, n), axis=(0, 1))[:n, :n]
    amp_a, amp_b = _loss_amplitudes(eta_a, n), _loss_amplitudes(eta_b, n)
    cols = (amp_a[:, None, None, :, None] * amp_b[None, :, None, None, :] * shifted).reshape(-1, n * n)
    norms = np.einsum("ij,ij->i", cols.conj(), cols).real
    return FockState(np.ascontiguousarray(cols[norms >= _DROP].T), n)


def _state_before_phase(resource: ResourceSpec, loss: LossModel, cutoff: int) -> FockState:
    state = apply_beam_splitter(build_fock_input(resource, cutoff), math.pi / 4.0)
    if loss.is_lossless:
        return state
    return apply_loss_fock(state, loss.eta_a, loss.eta_b)


def fock_output_state(resource: ResourceSpec, phi: float, loss: LossModel, cutoff: int) -> FockState:
    """Full interferometer pipeline in the truncated basis."""
    state = apply_phase(_state_before_phase(resource, loss, cutoff), phi)
    return apply_beam_splitter(state, -math.pi / 4.0)


# -- observables and figures of merit -------------------------------------------


def _operator_terms(name, cutoff):
    """``name`` as a sum of products ``A ⊗ B``, returned as ``[(A, B), ...]``; ``None`` is the identity."""
    a = np.diag(np.sqrt(np.arange(1, cutoff, dtype=float)), k=1)
    x, p = (a + a.T) / math.sqrt(2.0), -1j * (a - a.T) / math.sqrt(2.0)
    nmat = np.diag(np.arange(cutoff, dtype=float))
    single = {
        "parity": np.diag((-1.0) ** np.arange(cutoff)),
        "x": x,
        "p": p,
        "x2": x @ x,
        "p2": p @ p,
        "x4": np.linalg.matrix_power(x, 4),
        "n": nmat,
    }
    if name.endswith("_a") and name[:-2] in single:
        return [(single[name[:-2]], None)]
    if name.endswith("_b") and name[:-2] in single:
        return [(None, single[name[:-2]])]
    if name == "xx_ab":
        return [(x, x)]
    if name == "n_total":
        return [(nmat, None), (None, nmat)]
    raise InvalidArgument(f"unknown operator name {name!r}")


def oracle_expectation(state: FockState, op: str) -> float:
    """``Tr(rho A) = sum_cols v† A v`` for a named operator ``A``.

    Supported names: ``parity_a``, ``x_a``, ``p_a``, ``x2_a``, ``p2_a``,
    ``x4_a``, ``n_a`` (likewise ``_b``), ``xx_ab``, ``n_total``.
    """
    n = state.cutoff
    v = state.factor
    r = v.shape[1]
    total = 0.0
    for op_a, op_b in _operator_terms(op, n):
        w = v.reshape(n, n, r)
        if op_a is not None:
            w = (op_a @ v.reshape(n, n * r)).reshape(n, n, r)
        if op_b is not None:
            w = op_b @ w  # acts on mode b, one mode-a index at a time
        total += np.vdot(v, w).real
    return float(total)


def oracle_qfi(resource: ResourceSpec, phi: float, loss: LossModel, cutoff: int) -> float:
    """Fisher information from the symmetric logarithmic derivative (SLD).

    With ``rho = sum_k p_k |u_k><u_k|`` from an SVD of the factor and the
    exact derivative ``d rho / d phi = -i [n_a, rho]``, the SLD information
    ``2 sum_kl (p_k - p_l)² / (p_k + p_l) |<u_k|n_a|u_l>|²`` equals
    ``4 Tr(rho n_a²) - 8 sum_kl p_k p_l / (p_k + p_l) |<u_k|n_a|u_l>|²``.
    The sum runs over the support only, and no term divides by a small
    eigenvalue.  The phase shifter commutes with ``n_a`` and the beam
    splitter after it is a fixed unitary, so neither changes the
    information; it is computed from the state before them, and ``phi``
    does not change the value.
    """
    v = _state_before_phase(resource, loss, cutoff).factor
    u, s, _ = np.linalg.svd(v, full_matrices=False)
    p = s[s > 0.0] ** 2
    u = u[:, : len(p)]
    n_a = np.repeat(np.arange(cutoff, dtype=float), cutoff)
    g = u.conj().T @ (n_a[:, None] * u)
    second_moment = (n_a**2) @ np.einsum("ij,ij->i", v.conj(), v).real
    weights = p[:, None] * p[None, :] / (p[:, None] + p[None, :])
    return float(4.0 * second_moment - 8.0 * np.sum(weights * np.abs(g) ** 2))


def uhlmann_fidelity(s1: FockState, s2: FockState) -> float:
    """Bures fidelity ``Tr sqrt(sqrt(rho) sigma sqrt(rho))`` (amplitude convention).

    Computed as the nuclear norm of ``V† W`` for ``rho = V V†`` and
    ``sigma = W W†``: that small matrix has the singular values of
    ``sqrt(rho) sqrt(sigma)``.
    """
    if s1.cutoff != s2.cutoff:
        raise InvalidArgument("states live on different cutoffs")
    overlap = s1.factor.conj().T @ s2.factor
    return float(np.sum(np.linalg.svd(overlap, compute_uv=False)))
