"""The controlled-swap comparison test, computed two independent ways.

* analytic: p(outcome 1) = 1 - p_eq(1, |<phi|psi>|) from the inner
  product, the k = 1 case of the permutation test's closed form.
* circuit: full state-vector evolution, on one (2, D, D) array in row
  blocks, of H on the control, a controlled register exchange, H again,
  then the Born probability of control = 1.

Seeded sampling at the analytic rate is ``permtest.sample_rate``.

The circuit path cross-checks its pre-measurement state against the
closed-form superposition of the symmetrized and antisymmetrized inputs,
so the two exact routes validate each other on every call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import CapabilityError, DomainError, InputShapeError
from .permtest import p_eq_closed_form
from .qstate import MAX_STATE_DIM, PureState

_HALF_TOL = 1e-12
# Amplitudes per row block of the circuit and its check (256 kB of
# complex128), so each block's gates run in cache.
_BLOCK = 1 << 14


@dataclass(frozen=True)
class SwapTestResult:
    p_one: float
    p_zero: float
    method: str

    def __post_init__(self) -> None:
        if abs(self.p_one + self.p_zero - 1.0) > 1e-12:
            raise DomainError("p_one and p_zero must sum to 1")
        if self.p_one > 0.5 + _HALF_TOL:
            raise DomainError(f"p_one = {self.p_one!r} exceeds 1/2")

    def to_json(self) -> dict:
        return {"p_one": self.p_one, "method": self.method}


def _result(p_one: float, method: str) -> SwapTestResult:
    return SwapTestResult(p_one=p_one, p_zero=1.0 - p_one, method=method)


def p_one_for_overlap(overlap):
    """1 - p_eq(1, |overlap|) = (1 - |overlap|^2)/2; exact for a Fraction.

    A float overlap is clamped to at most 1, since a rounded inner product
    of identical states may exceed it.
    """
    if not isinstance(overlap, Fraction):
        overlap = min(float(abs(overlap)), 1.0)
    return 1 - p_eq_closed_form(1, abs(overlap))


def swap_test_analytic(phi: PureState, psi: PureState) -> SwapTestResult:
    """p(1) from the inner product alone."""
    if phi.shape != psi.shape:
        raise InputShapeError(f"shape mismatch: {phi.shape} vs {psi.shape}")
    g = abs(np.vdot(phi.amplitudes, psi.amplitudes))
    return _result(p_one_for_overlap(g), "analytic")


def _block_rows(d: int) -> int:
    return max(1, _BLOCK // d)


def _row_blocks(d: int):
    """Slices of ``_block_rows(d)`` rows that cover range(d)."""
    rows = _block_rows(d)
    return (slice(r, min(r + rows, d)) for r in range(0, d, rows))


def _scaled_columns(a, b, cols: slice, scale: float, out: np.ndarray) -> np.ndarray:
    """Columns ``cols`` of scale * (a x b), transposed: rows of its transpose."""
    slab = out[:, :cols.stop - cols.start]
    np.multiply(a[:, None], b[None, cols], out=slab)
    slab *= scale
    return slab.T


def swap_test_circuit_state(phi: PureState, psi: PureState) -> np.ndarray:
    """Pre-measurement joint state of (H x I)(c-SWAP)(H x I)|0>|phi>|psi>.

    Returned with shape (2, D, D): control, then the two payload registers.
    The gates run over row blocks of that one array, each block through
    all three gates while it is in cache.  Rows of the exchanged control=1
    branch are columns of the unexchanged one, so each block transposes a
    column slab of the first Hadamard's output.  Every amplitude is
    rounded exactly as in a dense evaluation of the same gates.
    """
    if phi.shape != psi.shape:
        raise InputShapeError(f"shape mismatch: {phi.shape} vs {psi.shape}")
    d = phi.dim
    if 2 * d * d > MAX_STATE_DIM:
        raise CapabilityError(
            f"joint dimension 2*{d}^2 exceeds the guard {MAX_STATE_DIM}"
        )
    s = 1.0 / math.sqrt(2.0)
    a, b = phi.amplitudes, psi.amplitudes
    joint = np.empty((2, d, d), dtype=np.complex128)
    scratch = np.empty((d, _block_rows(d)), dtype=np.complex128)
    for rows in _row_blocks(d):
        zero, one = joint[0, rows], joint[1, rows]
        # H on the control of |0>|phi>|psi>: both branches hold s * phi x psi
        np.multiply(a[rows, None], b, out=zero)
        zero *= s
        # exchange the registers where control = 1
        one[...] = _scaled_columns(a, b, rows, s, scratch)
        # H on the control
        diff = zero - one
        zero += one
        zero *= s
        np.multiply(diff, s, out=one)
    return joint


def swap_test_circuit(phi: PureState, psi: PureState) -> SwapTestResult:
    """Exact Born probability of control = 1 from circuit evolution.

    The evolved state is checked on every call against the closed form
    (fwd + rev)/2, (fwd - rev)/2 with fwd = phi x psi and rev = psi x phi:
    its largest amplitude error must be at most 1e-10.  The check runs
    over the same row blocks as the evolution.
    """
    joint = swap_test_circuit_state(phi, psi)
    magnitudes = np.abs(joint[1])
    p_one = float(np.sum(np.square(magnitudes, out=magnitudes)))
    del magnitudes
    # the check reuses the evolved state: joint[c] -= (fwd +/- fwd.T)/2
    a, b = phi.amplitudes, psi.amplitudes
    d = phi.dim
    scratch = np.empty((d, _block_rows(d)), dtype=np.complex128)
    half_fwd = np.empty((_block_rows(d), d), dtype=np.complex128)
    block_errors = []
    for rows in _row_blocks(d):
        zero, one = joint[0, rows], joint[1, rows]
        half = half_fwd[:rows.stop - rows.start]
        np.multiply(a[rows, None], b, out=half)
        half *= 0.5
        half_rev = _scaled_columns(a, b, rows, 0.5, scratch)
        zero -= half
        one -= half
        zero -= half_rev
        one += half_rev
        block_errors.append(np.abs(joint[:, rows]).max())
    error = float(np.max(block_errors))  # a NaN in any block propagates
    if not error <= 1e-10:
        raise ArithmeticError(
            f"circuit evolution disagrees with the closed-form final state "
            f"by {error!r}"
        )
    return _result(min(p_one, 0.5), "circuit")


def repetitions_for_error(epsilon: float, delta: float) -> int:
    """Smallest k with p_eq(1, delta)^k = ((1 + delta^2)/2)^k <= epsilon."""
    if not 0.0 < epsilon < 1.0:
        raise DomainError(f"epsilon must lie in (0,1), got {epsilon}")
    if not 0.0 <= delta < 1.0:
        raise DomainError(
            f"delta must lie in [0,1): states may coincide at delta=1, "
            f"so no finite repetition count works (got {delta})"
        )
    q = p_eq_closed_form(1, delta)
    k = max(1, math.ceil(math.log(epsilon) / math.log(q)))
    while q**k > epsilon:
        k += 1
    while k > 1 and q ** (k - 1) <= epsilon:
        k -= 1
    return k
