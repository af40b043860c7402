"""The controlled-swap comparison test, computed two independent ways.

* analytic: p(outcome 1) = 1 - p_eq(1, |<phi|psi>|) from the inner
  product, the k = 1 case of the permutation test's closed form.
* circuit: state-vector evolution of H on the control, a controlled
  register exchange and H again, then the Born probability of control = 1.
  Only S x S is evolved, S being the indices where phi or psi is nonzero:
  the gates map S x S to itself, so every other amplitude stays exactly 0
  (a code fingerprint is zero at half its indices; for dense inputs S is
  every index).  It runs one row block of S x S at a time from a reused
  (2, rows, |S|) stack of the rows of phi x psi and psi x phi, and p(1)
  sums those blocks.  The state is never held whole, and its guard
  2 D^2 <= guards.MAX_STATE_DIM still reads the full dimension D, so it
  bounds work, not memory.
  When neither input has an imaginary part (code fingerprints never do),
  the circuit runs in float64 on the real parts, at half the cost and with
  the same bits in every amplitude and in p(1): in complex128 each gate
  would only add or subtract an exact 0 in the imaginary parts.

Seeded sampling at the analytic rate is ``permtest.sample_rate``.

The circuit path cross-checks its pre-measurement state, block by block,
against the closed-form superposition of the symmetrized and
antisymmetrized inputs, so the two exact routes validate each other on
every call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DomainError, InputShapeError
from .guards import check
from .permtest import _EXACT, _check_args, p_eq_closed_form
from .qstate import PureState

_HALF_TOL = 1e-12
# Amplitudes per row block of S x S in the circuit and its check (256 kB
# of complex128), so each block's gates run in cache.  Real inputs keep the
# same blocks: p(1) sums each block of |S| columns apart, so another height
# would group, and round, that sum differently.
_BLOCK = 1 << 14


@dataclass(frozen=True)
class SwapTestResult:
    p_one: float
    method: str

    def __post_init__(self) -> None:
        if self.p_one > 0.5 + _HALF_TOL:
            raise DomainError(f"p_one = {self.p_one!r} exceeds 1/2")

    @property
    def p_zero(self) -> float:
        return 1.0 - self.p_one

    def to_json(self) -> dict:
        return {"p_one": self.p_one, "method": self.method}


def _swap_p_one(agree, m):
    """1 - p_eq(1, a/m) = (m - a)(m + a)/(2m^2), exact for a Fraction ``agree``.

    In float64 every factor and product is exact while m <= 2^26, so each
    value is the exact rational correctly rounded; hadamard agreements (m/2
    or m) are exact at every m.
    """
    return (m - agree) * (m + agree) / (2 * m * m)


def p_one_for_overlap(overlap):
    """p(1) = (1 - |overlap|^2)/2, exact for a Fraction or an int, else rounded
    once.  A float overlap is clamped to at most 1, since a rounded inner
    product of identical states may exceed it."""
    exact = isinstance(overlap, _EXACT)
    g = abs(overlap) if exact else min(float(abs(overlap)), 1.0)
    _check_args(1, "overlap magnitude", g, 0)
    p_one = _swap_p_one(Fraction(g), 1)
    return p_one if exact else float(p_one)


def swap_test_analytic(phi: PureState, psi: PureState) -> SwapTestResult:
    """p(1) from the inner product alone."""
    if phi.shape != psi.shape:
        raise InputShapeError(f"shape mismatch: {phi.shape} vs {psi.shape}")
    g = abs(np.vdot(phi.amplitudes, psi.amplitudes))
    return SwapTestResult(p_one_for_overlap(g), "analytic")


def _evolved_blocks(phi: PureState, psi: PureState):
    """Yield ``(support, rows, evolved, half_fwd, half_rev)``: rows ``rows``
    of the circuit's final state on S x S and of (phi x psi)/2 and
    (psi x phi)/2 there, as views of buffers that the next block overwrites.

    S is ``support``, the indices where phi or psi is nonzero, and ``rows``
    is a slice of it.  The gates (H on the control, the controlled exchange
    (i, j) <-> (j, i), H) map S x S to itself, so every amplitude outside
    it stays exactly 0 and is never formed; for dense inputs S is every
    index.  Every amplitude in S x S is rounded exactly as in a dense
    evaluation of the same gates.  The inputs are checked before the first
    block, the guard on the full joint dimension 2 D^2.  Inputs without an
    imaginary part are evolved as float64: a complex128 product of two reals
    has real part a b - 0 0, and every later gate scales or adds real and
    imaginary parts apart, so the float64 amplitudes are the real parts of
    the complex128 ones, bit for bit, and |x + 0i| = |x| gives the same p(1)
    and check.
    """
    if phi.shape != psi.shape:
        raise InputShapeError(f"shape mismatch: {phi.shape} vs {psi.shape}")
    d = phi.dim
    check("MAX_STATE_DIM", 2 * d * d, "joint dimension 2 D^2 of the swap circuit")
    s = 1.0 / math.sqrt(2.0)
    a, b = phi.amplitudes, psi.amplitudes
    if not (a.imag.any() or b.imag.any()):
        a, b = a.real, b.real
    support = np.flatnonzero((a != 0) | (b != 0))
    a, b = a[support], b[support]
    width = support.size
    height = max(1, _BLOCK // width)
    # products, evolved rows and the last gate's difference: one allocation,
    # which malloc reuses on the next call instead of returning it to the OS
    # and faulting it in
    buffers = np.empty((5, height, width), dtype=a.dtype)
    for start in range(0, width, height):
        rows = slice(start, min(start + height, width))
        block = buffers[:, : rows.stop - start]
        products, evolved, diff = block[:2], block[2:4], block[4]
        (fwd, rev), (zero, one) = products, evolved
        # 2-D operands as in np.outer, so a 1 x 1 block rounds as it does
        np.multiply(a[rows, None], b[None], out=fwd)
        np.multiply(a[None], b[rows, None], out=rev)
        # H on the control of |0>|phi>|psi>, exchange where control = 1
        np.multiply(products, s, out=evolved)
        # H on the control
        np.subtract(zero, one, out=diff)
        zero += one
        zero *= s
        np.multiply(diff, s, out=one)
        products *= 0.5
        yield support, rows, evolved, fwd, rev


def swap_test_circuit_state(phi: PureState, psi: PureState) -> np.ndarray:
    """Pre-measurement joint state of (H x I)(c-SWAP)(H x I)|0>|phi>|psi>.

    Returned as complex128 with shape (2, D, D): control, then the two
    payload registers.  The S x S amplitudes are copied from the row blocks
    that ``swap_test_circuit`` reads (real blocks copy exactly); every other
    amplitude is an exact 0.
    """
    for support, rows, evolved, _, _ in _evolved_blocks(phi, psi):
        if rows.start == 0:  # allocated once the inputs have passed the guard
            joint = np.zeros((2, phi.dim, phi.dim), dtype=np.complex128)
        joint[:, support[rows, None], support] = evolved
    return joint


def _max_abs(errors):
    """Largest |error| in a block, NaN if any error is NaN; a real block is
    read from its max and min, without forming |x|."""
    if errors.dtype == np.float64:
        return np.maximum(errors.max(), -errors.min())
    return np.abs(errors).max()


def swap_test_circuit(phi: PureState, psi: PureState) -> SwapTestResult:
    """Exact Born probability of control = 1 from circuit evolution.

    p(1) sums |amplitude|^2 of control = 1 over the row blocks of S x S,
    the only amplitudes that can be nonzero (see ``_evolved_blocks``).
    The evolved state is checked on every call against the closed form
    (fwd + rev)/2, (fwd - rev)/2 with fwd = phi x psi and rev = psi x phi:
    its largest amplitude error on S x S must be at most 1e-10.  Each row
    block is evolved, measured and checked once; the (2, D, D) state is
    never held.
    """
    p_one = error = 0.0
    for _, _, evolved, half_fwd, half_rev in _evolved_blocks(phi, psi):
        zero, one = evolved
        # each branch minus its closed form, in place; control = 0 first, so
        # that a real block's p(1) can square control = 1 into its buffer
        zero -= half_fwd
        zero -= half_rev
        error = np.maximum(error, _max_abs(zero))
        if evolved.dtype == np.float64:  # |x|^2 = x^2 exactly
            p_one += float(np.sum(np.square(one, out=zero)))
        else:
            p_one += float(np.sum(np.square(np.abs(one))))
        one -= half_fwd
        one += half_rev
        error = np.maximum(error, _max_abs(one))
    if not error <= 1e-10:
        raise ArithmeticError(
            f"circuit evolution disagrees with the closed-form final state "
            f"by {float(error)!r}"
        )
    return SwapTestResult(min(p_one, 0.5), "circuit")


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
