"""The controlled-swap comparison test, computed two independent ways.

* analytic: p(outcome 1) = 1 - p_eq(1, |<phi|psi>|) from the inner
  product, the k = 1 case of the permutation test's closed form.
* circuit: full state-vector evolution of H on the control, a controlled
  register exchange, H again, then the Born probability of control = 1.

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


def swap_test_circuit_state(phi: PureState, psi: PureState) -> np.ndarray:
    """Pre-measurement joint state of (H x I)(c-SWAP)(H x I)|0>|phi>|psi>.

    Returned with shape (2, D, D): control, then the two payload registers.
    """
    if phi.shape != psi.shape:
        raise InputShapeError(f"shape mismatch: {phi.shape} vs {psi.shape}")
    d = phi.dim
    if 2 * d * d > MAX_STATE_DIM:
        raise CapabilityError(
            f"joint dimension 2*{d}^2 exceeds the guard {MAX_STATE_DIM}"
        )
    joint = np.zeros((2, d, d), dtype=np.complex128)
    joint[0] = np.outer(phi.amplitudes, psi.amplitudes)
    s = 1.0 / math.sqrt(2.0)
    joint = np.stack([(joint[0] + joint[1]) * s, (joint[0] - joint[1]) * s])
    joint[1] = joint[1].T.copy()  # exchange the registers where control = 1
    joint = np.stack([(joint[0] + joint[1]) * s, (joint[0] - joint[1]) * s])
    return joint


def swap_test_circuit(phi: PureState, psi: PureState) -> SwapTestResult:
    """Exact Born probability of control = 1 from circuit evolution."""
    joint = swap_test_circuit_state(phi, psi)
    # closed-form pre-measurement state, checked on every run
    fwd = np.outer(phi.amplitudes, psi.amplitudes)
    rev = np.outer(psi.amplitudes, phi.amplitudes)
    if not (
        np.allclose(joint[0], 0.5 * (fwd + rev), atol=1e-10)
        and np.allclose(joint[1], 0.5 * (fwd - rev), atol=1e-10)
    ):
        raise ArithmeticError(
            "circuit evolution disagrees with the closed-form final state"
        )
    p_one = float(np.sum(np.abs(joint[1]) ** 2))
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
