"""The k-copy state-distinguishing test built on register permutations.

With k copies each of |phi> and |psi| in 2k registers, superposing all
(2k)! register permutations and uncomputing accepts identical states with
certainty; for states with overlap gamma the accept probability has the
closed form

    p_eq(k, gamma) = (k!)^2/(2k)! * sum_j C(k,j)^2 gamma^(2j).

At k = 1 it is the swap test's (1 + gamma^2)/2.  This module provides
that closed form (exact over the rationals), the seeded sampler of either
test's verdicts, a projection oracle that symmetrizes the actual 2k-register
product state numerically (one register permutation per coset of
S_k x S_k, not all (2k)!), the matching upper/lower/asymptotic bounds, the
two-state discrimination optimum, and the worst-case product instance
those bounds are tight against.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from itertools import combinations
from math import comb, cos, factorial, inf, log2, pi, sqrt

import numpy as np

from .errors import DomainError, InputShapeError
from .guards import check
from .qstate import PureState, tensor, tensor_power


def _as_fraction(value) -> Fraction | None:
    if isinstance(value, (Fraction, int)):
        return Fraction(value)
    return None


def p_eq_closed_form(k: int, gamma):
    """Accept probability at overlap magnitude gamma; exact for rational gamma.

    A float gamma takes a float sum, for k up to ``guards.FLOAT_CLOSED_FORM_MAX_K``;
    where that sum passes the float range (gamma near 1 at k = 515, 516),
    each term is scaled by the prefactor before it is summed.
    """
    if k < 1:
        raise DomainError(f"k must be >= 1, got {k}")
    if not 0 <= gamma <= 1:
        raise DomainError(f"gamma must lie in [0,1], got {gamma}")
    g = _as_fraction(gamma)
    if g is None:
        check("FLOAT_CLOSED_FORM_MAX_K", k, "the float closed form's k")
    prefactor = Fraction(factorial(k) ** 2, factorial(2 * k))
    if g is not None:
        g2 = g * g
        return prefactor * sum(comb(k, j) ** 2 * g2**j for j in range(k + 1))
    g2 = float(gamma) ** 2
    total = sum(comb(k, j) ** 2 * g2**j for j in range(k + 1))
    if total == inf:
        return sum(float(prefactor * comb(k, j) ** 2) * g2**j for j in range(k + 1))
    return float(prefactor * Fraction(total))


def sample_rate(p, trials: int, seed) -> float:
    """Frequency of ``trials`` seeded Bernoulli(p) verdicts.

    Draws the success count as one ``default_rng(seed).binomial(trials, p)``
    in O(1) time and memory: the same stream for a swap test's outcome 1 at
    its analytic rate and for a permutation test's acceptance at its
    projection rate.  p = 0 and p = 1 give exactly 0.0 and 1.0.
    """
    if trials < 1:
        raise DomainError(f"trials must be >= 1, got {trials}")
    check("MAX_SAMPLED_TRIALS", trials, "sampled trials")
    if not 0 <= p <= 1:
        raise DomainError(f"p must lie in [0,1], got {p}")
    return int(np.random.default_rng(seed).binomial(trials, p)) / trials


def p_eq_projection(phi: PureState, psi: PureState, k: int) -> float:
    """Squared norm of the symmetrized 2k-register product state.

    Materializes phi^k x psi^k and averages its register permutations
    numerically: a projection oracle independent of the closed-form sum.
    The state is fixed by S_k x S_k (permuting the phi registers among
    themselves, or the psi registers), so all (k!)^2 permutations of one
    coset give the same transpose.  The average over S_{2k} is therefore
    the average over cosets: one transpose for each choice of the k axes
    that receive a phi register, C(2k, k) in all.
    """
    if phi.shape != psi.shape:
        raise InputShapeError(f"shape mismatch: {phi.shape} vs {psi.shape}")
    if k < 1:
        raise DomainError(f"k must be >= 1, got {k}")
    # k is capped before d^(2k) or C(2k, k) is formed
    d, capped = phi.dim, min(k, 64)
    size = d ** (2 * capped)
    check("MAX_STATE_DIM", size, "the projection's dimension d^(2k)")
    check("MAX_PROJECTION_WORK", comb(2 * capped, capped) * size,
          "the projection's transposed elements C(2k, k) d^(2k)")
    n_regs = 2 * k
    n_cosets = comb(n_regs, k)
    vecs = [phi.amplitudes] * k + [psi.amplitudes] * k
    product = reduce(np.kron, vecs).reshape((d,) * n_regs)
    acc = np.zeros_like(product)
    for phi_axes in combinations(range(n_regs), k):
        acc += np.moveaxis(product, range(k), phi_axes)
    p = float(np.vdot(acc, acc).real) / n_cosets**2
    return min(max(p, 0.0), 1.0)


def p_eq_upper_bound(k: int, delta):
    """(k!)^2/(2k)! * (1 + delta)^(2k); may exceed 1 and is still a bound.

    A float delta returns the float of the exact value.  Since C(2k, k) >=
    4^k/(2 sqrt k), that value is at most 2 sqrt(k) ((1 + delta)/2)^(2k); when
    this bound, with a margin for the rounding of its logarithms, is below
    half the least subnormal 2^-1075, the float is 0.0 and no exact power is
    formed.
    """
    if k < 1:
        raise DomainError(f"k must be >= 1, got {k}")
    d = _as_fraction(delta)
    if d is not None:
        return Fraction(factorial(k) ** 2, factorial(2 * k)) * (1 + d) ** (2 * k)
    base = float(delta) + 1.0
    if 0.0 < abs(base) < 2.0 and \
            2 * k * log2(abs(base) / 2) * (1 - 1e-9) + log2(k) / 2 + 2 < -1075:
        return 0.0
    return float(Fraction(factorial(k) ** 2, factorial(2 * k))
                 * Fraction(base) ** (2 * k))


def p_eq_asymptotic(k: int, delta: float) -> float:
    """sqrt(pi k) ((1 + delta)/2)^(2k); loose at small k, reported not asserted."""
    if k < 1:
        raise DomainError(f"k must be >= 1, got {k}")
    return sqrt(pi * k) * ((1.0 + float(delta)) / 2.0) ** (2 * k)


def distinguisher_lower_bound(k: int, delta):
    """No test on k copies beats error 1/4 ((1 + delta)/2)^(2k)."""
    if k < 1:
        raise DomainError(f"k must be >= 1, got {k}")
    d = _as_fraction(delta)
    if d is not None:
        return Fraction(1, 4) * ((1 + d) / 2) ** (2 * k)
    return 0.25 * ((1.0 + float(delta)) / 2.0) ** (2 * k)


def helstrom_error(overlap: float) -> float:
    """Minimum discrimination error for two pure states with this overlap.

    Equals (1 - sqrt(1 - overlap^2))/2, evaluated in the cancellation-free
    form overlap^2 / (2 (1 + sqrt(1 - overlap^2))) so the bound
    result >= overlap^2/4 survives rounding near overlap = 0.
    """
    c = float(overlap)
    if not 0.0 <= c <= 1.0:
        raise DomainError(f"overlap must lie in [0,1], got {overlap}")
    return c * c / (2.0 * (1.0 + sqrt(max(0.0, 1.0 - c * c))))


def build_hard_instance(
    k: int, delta: float
) -> tuple[PureState, PureState, float]:
    """Worst-case pair for any k-copy distinguisher.

    One branch is 2k copies of |0>; the other takes k copies each of the
    two single-qubit states at angle +/- theta/2 from |0>, theta chosen so
    their mutual overlap is delta.  The branches then meet at overlap
    ((1 + delta)/2)^k, which is verified against the built vectors.
    """
    if k < 1:
        raise DomainError(f"k must be >= 1, got {k}")
    if not 0.0 <= delta <= 1.0:
        raise DomainError(f"delta must lie in [0,1], got {delta}")
    c = sqrt((1.0 + delta) / 2.0)  # cos(theta/2) with theta = arccos(delta)
    s = sqrt((1.0 - delta) / 2.0)
    zero = PureState(np.array([1.0, 0.0]), (2,))
    phi2 = PureState(np.array([c, s]), (2,))
    psi2 = PureState(np.array([c, -s]), (2,))
    state_a = tensor_power(zero, 2 * k)
    state_b = tensor(tensor_power(phi2, k), tensor_power(psi2, k))
    overlap = float(np.vdot(state_a.amplitudes, state_b.amplitudes).real)
    expected = ((1.0 + delta) / 2.0) ** k
    if abs(overlap - expected) > 1e-12:
        raise ArithmeticError(
            f"hard-instance overlap {overlap!r} deviates from {expected!r}"
        )
    return state_a, state_b, overlap


def overlap_qubit_pair(gamma: float) -> tuple[PureState, PureState]:
    """A fixed qubit pair with real overlap gamma, for oracle grids."""
    if not 0.0 <= gamma <= 1.0:
        raise DomainError(f"gamma must lie in [0,1], got {gamma}")
    phi = PureState(np.array([1.0, 0.0]), (2,))
    psi = PureState(np.array([gamma, sqrt(max(0.0, 1.0 - gamma * gamma))]), (2,))
    return phi, psi
