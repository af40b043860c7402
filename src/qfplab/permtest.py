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
those bounds are tight against.  The closed form and the upper and lower
bounds are each stated once, over the rationals: an exact input (a Fraction
or an int) gets the Fraction, and a float, itself a dyadic rational, gets
its correctly rounded float."""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from itertools import combinations
from math import comb, log2, pi, sqrt

import numpy as np

from .errors import DomainError, InputShapeError
from .guards import check
from .qstate import PureState, tensor, tensor_power


_EXACT = (Fraction, int)


def _check_args(k: int, name: str, value, low: int) -> None:
    if k < 1:
        raise DomainError(f"k must be >= 1, got {k}")
    if not low <= value <= 1:  # also refuses NaN
        raise DomainError(f"{name} must lie in [{low},1], got {value}")


def p_eq_closed_form(k: int, gamma):
    """Accept probability at overlap magnitude gamma, from one integer sum.

    At x = gamma^2 = a/b the sum nests as 1 + (k/1)^2 x (1 + ((k-1)/2)^2 x (...
    (1 + (1/k)^2 x))), each step a product by small integers, over (k!)^2 b^k.
    A float gamma (k up to ``guards.FLOAT_CLOSED_FORM_MAX_K``) gets the exact
    value's correctly rounded float."""
    _check_args(k, "gamma", gamma, 0)
    exact = isinstance(gamma, _EXACT)
    if not exact:
        check("FLOAT_CLOSED_FORM_MAX_K", k, "the float closed form's k")
    g = Fraction(gamma)
    a, b = g.numerator**2, g.denominator**2
    num = den = 1
    for j in range(k, 0, -1):
        den *= j * j * b
        num = den + (k - j + 1) ** 2 * a * num
    den *= comb(2 * k, k)
    return Fraction(num, den) if exact else num / den


def _bracket(c: Fraction, p: Fraction, e: int, width: int, up: bool) -> float:
    """A float bound on c p^e: below it, or above it if ``up``.

    c's numerator, p and each product of the square-and-multiply chain are
    kept as a ``width``-bit integer times a power of two, rounded down (or
    up), and the last is divided by c's denominator in one correctly rounded
    int division: the float of a value on that side of c p^e.
    """
    def rounded(mant: int, exp: int) -> tuple[int, int]:
        shift = mant.bit_length() - width
        if shift <= 0:
            return mant, exp
        return (-(-mant >> shift) if up else mant >> shift), exp + shift

    shift = width + p.denominator.bit_length() - p.numerator.bit_length()
    num = p.numerator << shift
    base = (-(-num // p.denominator) if up else num // p.denominator), -shift
    mant, exp = rounded(c.numerator, 0)
    while e:
        if e & 1:
            mant, exp = rounded(mant * base[0], exp + base[1])
        e >>= 1
        if e:
            base = rounded(base[0] * base[0], 2 * base[1])
    if mant.bit_length() + exp <= -1075:  # below half the least subnormal
        return 0.0
    den = c.denominator
    return mant / (den << -exp) if exp < 0 else (mant << exp) / den


def _power_float(p: Fraction, e: int, c: Fraction = Fraction(1)) -> float:
    """float(c * p**e) for 0 <= p <= 1, e >= 1 and c > 0, without the exact power.

    The two ``_bracket`` bounds start at 128 bits; c p^e lies between them,
    so once they round to one float c p^e rounds to it too.  Else the width
    doubles, until they meet (at worst when they hold c's numerator times
    p^e exactly).  Each try is O(log e) products of ``width`` bits.
    """
    width = 128
    while (low := _bracket(c, p, e, width, False)) != _bracket(c, p, e, width, True):
        width *= 2
    return low


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


def _half_plus(delta) -> Fraction:
    """(1 + delta)/2 exactly; a float's from its integer ratio a/b, as (a + b)/2b."""
    if isinstance(delta, _EXACT):
        return (1 + Fraction(delta)) / 2
    a, b = delta.as_integer_ratio()
    return Fraction(a + b, 2 * b)


def p_eq_upper_bound(k: int, delta):
    """(k!)^2/(2k)! (1 + delta)^(2k) = (4^k/C(2k,k)) ((1 + delta)/2)^(2k).

    It may exceed 1 and is still a bound.  As C(2k, k) >= 4^k/(2 sqrt k), it
    is at most 2 sqrt(k) ((1 + delta)/2)^(2k); when that, with a margin for
    the rounding of its logarithms, is below half the least subnormal
    2^-1075, a float delta gives 0.0 and C(2k, k) is never formed.  Any
    other float delta (k up to ``guards.FLOAT_UPPER_BOUND_MAX_K``) gets the
    exact value's correctly rounded float."""
    _check_args(k, "delta", delta, -1)
    p, e, exact = _half_plus(delta), 2 * k, isinstance(delta, _EXACT)
    if not exact:
        if 0 < p.numerator < p.denominator and \
                e * log2(p) * (1 - 1e-9) + log2(k) / 2 + 2 < -1075:
            return 0.0
        check("FLOAT_UPPER_BOUND_MAX_K", k, "the float upper bound's k")
    c = Fraction(4**k, comb(2 * k, k))
    return c * p**e if exact else _power_float(p, e, c)


def p_eq_asymptotic(k: int, delta: float) -> float:
    """sqrt(pi k) ((1 + delta)/2)^(2k); loose at small k, reported not asserted.

    It is irrational, so it has no exact value to round and stays in floats."""
    _check_args(k, "delta", delta, -1)
    return sqrt(pi * k) * ((1.0 + float(delta)) / 2.0) ** (2 * k)


def distinguisher_lower_bound(k: int, delta):
    """No test on k copies beats error 1/4 ((1 + delta)/2)^(2k)."""
    _check_args(k, "delta", delta, -1)
    p, e, c = _half_plus(delta), 2 * k, Fraction(1, 4)
    return c * p**e if isinstance(delta, _EXACT) else _power_float(p, e, c)


def helstrom_error(overlap: float) -> float:
    """Minimum discrimination error for two pure states with this overlap.

    Equals (1 - sqrt(1 - overlap^2))/2, evaluated in the cancellation-free
    form overlap^2 / (2 (1 + sqrt(1 - overlap^2))) so the bound
    result >= overlap^2/4 survives rounding near overlap = 0.  It is
    irrational in general, so it stays in floats.
    """
    c = float(overlap)
    _check_args(1, "overlap", c, 0)
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
    _check_args(k, "delta", delta, 0)
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
    _check_args(1, "gamma", gamma, 0)
    phi = PureState(np.array([1.0, 0.0]), (2,))
    psi = PureState(np.array([gamma, sqrt(max(0.0, 1.0 - gamma * gamma))]), (2,))
    return phi, psi
