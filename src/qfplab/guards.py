"""Capability guards: every size limit of the lab, and the one check of them.

Dense exact simulation bounds its problem sizes.  ``GUARDS`` names each
limit, with the reason it sits where it does; ``check`` compares a size with
one of them before anything of that size is built or printed, and raises
``CapabilityError`` (CLI exit 3) above it.  Where a size is a power or a
binomial, its caller caps the exponent (or k) at 64 before forming it: every
limit is below 2^64, so the capped size is still above its guard whenever
the true one is, and no huge integer is ever built to be compared.
"""

from __future__ import annotations

from .errors import CapabilityError

GUARDS = {
    # Dense-simulation guards: total amplitudes, and fingerprint index length.
    "MAX_STATE_DIM": 1 << 22,
    "MAX_FINGERPRINT_M": 1 << 20,
    # Most 64-bit word operations an exact certificate may take: 2^n * ceil(m/64)
    # for the minimum-weight pass (random-linear n = 24, c = 3 takes 31 ms on a
    # 2-core box), C(2^n, 2) * ceil(m/64) for the pairwise comparison.
    "CERTIFY_MAX_WORDS": 2**25,
    # Entries c*n^2 of a sampled random-linear generator (1 MB of uint8).
    "GENERATOR_MAX_ENTRIES": 2**20,
    # Hadamard positions are codeword rows of one 64-bit word each.
    "HADAMARD_MAX_N": 63,
    # Codeword bits (messages * m) that one ``_codeword_bits`` call may build: as
    # many as the 2^22 amplitudes of the state guard, so hadamard n <= 22.
    "CODEWORD_MAX_BITS": 2**22,
    # Projection guard: C(2k, k) transposes of d^(2k) elements each.  It admits
    # qubits up to k = 7 (about 0.3 s on a 2-core box).
    "MAX_PROJECTION_WORK": 2**26,
    # Sampled trials: numpy draws a binomial count as an int64.
    "MAX_SAMPLED_TRIALS": 2**63 - 1,
    # Float closed form: its exact integer sum grows with k times the 108 bits
    # of a float gamma's squared denominator (about 10 ms at k = 516 on a
    # 2-core box); 516 is kept from an earlier float sum's range.
    "FLOAT_CLOSED_FORM_MAX_K": 516,
    # Guard on k and r, far past any useful count (the quantum bound (5/8)^k
    # of a hadamard code is 0.0 from k = 1586): the theory bound's bracketed
    # power takes tens of µs at 2^22 on a 2-core box, and each trial draws
    # one uniform whatever k or r.
    "MAX_REPETITIONS": 1 << 22,
    # Work guard on trials, checked before any runs: a run at the bound takes
    # about 1 s for hadamard codes and 5 s for random-linear n = 20 on a 2-core
    # box (the largest count in use is 10^6).
    "MAX_TRIALS": 1 << 24,
    # Pairwise audits touch count*(count-1)/2 inner products; an audit of 2^14
    # vectors at d = 1 takes about 0.3 s single-threaded on a 2-core box.
    "AUDIT_MAX_COUNT": 1 << 14,
    # Coordinates of one set (count*d) or pair block (2*size*d), above the
    # 2*4096*800 of a full block of d = 800 pairs.
    "MAX_COORDINATES": 1 << 23,
    # Coordinates of a whole pair-mode run (2*pairs*d), above the 1.6*10^8 of
    # 100000 pairs at d = 800; a run at the bound takes at most about 2 s (at
    # d = 1) on a 2-core box.
    "MAX_PAIR_COORDINATES": 1 << 28,
    # Sign products of a whole set-mode run, seeds * count^2 * d: 2^37 is the
    # largest single set the count and coordinate guards admit (2^14 vectors
    # at d = 512), whose audit takes about 4 s single-threaded on a 2-core box.
    "MAX_AUDIT_PRODUCTS": 1 << 37,
    # Vectors of a Gram dominance check, which forms their float64 Gram and its
    # SVD: about 0.7 s single-threaded at 2^10 vectors on a 2-core box (the
    # largest count in use is 4).
    "GRAM_MAX_COUNT": 1 << 10,
    # Work guard on set mode's audited sets: each costs at least about 0.2 ms on
    # a 2-core box, so the seeds loop takes no more than about 0.3 s of overhead.
    "MAX_SEEDS": 1 << 10,
}


def check(name: str, size: int, what: str) -> None:
    """Raise ``CapabilityError`` if ``size`` is above the guard ``name``.

    The message is built only then.  A size wider than 64 bits is shown as
    the power of two it reaches, never in full.
    """
    limit = GUARDS[name]
    if size > limit:
        shown = size if size < 1 << 64 else f"2^{int(size).bit_length() - 1} or more"
        raise CapabilityError(f"{what} = {shown} is above the guard {name} = {limit}")
