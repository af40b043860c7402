"""Three-party simultaneous-message-passing equality protocols.

Alice and Bob hold n-bit inputs x and y and each send one message to a
referee, who outputs "equal" or "unequal":

* quantum     — both send code fingerprints; the referee repeats the
                controlled-swap test k times and says unequal on any hit.
* shared-key  — both send the codeword bits at r shared random positions.
* mixture     — both send one (position, bit) pair at independent random
                positions: the classical-mixture failure mode, where the
                informative collision happens with probability 1/m.

A seeded block engine runs trials in blocks, one generator per block: a
block's inputs are arrays, and each verdict is one uniform draw against
the protocol's accept law at the pair's exact codeword agreement.  Messages
stay (B, ceil(n/64)) uint64 words, the layout of ``codes._words``, from draw
to verdict.  Reports carry the same law at the certified agreement bound.
``_PROTOCOLS`` is each protocol's one record: the repetition count it reads,
its ``message_costs`` entry and its accept law, each stated there once.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from fractions import Fraction
from math import sqrt

import numpy as np

from .codes import (
    BinaryCode,
    _agreements,
    _check_bits,
    _words,
    agreement_fraction,
    certify_distance,
)
from .errors import ConfigError
from .guards import check
from .permtest import _power_float
from .qstate import qubits_required
from .swaptest import _swap_p_one


# Protocol -> (the repetition count it reads, its key in message_costs, its
# accept law in (a, m, count): the referee's chance of saying equal on a pair
# whose codewords agree at a of m bits, exact for a Fraction a and int m and
# float64 for float64 ones).  A protocol that reads no count has no theory bound.
_PROTOCOLS = {
    # all k swap tests measure 0
    "quantum": ("k", "quantum_qubits", lambda a, m, k: (1 - _swap_p_one(a, m)) ** k),
    # the codewords agree at all r shared positions
    "shared-key": ("r", "shared_key_message_bits", lambda a, m, r: (a / m) ** r),
    # the two independent positions collide, with chance 1/m (the failure
    # mode on display), and the bits there agree
    "mixture": (None, "mixture_bits", lambda a, m, _: a / (m * m)),
}
PROTOCOLS = tuple(_PROTOCOLS)
PAIR_SOURCES = ("random-pairs", "forced-equal", "forced-unequal", "adversarial-list")


def accept_probability(protocol_id: str, agree, m, reps: int | None):
    """The referee's chance of saying equal on a pair agreeing at a of m bits."""
    return _PROTOCOLS[protocol_id][2](agree, m, reps)


def quantum_accept_probability(code: BinaryCode, x: str, y: str) -> Fraction:
    """Exact per-repetition accept probability p_eq(1, <h_x|h_y>)."""
    agree = agreement_fraction(code, x, y) * code.m
    return accept_probability("quantum", agree, code.m, 1)


def message_costs(code: BinaryCode, k: int = 1, r: int = 1) -> dict:
    """Side-by-side per-party cost summary across all protocols."""
    idx_bits = (code.m - 1).bit_length()
    return {
        "trivial_bits": code.n,
        "shared_key_message_bits": r,
        "shared_key_key_bits": r * idx_bits,
        "quantum_qubits": k * qubits_required(code),
        "mixture_bits": idx_bits + 1,
    }


@dataclass(frozen=True)
class ExperimentReport:
    """Aggregated seeded Monte Carlo verdicts with theory values alongside."""

    protocol_id: str
    code: dict
    n: int
    trials: int
    seed: int
    pair_source: str
    params: dict
    trials_equal: int
    trials_unequal: int
    empirical_error_equal: float | None
    empirical_error_unequal: float | None
    theory_error_bound: float | None
    confidence_radius: float | None
    message_cost: dict

    def to_json(self) -> dict:
        """A fresh dict of the fields; the code, params and cost dicts are shared."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def to_csv(self) -> str:
        """The flat projection: a header line and one row, in column order."""
        columns = {
            "protocol_id": self.protocol_id, "code_kind": self.code["kind"],
            "n": self.n, "m": self.code["m"],
            "k": self.params.get("k", ""), "r": self.params.get("r", ""),
            "pair_source": self.pair_source, "trials": self.trials,
            "trials_equal": self.trials_equal,
            "trials_unequal": self.trials_unequal,
            "empirical_error_equal": self.empirical_error_equal,
            "empirical_error_unequal": self.empirical_error_unequal,
            "theory_error_bound": self.theory_error_bound,
            "confidence_radius": self.confidence_radius,
            "cost_alice": self.message_cost.get("alice"),
            "cost_bob": self.message_cost.get("bob"), "seed": self.seed,
        }
        row = ("" if v is None else repr(v) if isinstance(v, float) else str(v)
               for v in columns.values())
        return ",".join(columns) + "\n" + ",".join(row) + "\n"


def _theory_bound(protocol_id: str, code: BinaryCode,
                  reps: int | None) -> float | None:
    """The accept law at the certified agreement bound, as a float."""
    reps_name, _, law = _PROTOCOLS[protocol_id]
    if reps_name is None:
        return None
    agree = certify_distance(code).max_agreement * code.m
    return _power_float(law(agree, code.m, 1), reps)


def _sample_pairs(rng: np.random.Generator, pair_source: str, n: int, size: int,
                  t0: int, table) -> tuple[np.ndarray, np.ndarray]:
    """Inputs of trials t0 .. t0+size-1 as two (size, ceil(n/64)) word arrays.

    Each message is ceil(n/64) full-range uint64 words with the top word
    masked to n bits.  x is drawn first, then y; under ``forced-unequal``
    the rows where y equals x are redrawn, until none is left.
    """
    if pair_source == "adversarial-list":
        rows = (t0 + np.arange(size)) % len(table[0])
        return table[0][rows], table[1][rows]
    top = np.uint64(2**64 - 1 >> -n % 64)

    def draw(rows):
        words = rng.integers(0, 2**64, (rows, -(-n // 64)), dtype=np.uint64)
        words[:, -1] &= top
        return words

    x = draw(size)
    if pair_source == "forced-equal":
        return x, x
    y = draw(size)
    if pair_source == "forced-unequal":
        same = (x == y).all(axis=1)
        while same.any():
            y[same] = draw(int(same.sum()))
            same = (x == y).all(axis=1)
    return x, y


def _block_accepts(law, code: BinaryCode, x: np.ndarray, y: np.ndarray,
                   rng: np.random.Generator, reps: int | None) -> np.ndarray:
    """The referee's verdicts on one block of pairs: True where it says equal.

    One uniform per trial against the law; agreements become floats before
    m + a is formed, since it reaches 2^64 at hadamard n = 63.
    """
    agree = _agreements(code, x, y).astype(np.float64)
    return rng.random(len(x)) < law(agree, float(code.m), reps)


# Trials per block; each block draws from its own generator.  At 4096 the
# kernel's intermediates take at most 128 KB, and 6000 in-process smp-run
# requests peak about 0.5 MB higher in RSS than at 256.
BLOCK = 4096


def run_experiment(
    protocol_id: str,
    code: BinaryCode,
    trials: int,
    pair_source: str,
    seed: int,
    k: int | None = None,
    r: int | None = None,
    pairs: list[tuple[str, str]] | None = None,
) -> ExperimentReport:
    """Run ``trials`` seeded protocol executions and aggregate error rates.

    Trials run in blocks of ``BLOCK``; each block gets its own generator
    derived from (seed, block index) and draws its inputs and one uniform
    per trial as arrays, so reports are reproducible and blocks could run in
    any order.  The adversarial-list source cycles deterministically through
    the supplied pairs by trial index; the other sources draw inputs from
    the block generator.  No key or coin is drawn: each verdict samples the
    pair's exact accept law.  A ``k``, ``r`` or ``pairs`` that the protocol
    or pair source does not read raises ``ConfigError``; ``trials`` above
    ``guards.MAX_TRIALS``, a ``k`` or ``r`` above ``guards.MAX_REPETITIONS``,
    or a code past the certification guard raises ``CapabilityError``,
    before any trial runs.  The code is certified only for a protocol with a
    theory bound: a mixture run certifies nothing.
    """
    if protocol_id not in PROTOCOLS:
        raise ConfigError(f"unknown protocol {protocol_id!r}; expected {PROTOCOLS}")
    if pair_source not in PAIR_SOURCES:
        raise ConfigError(
            f"unknown pair source {pair_source!r}; expected {PAIR_SOURCES}"
        )
    if trials < 1:
        raise ConfigError(f"trials must be >= 1, got {trials}")
    check("MAX_TRIALS", trials, "trials (--trials)")
    reps_name, cost_key, law = _PROTOCOLS[protocol_id]
    counts = {"k": k, "r": r}
    for owner, (name, *_) in _PROTOCOLS.items():
        if name not in (None, reps_name) and counts[name] is not None:
            raise ConfigError(f"{name} (--{name}) is only read by the {owner} "
                              "protocol")
    reps = counts.get(reps_name)
    if reps_name and (reps is None or reps < 1):
        raise ConfigError(f"{protocol_id} protocol needs {reps_name} >= 1")
    if reps_name:
        check("MAX_REPETITIONS", reps, f"{reps_name} (--{reps_name})")
    table = None
    if pair_source == "adversarial-list":
        if not pairs:
            raise ConfigError("adversarial-list pair source needs explicit pairs")
        table = tuple(
            np.stack([
                _words(_check_bits(p[side], code.n, f"pairs[{i}] (--pair) {name}"))
                for i, p in enumerate(pairs)])
            for side, name in ((0, "x"), (1, "y"))
        )
    elif pairs:
        raise ConfigError("pairs (--pair) is only read by the adversarial-list "
                          "pair source")
    # Certification may hit its capability guard: fail before any trial runs.
    bound = _theory_bound(protocol_id, code, reps)

    n_equal = wrong_equal = wrong_unequal = 0
    for block, t0 in enumerate(range(0, trials, BLOCK)):
        rng = np.random.default_rng(np.random.SeedSequence((seed, block)))
        x, y = _sample_pairs(rng, pair_source, code.n,
                             min(BLOCK, trials - t0), t0, table)
        accept = _block_accepts(law, code, x, y, rng, reps)
        equal = (x == y).all(axis=1)
        n_equal += int(equal.sum())
        wrong_equal += int((equal & ~accept).sum())
        wrong_unequal += int((~equal & accept).sum())
    n_unequal = trials - n_equal

    err_eq = wrong_equal / n_equal if n_equal else None
    err_ne = wrong_unequal / n_unequal if n_unequal else None
    err, count = (err_ne, n_unequal) if n_unequal else (err_eq, n_equal)
    params = {reps_name: reps} if reps_name else {}
    cost = message_costs(code, **params)[cost_key]
    return ExperimentReport(
        protocol_id=protocol_id,
        code=code.to_json(),
        n=code.n,
        trials=trials,
        seed=seed,
        pair_source=pair_source,
        params=params,
        trials_equal=n_equal,
        trials_unequal=n_unequal,
        empirical_error_equal=err_eq,
        empirical_error_unequal=err_ne,
        theory_error_bound=bound,
        confidence_radius=3.0 * sqrt(err * (1.0 - err) / count),
        message_cost={"alice": cost, "bob": cost},
    )
