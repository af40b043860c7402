"""Workload definitions and output checks for the qfplab benchmark.

A workload is a fixed list of ``qfplab`` CLI requests generated from the
benchmark seed; the program only ever sees the generated argv.  Every
report is checked against exact expectations computed here, independently
of the program, and a failed check counts the request as failed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import ceil, comb, exp, factorial, log2, sqrt
from math import e as _E

import numpy as np

# Radius, in binomial standard deviations, of every Monte Carlo rate check.
SIGMAS = 5.0


@dataclass(frozen=True)
class Request:
    """One CLI invocation: argv without --out, and its Monte Carlo draw count."""

    kind: str
    argv: tuple[str, ...]
    draws: int = 0


@dataclass(frozen=True)
class Workload:
    name: str
    requests: tuple[Request, ...]
    warmup: tuple[str, ...]
    # (n, c, code_seed) of each random-linear code the requests use.
    linear_codes: tuple[tuple[int, int, int], ...] = ()


def _bits(rng: random.Random, n: int) -> str:
    return format(rng.getrandbits(n), f"0{n}b")


def _distinct_bits(rng: random.Random, n: int) -> tuple[str, str]:
    x = _bits(rng, n)
    y = x
    while y == x:
        y = _bits(rng, n)
    return x, y


def _smp(rng, kind, protocol, source, trials, *extra) -> Request:
    argv = ("smp-run", "--protocol", protocol, *extra, "--trials", str(trials),
            "--pair-source", source, "--seed", str(rng.randrange(2**31)))
    return Request(f"smp-run {kind}", argv, trials)


def smp_n8(seed: int) -> Workload:
    rng = random.Random(f"smp-n8/{seed}")
    code_seed = rng.randrange(10**6)
    h8 = ("--n", "8")
    rl12 = ("--code", "random-linear", "--n", "12", "--c", "3",
            "--code-seed", str(code_seed))
    # trial counts put every request within about 15% of 260 ms on the
    # reference machine, so the request-time quantiles do not sit on a gap
    # between request kinds
    requests = (
        _smp(rng, "quantum k5 forced-unequal", "quantum", "forced-unequal", 1200,
             *h8, "--k", "5"),
        _smp(rng, "quantum k10 forced-unequal", "quantum", "forced-unequal", 1200,
             *h8, "--k", "10"),
        _smp(rng, "quantum k5 random-pairs", "quantum", "random-pairs", 1200,
             *h8, "--k", "5"),
        _smp(rng, "shared-key r10 forced-unequal", "shared-key", "forced-unequal",
             3000, *h8, "--r", "10"),
        _smp(rng, "mixture forced-equal", "mixture", "forced-equal", 5000, *h8),
        _smp(rng, "shared-key r10 random-linear n12", "shared-key", "random-pairs",
             2500, *rl12, "--r", "10"),
    )
    return Workload(
        name="smp-n8",
        requests=requests,
        warmup=("smp-run", "--protocol", "quantum", "--n", "8", "--k", "5",
                "--trials", "50", "--pair-source", "forced-unequal"),
        linear_codes=((12, 3, code_seed),),
    )


def smp_wide(seed: int) -> Workload:
    rng = random.Random(f"smp-wide/{seed}")
    code_seed = rng.randrange(10**6)
    rl20 = ("--code", "random-linear", "--n", "20", "--c", "3",
            "--code-seed", str(code_seed))
    requests = (
        _smp(rng, "quantum n14", "quantum", "forced-unequal", 200,
             "--n", "14", "--k", "5"),
        _smp(rng, "quantum n16", "quantum", "forced-unequal", 10,
             "--n", "16", "--k", "5"),
        _smp(rng, "shared-key random-linear n20", "shared-key", "forced-unequal",
             500, *rl20, "--r", "10"),
        Request("codes hadamard n16", ("codes", "--n", "16")),
        Request("codes random-linear n20", ("codes", *rl20)),
    )
    return Workload(
        name="smp-wide",
        requests=requests,
        warmup=("codes", "--n", "12"),
        linear_codes=((20, 3, code_seed),),
    )


def oracles(seed: int) -> Workload:
    rng = random.Random(f"oracles/{seed}")
    requests = []
    for n in (5, 7, 9, 9):
        x, y = _distinct_bits(rng, n)
        requests.append(Request(
            f"swap-test n{n}",
            ("swap-test", "--n", str(n), "--x", x, "--y", y,
             "--trials", "20000", "--seed", str(rng.randrange(2**31))),
            20000))
    gammas = [round(rng.uniform(0.05, 0.95), 3) for _ in range(3)]
    # one projection at k=4 costs about 40 times one at k=3; the n=9 swap
    # tests and k=4 projections are doubled so that no one of swaptest,
    # permtest and nearset takes more than half of the request time
    for k in (1, 2, 3, 4):
        for gamma in gammas if k < 4 else gammas[:2]:
            requests.append(Request(
                f"perm-test k{k}",
                ("perm-test", "--k", str(k), "--gamma", str(gamma),
                 "--trials", "20000", "--seed", str(rng.randrange(2**31))),
                20000))
    requests.append(Request(
        "nearset n8 sets",
        ("nearset", "--n", "8", "--delta", "0.25", "--seeds", "3",
         "--gram-size", "4", "--seed", str(rng.randrange(2**31)))))
    requests.append(Request(
        "nearset n11 set",
        ("nearset", "--n", "11", "--delta", "0.6",
         "--seed", str(rng.randrange(2**31)))))
    requests.append(Request(
        "nearset pairs",
        ("nearset", "--pair-mode", "--d", "800", "--delta", "0.1",
         "--pairs", "20000", "--seed", str(rng.randrange(2**31))),
        20000))
    return Workload(
        name="oracles",
        requests=tuple(requests),
        warmup=("perm-test", "--k", "2", "--gamma", "0.5", "--trials", "100"),
    )


WORKLOADS = {"smp-n8": smp_n8, "smp-wide": smp_wide, "oracles": oracles}


# --- independent references -------------------------------------------------

def generator_rows(generator: np.ndarray) -> list[int]:
    """Row bit-masks of a generator, bit j = column j (LSB first)."""
    return [sum(int(b) << j for j, b in enumerate(row)) for row in generator]


def min_distance(generator: np.ndarray) -> int:
    """Minimum weight over all nonzero codewords, by direct enumeration.

    Codewords are packed into uint64 (m <= 64) and enumerated in chunks so
    that the reference adds little to the workload's peak memory.
    """
    m, n = generator.shape
    if m > 64:
        raise ValueError("reference enumeration packs codewords into 64 bits")
    shifts = np.arange(m, dtype=np.uint64)
    columns = [int((generator[:, j].astype(np.uint64) << shifts).sum())
               for j in range(n)]
    best = m
    chunk = 1 << 14
    for start in range(1, 1 << n, chunk):
        msgs = np.arange(start, min(start + chunk, 1 << n), dtype=np.uint64)
        words = np.zeros(msgs.size, dtype=np.uint64)
        for j, col in enumerate(columns):
            bit = (msgs >> np.uint64(j)) & np.uint64(1)
            words ^= bit * np.uint64(col)
        best = min(best, int(np.bitwise_count(words).min()))
    return best


def p_eq_reference(k: int, gamma: float) -> Fraction:
    """(k!)^2/(2k)! * sum_j C(k,j)^2 gamma^(2j), exact in the float's rational."""
    g2 = Fraction(gamma) ** 2
    return Fraction(factorial(k) ** 2, factorial(2 * k)) * sum(
        comb(k, j) ** 2 * g2**j for j in range(k + 1))


# --- output checks ----------------------------------------------------------

def _sigma(p: float, n: int) -> float:
    return sqrt(max(p * (1.0 - p), 0.0) / n)


def _rate_near(problems, label, observed, expected, n):
    if observed is None or abs(observed - expected) > SIGMAS * _sigma(expected, n):
        problems.append(f"{label} = {observed!r}, expected {expected!r} "
                        f"within {SIGMAS:g} sigma over {n}")


def _rate_at_most(problems, label, observed, bound, n):
    if observed is None or observed > bound + SIGMAS * _sigma(min(bound, 1.0), n):
        problems.append(f"{label} = {observed!r} above {bound!r} "
                        f"+ {SIGMAS:g} sigma over {n}")


class Checker:
    """Checks parsed reports; holds the references the checks need.

    ``codes`` maps (n, c, code_seed) to the random-linear codes built with
    the program's public constructor during set-up.  Their minimum
    distances are enumerated here, so build the checker outside timing.
    """

    def __init__(self, codes: dict):
        self._codes = codes
        self._distance = {key: min_distance(code.generator)
                          for key, code in codes.items()}

    def _linear_reference(self, config: dict):
        key = (config["n"], config["c"], config["code_seed"])
        return self._codes[key], self._distance[key]

    def _max_agreement(self, config: dict, code_json: dict, problems) -> Fraction:
        if config["code"] == "hadamard":
            return Fraction(1, 2)
        code, dist = self._linear_reference(config)
        rows = [format(r, f"0{(code.n + 3) // 4}x")
                for r in generator_rows(code.generator)]
        if code_json.get("generator") != rows:
            problems.append("report generator differs from the built code")
        return 1 - Fraction(dist, code.m)

    def check(self, report: dict) -> list[str]:
        """Problems found in one report; empty when it is correct."""
        command = report.get("command")
        handler = {
            "smp-run": self._smp_run,
            "codes": self._codes_report,
            "swap-test": self._swap_test,
            "perm-test": self._perm_test,
            "nearset": self._nearset,
        }.get(command)
        if handler is None:
            return [f"unexpected command {command!r}"]
        problems: list[str] = []
        try:
            handler(report["config"], report["results"], problems)
        except (KeyError, TypeError, ValueError) as exc:
            problems.append(f"malformed report: {exc!r}")
        return problems

    def _smp_run(self, config, res, problems):
        protocol, source = config["protocol"], config["pair_source"]
        trials = config["trials"]
        n_eq, n_ne = res["trials_equal"], res["trials_unequal"]
        if n_eq + n_ne != trials:
            problems.append(f"{n_eq} + {n_ne} trials != {trials}")
        if (source == "forced-unequal" and n_eq) or (source == "forced-equal" and n_ne):
            problems.append(f"{source} produced the wrong kind of pair")
        err_eq, err_ne = res["empirical_error_equal"], res["empirical_error_unequal"]
        if protocol in ("quantum", "shared-key") and n_eq and err_eq != 0:
            problems.append(f"one-sided error broken: equal-input error {err_eq!r}")
        delta = self._max_agreement(config, res["code"], problems)
        hadamard = config["code"] == "hadamard"
        if protocol == "mixture":
            m = res["code"]["m"]
            if n_eq:
                _rate_near(problems, "mixture equal-accept rate",
                           None if err_eq is None else 1.0 - err_eq, 1.0 / m, n_eq)
            return
        if protocol == "quantum":
            bound = ((1 + delta * delta) / 2) ** config["k"]
        else:
            bound = delta ** config["r"]
        if res["theory_error_bound"] is None or \
                abs(res["theory_error_bound"] - float(bound)) > 1e-12:
            problems.append(f"theory_error_bound {res['theory_error_bound']!r} "
                            f"!= {float(bound)!r}")
        if n_ne:
            # every distinct hadamard pair agrees on exactly half the positions
            if hadamard:
                _rate_near(problems, "unequal-input error", err_ne, float(bound), n_ne)
            else:
                _rate_at_most(problems, "unequal-input error", err_ne,
                              float(bound), n_ne)

    def _codes_report(self, config, res, problems):
        cert = res["certificate"]
        m = res["code"]["m"]
        if config["code"] == "hadamard":
            expected = 2 ** (config["n"] - 1)
        else:
            self._max_agreement(config, res["code"], problems)
            expected = self._linear_reference(config)[1]
        if cert["min_distance"] != expected:
            problems.append(f"min_distance {cert['min_distance']} != {expected}")
        if Fraction(cert["max_agreement"]) != 1 - Fraction(expected, m):
            problems.append(f"max_agreement {cert['max_agreement']} inconsistent")
        if res["qubits_required"] != (m - 1).bit_length() + 1:
            problems.append(f"qubits_required {res['qubits_required']} wrong")

    def _swap_test(self, config, res, problems):
        # distinct hadamard messages: overlap g = 1/2, so p_one = (1 - g^2)/2
        p = float((1 - Fraction(1, 4)) / 2)
        if config["x"] == config["y"]:
            problems.append("swap-test workload needs x != y")
        if abs(res["analytic"]["p_one"] - p) > 1e-12:
            problems.append(f"analytic p_one {res['analytic']['p_one']!r} != {p}")
        circuit = res.get("circuit", {})
        if "p_one" not in circuit or abs(circuit["p_one"] - p) > 1e-10:
            problems.append(f"circuit p_one {circuit!r} not within 1e-10 of {p}")
        if config.get("trials"):
            sampled = res.get("sampled", {})
            _rate_near(problems, "sampled p_one", sampled.get("p_one"), p,
                       config["trials"])

    def _perm_test(self, config, res, problems):
        k, gamma = config["k"], config["gamma"]
        exact = float(p_eq_reference(k, gamma))
        closed = res["closed_form"]
        if abs(closed - exact) > 1e-12:
            problems.append(f"closed form {closed!r} != reference {exact!r}")
        bounds = res["bounds"]
        if not bounds["lower"] <= closed <= bounds["upper"]:
            problems.append(f"closed form {closed!r} outside {bounds!r}")
        projection = res.get("projection")
        if not isinstance(projection, float) or abs(projection - exact) > 1e-9:
            problems.append(f"projection {projection!r} not within 1e-9 of {exact!r}")
        if config.get("trials"):
            sampled = res.get("sampled", {})
            _rate_near(problems, "sampled p_equal", sampled.get("p_equal"), exact,
                       config["trials"])

    def _nearset(self, config, res, problems):
        delta = config["delta"]
        if res["mode"] == "pairs":
            audit = res["audit"]
            pairs = config["pairs"]
            if audit["total_pairs"] != pairs:
                problems.append(f"total_pairs {audit['total_pairs']} != {pairs}")
            bound = 2.0 * exp(-delta**2 * config["d"] / 2.0)
            if abs(audit["chernoff_bound"] - bound) > 1e-12:
                problems.append(f"chernoff_bound {audit['chernoff_bound']!r} "
                                f"!= {bound!r}")
            _audit_consistent(problems, audit)
            _rate_at_most(problems, "pair violation rate",
                          audit["violating_pairs"] / pairs, bound, pairs)
            return
        d = ceil(4.0 * config["n"] / (delta * delta * log2(_E)))
        count = 2 ** config["n"]
        if res["required_dimension"] != d or res["count"] != count:
            problems.append(f"set size {res['count']} or dimension "
                            f"{res['required_dimension']} wrong")
        if len(res["audits"]) != config["seeds"]:
            problems.append(f"{len(res['audits'])} audits for {config['seeds']} seeds")
        for audit in res["audits"]:
            if audit["total_pairs"] != comb(count, 2):
                problems.append(f"total_pairs {audit['total_pairs']} != C({count},2)")
            _audit_consistent(problems, audit)
        clean = all(a["violating_pairs"] == 0 for a in res["audits"])
        if res["all_clean"] != clean:
            problems.append("all_clean disagrees with the audits")
        gram = res.get("gram")
        if gram is not None and gram["dominant"] and gram["rank"] != config["gram_size"]:
            problems.append(f"dominant Gram matrix of rank {gram['rank']}")


def _audit_consistent(problems, audit):
    """violating_pairs == 0 exactly when max |overlap| <= delta (exact)."""
    d = audit["d"]
    max_num = round(audit["max_abs_overlap"] * d)
    within = Fraction(max_num, d) <= Fraction(audit["delta"])
    if within != (audit["violating_pairs"] == 0):
        problems.append(f"violating_pairs {audit['violating_pairs']} but max "
                        f"overlap {audit['max_abs_overlap']!r} vs {audit['delta']!r}")
