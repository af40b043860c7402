"""Command-line frontend: reproducible experiments, machine-readable reports.

Subcommands: swap-test, perm-test, smp-run, nearset, codes.  JSON is the
canonical output format; CSV is a flat projection that only smp-run
offers.  Exit codes: 0 success, 2 usage or configuration error, 3
capability-guard error.  An argv that opens with a subcommand's name is
parsed by that subcommand's parser alone, in one pass; the top-level parser
reads ``--version``, ``-h`` and a missing or unknown subcommand.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from . import __version__
from .codes import (
    BinaryCode,
    _check_bits,
    certify_distance,
    hadamard_code,
    random_linear_code,
)
from .errors import CapabilityError, QfpError
from .guards import check
from .nearset import (
    audit_overlaps,
    gram_dominance_check,
    required_dimension,
    sample_pair_audit,
    sample_vector_set,
)
from .permtest import (
    distinguisher_lower_bound,
    overlap_qubit_pair,
    p_eq_asymptotic,
    p_eq_closed_form,
    p_eq_projection,
    p_eq_upper_bound,
    sample_rate,
)
from .protocols import PAIR_SOURCES, PROTOCOLS, message_costs, run_experiment
from .qstate import make_fingerprint, qubits_required
from .swaptest import swap_test_analytic, swap_test_circuit

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_CAPABILITY = 3

# Defaults of flags that some modes do not read; another value there exits 2.
# --seed and --code-seed share theirs.
_DEFAULT_C, _DEFAULT_SEED, _DEFAULT_PAIRS = 3, 0, 100000


def _canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _emit(report: dict, args: argparse.Namespace, csv_text: str | None = None):
    if args.format == "csv":
        text = csv_text
    elif args.format == "table":
        text = _as_table(report)
    else:
        text = _canonical_json(report)
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise QfpError(f"cannot write --out {args.out!r}: {exc.strerror}") from exc
    else:
        sys.stdout.write(text)


def _as_table(report: dict, prefix: str = "") -> str:
    lines = []
    for key in sorted(report):
        value = report[key]
        if isinstance(value, dict):
            lines.append(f"{prefix}{key}:")
            lines.append(_as_table(value, prefix + "  "))
        else:
            lines.append(f"{prefix}{key}: {value}")
    return "\n".join(line for line in lines if line) + ("\n" if not prefix else "")


def _wrap(command: str, args: argparse.Namespace, results: dict) -> dict:
    config = {
        key: value
        for key, value in sorted(vars(args).items())
        if key not in ("func", "out", "format") and value is not None
    }
    return {
        "version": __version__,
        "command": command,
        "config": config,
        "results": results,
    }


def _build_code(args: argparse.Namespace) -> BinaryCode:
    if args.code == "hadamard":
        if (args.c, args.code_seed) != (_DEFAULT_C, _DEFAULT_SEED):
            raise QfpError("--c and --code-seed are only read with "
                           "--code random-linear")
        return hadamard_code(args.n)
    return random_linear_code(args.n, args.c, args.code_seed)


def _seed(text: str) -> int:
    """argparse type of --seed and --code-seed; NumPy seeds are never negative."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _add_code_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--code", choices=("hadamard", "random-linear"),
                        default="hadamard")
    parser.add_argument("--n", type=int, required=True,
                        help="message length in bits")
    parser.add_argument("--c", type=int, default=_DEFAULT_C,
                        help="codeword length multiple for random-linear")
    parser.add_argument("--code-seed", type=_seed, default=_DEFAULT_SEED,
                        help="generator sampling seed for random-linear")


def _add_io_flags(parser: argparse.ArgumentParser,
                  formats: tuple[str, ...] = ("json", "table")) -> None:
    parser.add_argument("--seed", type=_seed, default=_DEFAULT_SEED,
                        help="master seed")
    parser.add_argument("--format", choices=formats, default="json")
    parser.add_argument("--out", help="write the report to this path")


def cmd_swap_test(args: argparse.Namespace) -> int:
    if args.x_equals_y and args.y is not None:
        raise QfpError("--y is not read with --x-equals-y")
    if args.seed != _DEFAULT_SEED and not args.trials:
        raise QfpError("--seed is only read with --trials")
    code = _build_code(args)
    x = _check_bits(args.x, code.n, "--x")
    y = x if args.x_equals_y else _check_bits(args.y, code.n, "--y")
    fx, fy = make_fingerprint(code, x), make_fingerprint(code, y)
    analytic = swap_test_analytic(fx.state, fy.state)
    results: dict = {"analytic": analytic.to_json()}
    try:
        circuit = swap_test_circuit(fx.state, fy.state)
        results["circuit"] = circuit.to_json()
        results["circuit_vs_analytic"] = abs(circuit.p_one - analytic.p_one)
    except CapabilityError as exc:
        results["circuit"] = {"skipped": str(exc)}
    if args.trials:
        p_one = sample_rate(analytic.p_one, args.trials, args.seed)
        results["sampled"] = {"p_one": p_one, "method": "sampled",
                              "trials": args.trials}
        results["sampled_vs_analytic"] = abs(p_one - analytic.p_one)
    _emit(_wrap("swap-test", args, results), args)
    return EXIT_OK


def cmd_perm_test(args: argparse.Namespace) -> int:
    gamma = args.gamma
    if args.seed != _DEFAULT_SEED and not args.trials:
        raise QfpError("--seed is only read with --trials")
    if not 0.0 <= gamma <= 1.0:
        raise QfpError(f"--gamma must lie in [0,1], got {gamma}")
    results: dict = {
        "k": args.k,
        "gamma": gamma,
        "closed_form": float(p_eq_closed_form(args.k, gamma)),
        "bounds": {
            "lower": float(distinguisher_lower_bound(args.k, gamma)),
            "upper": float(p_eq_upper_bound(args.k, gamma)),
            "asymptotic": p_eq_asymptotic(args.k, gamma),
        },
    }
    phi, psi = overlap_qubit_pair(gamma)
    try:
        results["projection"] = projection = p_eq_projection(phi, psi, args.k)
    except CapabilityError as exc:
        results["projection"] = {"skipped": str(exc)}
    else:
        if args.trials:
            results["sampled"] = {
                "p_equal": sample_rate(projection, args.trials, args.seed),
                "trials": args.trials,
            }
    _emit(_wrap("perm-test", args, results), args)
    return EXIT_OK


def cmd_smp_run(args: argparse.Namespace) -> int:
    code = _build_code(args)
    pairs = []
    for item in args.pair or ():
        if ":" not in item:
            raise QfpError(f"--pair expects X:Y bit-strings, got {item!r}")
        pairs.append(tuple(item.split(":", 1)))
    report = run_experiment(
        args.protocol, code, args.trials, args.pair_source, args.seed,
        k=args.k, r=args.r, pairs=pairs,
    )
    wrapped = _wrap("smp-run", args, report.to_json())
    wrapped["results"]["message_cost_summary"] = message_costs(code, **report.params)
    _emit(wrapped, args,
          csv_text=report.to_csv() if args.format == "csv" else None)
    return EXIT_OK


def cmd_nearset(args: argparse.Namespace) -> int:
    if args.pair_mode:
        if (args.n, args.count, args.gram_size, args.seeds) != (None, None, 0, 1):
            raise QfpError("--n, --count, --gram-size and --seeds are only "
                           "read in set mode, without --pair-mode")
        if args.d is None:
            raise QfpError("--pair-mode requires --d")
        audit = sample_pair_audit(args.pairs, args.d, args.delta, args.seed)
        results: dict = {"mode": "pairs", "audit": audit.to_json()}
    else:
        if args.pairs != _DEFAULT_PAIRS:
            raise QfpError("--pairs is only read with --pair-mode")
        if args.n is None:
            raise QfpError("set mode requires --n")
        if args.n < 1:  # n and delta are checked before any draw
            raise QfpError(f"--n must be >= 1, got {args.n}")
        if not 0.0 < args.delta < 1.0:
            raise QfpError(f"--delta must lie in (0,1), got {args.delta}")
        if args.seeds < 1:
            raise QfpError(f"--seeds must be >= 1, got {args.seeds}")
        check("MAX_SEEDS", args.seeds, "--seeds")
        if args.gram_size < 0 or args.gram_size == 1:
            raise QfpError(f"--gram-size must be 0 or >= 2, got {args.gram_size}")
        d = args.d if args.d is not None else required_dimension(args.n, args.delta)
        # n is capped before 2^n is formed
        count = args.count if args.count is not None else 2 ** min(args.n, 64)
        check("AUDIT_MAX_COUNT", count, f"set mode's vector count (--count, or "
              f"2^n at --n {args.n})")
        # the whole run is checked before its first set, and one set's own
        # guards before the run's, so a set too wide names its own guard
        check("MAX_COORDINATES", count * d, "the coordinates count * d of a set")
        check("MAX_AUDIT_PRODUCTS", args.seeds * count * count * d,
              "set mode's sign products --seeds * count^2 * d")
        check("GRAM_MAX_COUNT", args.gram_size, "--gram-size")
        root = np.random.SeedSequence(args.seed)
        audits = []
        for child in root.spawn(args.seeds):
            vset = sample_vector_set(count, d, child)
            audits.append(audit_overlaps(vset, args.delta).to_json())
        results = {
            "mode": "set",
            "required_dimension": d,
            "count": count,
            "audits": audits,
            "all_clean": all(a["violating_pairs"] == 0 for a in audits),
        }
        if args.gram_size:
            vset = sample_vector_set(args.gram_size, d, root.spawn(1)[0])
            gram = gram_dominance_check(vset.vectors(), args.delta)
            results["gram"] = {"dominant": gram.dominant, "rank": gram.rank}
    _emit(_wrap("nearset", args, results), args)
    return EXIT_OK


def cmd_codes(args: argparse.Namespace) -> int:
    if args.seed != _DEFAULT_SEED:
        raise QfpError("--seed is not read by codes; a random-linear code "
                       "reads --code-seed")
    code = _build_code(args)
    cert = certify_distance(code)
    results = {
        "code": code.to_json(),
        "certificate": cert.to_json(),
        "qubits_required": qubits_required(code),
        "max_agreement_float": float(cert.max_agreement),
    }
    _emit(_wrap("codes", args, results), args)
    return EXIT_OK


# Built once per process: a parser holds hundreds of reference cycles
# (formatters, actions) that only a full garbage collection would free.
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qfplab",
        description="Quantum fingerprinting simulation laboratory",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("swap-test", help="run the comparison test three ways")
    _add_code_flags(p)
    p.add_argument("--x", required=True)
    p.add_argument("--y")
    p.add_argument("--x-equals-y", action="store_true",
                   help="compare x against itself")
    p.add_argument("--trials", type=int, default=0,
                   help="sampled-path trial count (0 skips sampling)")
    _add_io_flags(p)
    p.set_defaults(func=cmd_swap_test)

    p = sub.add_parser("perm-test", help="k-copy permutation test and bounds")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--gamma", type=float, required=True,
                   help="overlap magnitude of the two states")
    p.add_argument("--trials", type=int, default=0)
    _add_io_flags(p)
    p.set_defaults(func=cmd_perm_test)

    p = sub.add_parser("smp-run", help="Monte Carlo protocol experiment")
    p.add_argument("--protocol", choices=PROTOCOLS, required=True)
    _add_code_flags(p)
    p.add_argument("--k", type=int, help="swap-test repetitions (quantum)")
    p.add_argument("--r", type=int, help="shared indices (shared-key)")
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--pair-source", default="random-pairs",
                   choices=PAIR_SOURCES)
    p.add_argument("--pair", action="append",
                   help="X:Y bit-string pair for adversarial-list "
                        "(repeatable)")
    _add_io_flags(p, formats=("json", "csv", "table"))
    p.set_defaults(func=cmd_smp_run)

    p = sub.add_parser("nearset", help="random sign-vector overlap audits")
    p.add_argument("--n", type=int, help="message bits (set mode)")
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--d", type=int, help="dimension override")
    p.add_argument("--count", type=int, help="set size override (default 2^n)")
    p.add_argument("--seeds", type=int, default=1,
                   help="number of audited sets (set mode)")
    p.add_argument("--pair-mode", action="store_true")
    p.add_argument("--pairs", type=int, default=_DEFAULT_PAIRS,
                   help="sampled pair count (pair mode)")
    p.add_argument("--gram-size", type=int, default=0,
                   help="also run a Gram dominance/rank check of this many "
                        "vectors (0 skips it, else at least 2)")
    _add_io_flags(p)
    p.set_defaults(func=cmd_nearset)

    p = sub.add_parser("codes", help="print a code's distance certificate")
    _add_code_flags(p)
    _add_io_flags(p)
    p.set_defaults(func=cmd_codes)

    return parser


def _parse(argv: list[str]) -> argparse.Namespace:
    """The namespace ``build_parser().parse_args(argv)`` gives, in one pass.

    A subcommand's parser reads the rest of argv either way, so when argv
    opens with a subcommand's name its parser alone reads the rest; the top
    level parser reads everything else (``--version``, ``-h``, or a missing
    or unknown subcommand).
    """
    parser = build_parser()
    subcommands = next(action.choices for action in parser._actions
                       if isinstance(action, argparse._SubParsersAction))
    if argv and argv[0] in subcommands:
        args = subcommands[argv[0]].parse_args(argv[1:])
        args.subcommand = argv[0]
        return args
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else list(argv))
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except CapabilityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAPABILITY
    except QfpError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
