"""Every capability guard, driven at its boundary through a public call.

Each probe runs one call site of a guard at the guard's limit, where the
call must pass the guard, and one past it, where it must raise
``CapabilityError`` naming the guard and its limit; each within 1 s.  Where
the work after the guard would take longer or allocate much, a stub stands
in for it and raises ``PastTheGuard``.  The sizes are literals, so a limit
moved in the table, or a size misstated at a call site, fails here.
"""

import ast
import re
import time
from pathlib import Path

import numpy as np
import pytest

import qfplab
from qfplab import (
    BinaryCode,
    CapabilityError,
    InputShapeError,
    PureState,
    VectorSet,
    audit_overlaps,
    certify_distance,
    declared_code,
    encode,
    hadamard_code,
    make_fingerprint,
    p_eq_closed_form,
    p_eq_upper_bound,
    p_eq_projection,
    random_linear_code,
    run_experiment,
    sample_pair_audit,
    sample_rate,
    sample_vector_set,
    swap_test_circuit,
    tensor,
)
from qfplab import cli, codes, nearset, permtest, protocols
from qfplab.guards import GUARDS, check

README = Path(__file__).resolve().parents[1] / "README.md"


class PastTheGuard(Exception):
    """Raised by a stub standing in for the work after a guard."""


def past_the_guard(*args, **kwargs):
    raise PastTheGuard


def unit(dim: int) -> PureState:
    amps = np.zeros(dim)
    amps[0] = 1.0
    return PureState(amps, (dim,))


def ones_word(m: int):
    return lambda x: "1" * m


def state_dim_tensor(mp, over):
    # 2^22 = 4 * 2^20, and 2^22 + 1 = 5 * 838861
    a, b = (unit(5), unit(838861)) if over else (unit(4), unit(1 << 20))
    tensor(a, b)


def state_dim_swap_circuit(mp, over):
    # 2 D^2 never equals 2^22 or 2^22 + 1: the nearest sizes on each side
    # are D = 1448 (4193408) and D = 1449 (4199202)
    d = 1449 if over else 1448
    swap_test_circuit(unit(d), unit(d))


def state_dim_projection(mp, over):
    # d^(2k) at k = 1: 2048^2 = 2^22; 2049^2 has C(2, 1) 2049^2 = 8396802
    # transposed elements, far below MAX_PROJECTION_WORK, so only the
    # dimension half of the check refuses it
    mp.setattr(permtest, "reduce", past_the_guard)
    d = 2049 if over else 2048
    p_eq_projection(unit(d), unit(d), 1)


def projection_work(mp, over):
    # C(2k, k) d^(2k) never equals 2^26 or 2^26 + 1: the nearest sizes on
    # each side within the dimension guard are (d, k) = (12, 3), 59719680
    # elements, and (6, 4), 117573120 elements of dimension 6^8 = 1679616
    mp.setattr(permtest, "reduce", past_the_guard)
    d, k = (6, 4) if over else (12, 3)
    p_eq_projection(unit(d), unit(d), k)


def certify_words(mp, over):
    # one pair of messages, ceil(m/64) = 2^25 (+ 1) words each
    mp.setattr(codes, "_min_pairwise_distance", past_the_guard)
    m = 2**31 + 64 * over
    certify_distance(declared_code(1, m, encoder=ones_word(m)))


def audit_count_cli(mp, over):
    mp.setattr(cli, "sample_vector_set", past_the_guard)
    args = cli.build_parser().parse_args(
        ["nearset", "--n", str(14 + over), "--delta", "0.5", "--d", "8"])
    args.func(args)


def seeds_cli(mp, over):
    mp.setattr(cli, "sample_vector_set", past_the_guard)
    args = cli.build_parser().parse_args(
        ["nearset", "--n", "2", "--delta", "0.5", "--seeds", str(1024 + over)])
    args.func(args)


def set_coordinates_cli(mp, over):
    # count * d: 2^3 * 2^20 = 2^23, then 2^23 + 8
    mp.setattr(cli, "sample_vector_set", past_the_guard)
    args = cli.build_parser().parse_args(
        ["nearset", "--n", "3", "--delta", "0.5", "--d", str(2**20 + over)])
    args.func(args)


def audit_products_cli(mp, over):
    # --seeds * count^2 * d: 2 * 2^28 * 256 = 2^37, then 2 * 2^28 * 257
    mp.setattr(cli, "sample_vector_set", past_the_guard)
    args = cli.build_parser().parse_args(
        ["nearset", "--n", "14", "--delta", "0.5", "--seeds", "2",
         "--d", str(256 + over)])
    args.func(args)


def gram_count_cli(mp, over):
    mp.setattr(cli, "sample_vector_set", past_the_guard)
    args = cli.build_parser().parse_args(
        ["nearset", "--n", "2", "--delta", "0.0001", "--d", "1",
         "--gram-size", str(1024 + over)])
    args.func(args)


def gram_count(mp, over):
    # zero vectors fail the unit-norm check, the first work after the guard
    try:
        nearset.gram_dominance_check(np.zeros((1024 + over, 1)), 0.0001)
    except InputShapeError:
        raise PastTheGuard from None


def trials(mp, over):
    mp.setattr(protocols, "_block_accepts", past_the_guard)
    run_experiment("mixture", hadamard_code(4), 2**24 + over, "random-pairs",
                   seed=0)


def repetitions(mp, over):
    run_experiment("quantum", hadamard_code(4), 1, "random-pairs", seed=0,
                   k=2**22 + over)


def pair_block(mp, over):
    # 2 * min(4096, pairs) * d is even: 2^23 at (4096, 1024), and the
    # smallest size past it, 2^23 + 2, at (5, 838861)
    mp.setattr(nearset, "_pair_numerators", past_the_guard)
    pairs, d = (5, 838861) if over else (4096, 1024)
    sample_pair_audit(pairs, d, 0.5, seed=0)


def pair_run(mp, over):
    # 2 * pairs * d is even: 2^28 at d = 1, then 2^28 + 2
    mp.setattr(nearset, "_pair_numerators", past_the_guard)
    sample_pair_audit(2**27 + over, 1, 0.5, seed=0)


def set_coordinates(mp, over):
    mp.setattr(nearset, "_pcg64_words", past_the_guard)
    sample_vector_set(2**23 + over, 1, seed=0)


def audit_count(mp, over):
    mp.setattr(nearset, "_violation_threshold", past_the_guard)
    audit_overlaps(VectorSet(np.ones((2**14 + over, 1), np.int8), d=1), 0.5)


# call site -> (guard, its limit, probe(monkeypatch, over))
PROBES = {
    "PureState": ("MAX_STATE_DIM", 2**22, lambda mp, over: unit(2**22 + over)),
    "tensor": ("MAX_STATE_DIM", 2**22, state_dim_tensor),
    "swap_test_circuit": ("MAX_STATE_DIM", 2**22, state_dim_swap_circuit),
    "p_eq_projection-dimension": ("MAX_STATE_DIM", 2**22, state_dim_projection),
    "make_fingerprint": ("MAX_FINGERPRINT_M", 2**20, lambda mp, over:
                         make_fingerprint(declared_code(
                             1, 2**20 + over, encoder=ones_word(2**20 + over)), "1")),
    "certify_distance": ("CERTIFY_MAX_WORDS", 2**25, certify_words),
    "random_linear_code": ("GENERATOR_MAX_ENTRIES", 2**20,
                           lambda mp, over: random_linear_code(1, 2**20 + over, seed=0)),
    "hadamard_code": ("HADAMARD_MAX_N", 63, lambda mp, over: hadamard_code(63 + over)),
    "BinaryCode": ("HADAMARD_MAX_N", 63, lambda mp, over: BinaryCode(
        kind="hadamard", n=63 + over, m=2 ** (63 + over))),
    "encode": ("CODEWORD_MAX_BITS", 2**22, lambda mp, over: encode(
        declared_code(1, 2**22 + over, encoder=ones_word(2**22 + over)), "1")),
    "p_eq_projection-work": ("MAX_PROJECTION_WORK", 2**26, projection_work),
    "sample_rate": ("MAX_SAMPLED_TRIALS", 2**63 - 1,
                    lambda mp, over: sample_rate(0.5, 2**63 - 1 + over, seed=0)),
    "p_eq_closed_form": ("FLOAT_CLOSED_FORM_MAX_K", 516,
                         lambda mp, over: p_eq_closed_form(516 + over, 0.5)),
    "p_eq_upper_bound": ("FLOAT_UPPER_BOUND_MAX_K", 2**13,
                         lambda mp, over: p_eq_upper_bound(2**13 + over, 0.999)),
    "run_experiment-k": ("MAX_REPETITIONS", 2**22, repetitions),
    "run_experiment-trials": ("MAX_TRIALS", 2**24, trials),
    "audit_overlaps": ("AUDIT_MAX_COUNT", 2**14, audit_count),
    "nearset-set-mode": ("AUDIT_MAX_COUNT", 2**14, audit_count_cli),
    "sample_vector_set": ("MAX_COORDINATES", 2**23, set_coordinates),
    "nearset-set-coordinates": ("MAX_COORDINATES", 2**23, set_coordinates_cli),
    "sample_pair_audit-block": ("MAX_COORDINATES", 2**23, pair_block),
    "sample_pair_audit-run": ("MAX_PAIR_COORDINATES", 2**28, pair_run),
    "nearset-seeds": ("MAX_SEEDS", 2**10, seeds_cli),
    "nearset-products": ("MAX_AUDIT_PRODUCTS", 2**37, audit_products_cli),
    "nearset-gram": ("GRAM_MAX_COUNT", 2**10, gram_count_cli),
    "gram_dominance_check": ("GRAM_MAX_COUNT", 2**10, gram_count),
}


def test_probes_cover_every_guard():
    assert {name for name, _, _ in PROBES.values()} == set(GUARDS)


@pytest.mark.parametrize("name,limit,probe", PROBES.values(), ids=PROBES)
def test_guard_admits_its_limit_and_refuses_past_it(name, limit, probe,
                                                    monkeypatch):
    assert GUARDS[name] == limit
    start = time.perf_counter()
    try:
        probe(monkeypatch, False)
    except PastTheGuard:
        pass
    assert time.perf_counter() - start < 1.0
    start = time.perf_counter()
    with pytest.raises(CapabilityError, match=re.escape(
            f" is above the guard {name} = {limit}")):
        probe(monkeypatch, True)
    assert time.perf_counter() - start < 1.0


def test_a_wide_size_is_never_printed_in_full():
    with pytest.raises(CapabilityError, match=re.escape(
            "n = 2^20000 or more is above the guard HADAMARD_MAX_N = 63")):
        check("HADAMARD_MAX_N", 2**20000 + 1, "n")
    with pytest.raises(CapabilityError, match=re.escape(
            f"n = {2**64 - 1} is above the guard")):
        check("HADAMARD_MAX_N", 2**64 - 1, "n")


@pytest.mark.parametrize("call", [
    lambda: hadamard_code(10**8),
    lambda: hadamard_code(10**9),
    lambda: p_eq_projection(unit(2), unit(2), 7200),
    lambda: p_eq_projection(unit(2), unit(2), 10**6),
    lambda: p_eq_projection(unit(1), unit(1), 10**6),
    lambda: certify_distance(declared_code(8000, 64, encoder=ones_word(64))),
    lambda: certify_distance(declared_code(10**9, 64, encoder=ones_word(64))),
], ids=["hadamard-n1e8", "hadamard-n1e9", "projection-k7200",
        "projection-k1e6", "projection-d1-k1e6", "declared-pairs-n8000",
        "declared-pairs-n1e9"])
def test_powers_are_capped_before_they_are_formed(call):
    # each size is a power or a binomial of an input; it is refused without
    # building (or printing) the huge integer
    start = time.perf_counter()
    with pytest.raises(CapabilityError, match="is above the guard"):
        call()
    assert time.perf_counter() - start < 0.1


class CapabilityRaises(ast.NodeVisitor):
    """module.function of each ``raise CapabilityError`` in one module."""

    def __init__(self, module: str):
        self.scope, self.found = [module], []

    def visit_FunctionDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    def visit_Raise(self, node):
        if node.exc is not None and "CapabilityError" in ast.unparse(node.exc):
            self.found.append(".".join(self.scope))


def test_only_the_table_raises_capability_errors():
    # a new limit cannot bypass the table: the float-range error of
    # required_dimension is not a size limit
    found = []
    for path in sorted(Path(qfplab.__file__).parent.glob("*.py")):
        visitor = CapabilityRaises(path.stem)
        visitor.visit(ast.parse(path.read_text()))
        found += visitor.found
    assert found == ["guards.check", "nearset.required_dimension"]


def test_readme_names_every_guard():
    text = README.read_text()
    section = text.split("## Simulation guards", 1)[1].split("\n## ", 1)[0]
    named = set(re.findall(r"`guards\.([A-Z0-9_]+)`", section))
    assert named == set(GUARDS)
    capitals = set(re.findall(r"\b[A-Z][A-Z0-9]*_[A-Z0-9_]+\b", section))
    assert capitals <= set(GUARDS)
