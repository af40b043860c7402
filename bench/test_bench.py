"""Tests of the benchmark's own machinery.

Run from the repository root:  python3 -m pytest -q bench/test_bench.py
"""

import copy
import json
import math
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import qfplab  # noqa: E402
import qfplab.cli as cli  # noqa: E402
from run import Session, nearest_rank, tail_percentile  # noqa: E402
from spans import Span, Tracer, layer_metrics, self_times  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS, Checker, Request, Workload, min_distance)


def _report(tmp_path, argv):
    out = tmp_path / "report.json"
    assert cli.main([*argv, "--out", str(out)]) == 0
    return json.loads(out.read_text())


@pytest.fixture
def quantum_report(tmp_path):
    # random pairs at n=3 give both equal and unequal trials
    return _report(tmp_path, ["smp-run", "--protocol", "quantum", "--n", "3",
                              "--k", "2", "--trials", "2000",
                              "--pair-source", "random-pairs", "--seed", "5"])


def test_checker_accepts_correct_report(quantum_report):
    assert quantum_report["results"]["trials_equal"] > 0
    assert Checker({}).check(quantum_report) == []


def test_checker_flags_nonzero_equal_input_error(quantum_report):
    bad = copy.deepcopy(quantum_report)
    bad["results"]["empirical_error_equal"] = 1 / bad["results"]["trials_equal"]
    assert any("one-sided" in p for p in Checker({}).check(bad))


def test_checker_flags_rate_ten_sigma_off(quantum_report):
    p = (5 / 8) ** 2
    n = quantum_report["results"]["trials_unequal"]
    for sign in (1, -1):
        bad = copy.deepcopy(quantum_report)
        bad["results"]["empirical_error_unequal"] = p + sign * 10 * math.sqrt(
            p * (1 - p) / n)
        assert any("unequal-input error" in p for p in Checker({}).check(bad))


def test_checker_flags_wrong_certificate(tmp_path):
    code = qfplab.random_linear_code(6, 3, 4)
    report = _report(tmp_path, ["codes", "--code", "random-linear", "--n", "6",
                                "--c", "3", "--code-seed", "4"])
    checker = Checker({(6, 3, 4): code})
    assert checker.check(report) == []
    report["results"]["certificate"]["min_distance"] += 1
    assert any("min_distance" in p for p in checker.check(report))


class _SilentCli:
    """The real CLI, or one that exits 0 without writing its report."""

    writes = True

    def main(self, argv):
        return cli.main(argv) if self.writes else 0


def _codes_session(tmp_path):
    workload = Workload("codes", (Request("codes hadamard n6", ("codes", "--n", "6")),),
                        warmup=())
    stub = _SilentCli()
    return stub, Session(stub, workload, Checker({}), tmp_path)


def test_session_counts_a_report_never_written(tmp_path):
    stub, session = _codes_session(tmp_path)
    stub.writes = False
    session.run_pass()
    assert (session.attempted, session.failed) == (1, 1)


def test_session_does_not_reuse_an_earlier_report(tmp_path):
    stub, session = _codes_session(tmp_path)
    session.run_pass()
    assert session.failed == 0
    stub.writes = False
    session.run_pass()
    assert (session.attempted, session.failed) == (2, 1)


def test_reference_distance_matches_brute_force():
    code = qfplab.random_linear_code(5, 3, 9)
    g = code.generator.astype(int)
    weights = [int(((g @ [(v >> j) & 1 for j in range(5)]) % 2).sum())
               for v in range(1, 32)]
    assert min_distance(code.generator) == min(weights)


def test_self_time_on_synthetic_tree():
    spans = [
        Span("cli.main", 0.0, 10.0, -1, 0),
        Span("protocols.run_experiment", 1.0, 4.0, 0, 0),
        Span("qstate.make_fingerprint", 2.0, 3.0, 1, 0),
        Span("codes.certify_distance", 5.0, 9.0, 0, 0),
        # overlaps its sibling and runs past its parent: counted once, clipped
        Span("codes.agreement_fraction", 8.0, 12.0, 0, 0),
    ]
    assert self_times(spans) == pytest.approx([10 - 3 - 4 - 1, 2, 1, 4, 4])
    metrics = layer_metrics(spans, passes=1)
    assert metrics["cli.self_s"] == pytest.approx(2.0)
    assert metrics["codes.certify_s"] == pytest.approx(4.0)
    assert metrics["codes.agreement_calls"] == 1


def test_tail_percentile_keeps_ten_samples_beyond():
    for min_samples in range(20, 400):
        p = tail_percentile(min_samples)
        for n in range(min_samples, min_samples + 300, 7):
            values = list(range(n))
            assert n - 1 - nearest_rank(values, p) >= 10
        # and it is the highest such whole percentile
        values = list(range(min_samples))
        assert min_samples - 1 - nearest_rank(values, p + 1) < 10


def test_tracer_wraps_every_namespace_and_restores(tmp_path):
    original = qfplab.codes.certify_distance
    tracer = Tracer()
    tracer.install()
    try:
        assert cli.certify_distance is not original
        assert qfplab.certify_distance is cli.certify_distance
        cli.main(["codes", "--n", "6", "--out", str(tmp_path / "r.json")])
    finally:
        tracer.uninstall()
    assert cli.certify_distance is original is qfplab.certify_distance
    names = [s.name for s in tracer.spans]
    assert names[0] == "cli.main" and tracer.spans[0].parent == -1
    assert "codes.certify_distance" in names
    metrics = layer_metrics(tracer.spans, passes=1)
    assert metrics["codes.certify_words"] == 2**6 - 1
    total = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
    root = tracer.spans[0]
    assert total == pytest.approx(root.end - root.start)


def test_workloads_depend_only_on_seed():
    for make in WORKLOADS.values():
        assert make(3) == make(3)
        assert make(3).requests != make(4).requests


def test_runner_reports_the_declared_metrics():
    from run import END_TO_END, unit_of

    declared = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in declared["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in declared["per_layer"]}
    assert end_to_end == END_TO_END
    assert {name: unit_of(name) for name in per_layer} == per_layer
    traced = set(layer_metrics([], passes=1))
    added_by_runner = {"cli.bytes_out", "trace.request_s", "trace.self_coverage",
                       "trace.overhead_frac"}
    assert traced | added_by_runner == set(per_layer)
    assert set(WORKLOADS) == {w["name"] for w in declared["workloads"]}
