import argparse
import contextlib
import io
import json
import math
import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qfplab.cli
import qfplab.permtest
from qfplab.cli import EXIT_CAPABILITY, EXIT_OK, EXIT_USAGE, main


def run_json(tmp_path, argv, name="out.json"):
    path = tmp_path / name
    code = main(argv + ["--out", str(path)])
    assert code == EXIT_OK
    return json.loads(path.read_text())


class TestSwapTest:
    def test_hadamard_report(self, tmp_path):
        report = run_json(tmp_path, [
            "swap-test", "--code", "hadamard", "--n", "4",
            "--x", "0101", "--y", "0110", "--trials", "100000", "--seed", "1",
        ])
        results = report["results"]
        assert results["analytic"]["p_one"] == pytest.approx(0.375, abs=1e-12)
        assert results["circuit_vs_analytic"] <= 1e-10
        assert results["sampled"]["trials"] == 100000
        assert report["version"]
        assert report["config"]["seed"] == 1

    def test_x_equals_y_all_paths_zero(self, tmp_path):
        report = run_json(tmp_path, [
            "swap-test", "--n", "3", "--x", "010", "--x-equals-y",
            "--trials", "5000",
        ])
        results = report["results"]
        assert results["analytic"]["p_one"] <= 1e-12
        assert results["circuit"]["p_one"] <= 1e-12
        assert results["sampled"]["p_one"] == 0.0

    def test_malformed_bits_exit_2(self, capsys):
        code = main(["swap-test", "--n", "4", "--x", "01a1", "--y", "0000"])
        assert code == EXIT_USAGE
        assert "--x" in capsys.readouterr().err

    def test_missing_y_exit_2(self, capsys):
        assert main(["swap-test", "--n", "4", "--x", "0101"]) == EXIT_USAGE
        assert "--y" in capsys.readouterr().err

    def test_capability_guard_exit_3(self):
        code = main(["swap-test", "--n", "21", "--x", "0" * 21, "--x-equals-y"])
        assert code == EXIT_CAPABILITY

    def test_circuit_past_the_state_guard_is_skipped(self, tmp_path):
        # hadamard n = 10: D = 2^11 amplitudes, so the circuit's 2 D^2 is 2^23
        report = run_json(tmp_path, [
            "swap-test", "--n", "10", "--x", "0" * 10, "--y", "0" * 9 + "1",
        ])
        results = report["results"]
        assert results["circuit"]["skipped"].endswith(
            f"is above the guard MAX_STATE_DIM = {2**22}")
        assert results["analytic"]["p_one"] == pytest.approx(0.375, abs=1e-12)
        assert "circuit_vs_analytic" not in results


class TestPermTest:
    def test_k2_gamma0(self, tmp_path):
        report = run_json(tmp_path, ["perm-test", "--k", "2", "--gamma", "0"])
        results = report["results"]
        assert results["closed_form"] == pytest.approx(1 / 6, abs=1e-12)
        assert results["projection"] == pytest.approx(1 / 6, abs=1e-9)
        assert results["bounds"]["lower"] == pytest.approx(1 / 64)

    def test_k1_gamma_half(self, tmp_path):
        report = run_json(tmp_path, ["perm-test", "--k", "1", "--gamma", "0.5"])
        assert report["results"]["closed_form"] == pytest.approx(0.625, abs=1e-12)

    def test_k60_guard_skip_keeps_closed_form(self, tmp_path):
        report = run_json(tmp_path, ["perm-test", "--k", "60", "--gamma", "0.5"])
        results = report["results"]
        assert "skipped" in results["projection"]
        assert results["closed_form"] >= 0.0

    def test_k5_projection_is_fast_and_exact(self, tmp_path):
        start = time.perf_counter()
        report = run_json(tmp_path, ["perm-test", "--k", "5", "--gamma", "0.5"])
        assert time.perf_counter() - start < 5.0
        results = report["results"]
        assert results["projection"] == pytest.approx(results["closed_form"],
                                                      abs=1e-9)

    def test_gamma_out_of_range(self):
        assert main(["perm-test", "--k", "2", "--gamma", "1.5"]) == EXIT_USAGE

    def test_trials_sample_the_one_projection(self, tmp_path, monkeypatch):
        calls = []
        projection = qfplab.permtest.p_eq_projection

        def counted(*args):
            calls.append(args)
            return projection(*args)

        # count calls made through either module's name for the oracle
        for module in (qfplab.cli, qfplab.permtest):
            monkeypatch.setattr(module, "p_eq_projection", counted)
        report = run_json(tmp_path, ["perm-test", "--k", "2", "--gamma", "0.3",
                                     "--trials", "100"])
        assert len(calls) == 1
        assert report["results"]["sampled"]["trials"] == 100


class TestSmpRun:
    ARGS = [
        "smp-run", "--protocol", "quantum", "--code", "hadamard", "--n", "6",
        "--k", "3", "--trials", "2000", "--pair-source", "forced-unequal",
        "--seed", "42",
    ]

    def test_report_contents(self, tmp_path):
        report = run_json(tmp_path, self.ARGS)
        results = report["results"]
        assert results["theory_error_bound"] == pytest.approx((5 / 8) ** 3)
        assert results["trials_unequal"] == 2000
        assert results["message_cost_summary"]["quantum_qubits"] == 3 * 7
        assert report["config"]["seed"] == 42

    def test_same_seed_byte_identical(self, tmp_path):
        main(self.ARGS + ["--out", str(tmp_path / "a.json")])
        main(self.ARGS + ["--out", str(tmp_path / "b.json")])
        assert (tmp_path / "a.json").read_bytes() == \
            (tmp_path / "b.json").read_bytes()

    def test_csv_projection(self, tmp_path):
        path = tmp_path / "run.csv"
        code = main(self.ARGS + ["--format", "csv", "--out", str(path)])
        assert code == EXIT_OK
        header, row = path.read_text().strip().split("\n")
        assert header.split(",")[0] == "protocol_id"
        assert row.split(",")[0] == "quantum"

    @pytest.mark.parametrize("parts", [("missing", "report.json"), ()],
                             ids=["missing-directory", "directory"])
    def test_unwritable_out_exit_2(self, parts, tmp_path, capsys):
        path = tmp_path.joinpath(*parts)
        assert main(self.ARGS + ["--out", str(path)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write --out")
        assert str(path) in err

    def test_adversarial_pairs(self, tmp_path):
        report = run_json(tmp_path, [
            "smp-run", "--protocol", "shared-key", "--n", "4", "--r", "2",
            "--trials", "100", "--pair-source", "adversarial-list",
            "--pair", "0000:1111", "--pair", "0000:0000",
        ])
        assert report["results"]["trials_equal"] == 50

    def test_consecutive_runs_echo_only_their_own_pairs(self, tmp_path):
        base = ["smp-run", "--protocol", "shared-key", "--n", "4", "--r", "2",
                "--trials", "10", "--pair-source", "adversarial-list"]
        first = run_json(tmp_path, base + ["--pair", "0000:1111"], "a.json")
        second = run_json(tmp_path, base + ["--pair", "0101:0101",
                                            "--pair", "0011:1100"], "b.json")
        assert first["config"]["pair"] == ["0000:1111"]
        assert second["config"]["pair"] == ["0101:0101", "0011:1100"]

    def test_unknown_protocol_exit_2(self):
        code = main(["smp-run", "--protocol", "psychic", "--n", "4",
                     "--trials", "10"])
        assert code == EXIT_USAGE

    def test_pair_without_adversarial_list_exit_2(self, capsys):
        code = main(["smp-run", "--protocol", "shared-key", "--n", "4",
                     "--r", "2", "--trials", "10", "--pair", "0000:1111"])
        assert code == EXIT_USAGE
        assert "--pair" in capsys.readouterr().err

    def test_k_without_quantum_exit_2(self, capsys):
        code = main(["smp-run", "--protocol", "shared-key", "--n", "4",
                     "--r", "2", "--k", "3", "--trials", "10"])
        assert code == EXIT_USAGE
        assert "--k" in capsys.readouterr().err

    def test_r_without_shared_key_exit_2(self, capsys):
        code = main(["smp-run", "--protocol", "quantum", "--n", "4",
                     "--k", "2", "--r", "3", "--trials", "10"])
        assert code == EXIT_USAGE
        assert "--r" in capsys.readouterr().err

    @pytest.mark.parametrize("protocol,flag", [
        ("quantum", "--k"), ("shared-key", "--r")])
    def test_huge_repetition_count_exit_3_fast(self, protocol, flag, capsys):
        # 10^8 repetitions are refused at once, whatever the trial count
        start = time.perf_counter()
        code = main(["smp-run", "--protocol", protocol, "--n", "4",
                     flag, "100000000", "--trials", "5000"])
        assert time.perf_counter() - start < 1.0
        assert code == EXIT_CAPABILITY
        assert "guard MAX_REPETITIONS = 4194304" in capsys.readouterr().err

    def test_largest_repetition_count_is_fast(self, tmp_path):
        # (5/8)^k underflows, so the exact power is never taken
        start = time.perf_counter()
        report = run_json(tmp_path, ["smp-run", "--protocol", "quantum",
                                     "--n", "4", "--k", "4194304", "--trials", "1"])
        assert time.perf_counter() - start < 0.5
        assert report["results"]["theory_error_bound"] == 0.0

    def test_bad_pair_names_its_index_and_flag(self, capsys):
        code = main(["smp-run", "--protocol", "mixture", "--n", "4",
                     "--trials", "10", "--pair-source", "adversarial-list",
                     "--pair", "0000:0000", "--pair", "0000:11x1"])
        assert code == EXIT_USAGE
        assert "pairs[1] (--pair) y must be a bit-string" in capsys.readouterr().err

    def test_hadamard_n64_exit_3(self, tmp_path, capsys):
        code = main(["smp-run", "--protocol", "mixture", "--n", "64",
                     "--trials", "2"])
        assert code == EXIT_CAPABILITY
        assert "64-bit" in capsys.readouterr().err
        report = run_json(tmp_path, ["smp-run", "--protocol", "mixture",
                                     "--n", "63", "--trials", "2"])
        assert report["results"]["trials"] == 2

    def test_quantum_past_the_fingerprint_guard(self, tmp_path):
        # m = 2^40: the engine needs agreements only, never a fingerprint
        k, trials = 3, 4000
        report = run_json(tmp_path, [
            "smp-run", "--protocol", "quantum", "--n", "40", "--k", str(k),
            "--trials", str(trials), "--pair-source", "forced-unequal",
        ])
        p = (5 / 8) ** k
        error = report["results"]["empirical_error_unequal"]
        assert abs(error - p) <= 5 * math.sqrt(p * (1 - p) / trials)

    def test_mixture_forced_equal(self, tmp_path):
        report = run_json(tmp_path, [
            "smp-run", "--protocol", "mixture", "--n", "4",
            "--trials", "2000", "--pair-source", "forced-equal",
        ])
        results = report["results"]
        assert results["theory_error_bound"] is None
        assert 0.8 <= results["empirical_error_equal"] <= 1.0


class TestNearset:
    def test_set_mode_audits(self, tmp_path):
        report = run_json(tmp_path, [
            "nearset", "--n", "6", "--delta", "0.25", "--seeds", "3",
            "--seed", "1",
        ])
        results = report["results"]
        assert results["required_dimension"] == 267
        assert len(results["audits"]) == 3
        for audit in results["audits"]:
            assert audit["total_pairs"] == 64 * 63 // 2

    @pytest.mark.parametrize("seeds", ["0", "-1"])
    def test_set_mode_needs_a_seed_exit_2(self, seeds, capsys):
        code = main(["nearset", "--n", "4", "--delta", "0.3", "--seeds", seeds])
        assert code == EXIT_USAGE
        assert "--seeds" in capsys.readouterr().err

    def test_pair_mode(self, tmp_path):
        report = run_json(tmp_path, [
            "nearset", "--pair-mode", "--d", "800", "--delta", "0.1",
            "--pairs", "20000", "--seed", "5",
        ])
        audit = report["results"]["audit"]
        rate = audit["violating_pairs"] / audit["total_pairs"]
        assert rate <= audit["chernoff_bound"] + 0.01

    def test_delta_out_of_domain_exit_2(self):
        assert main(["nearset", "--n", "4", "--delta", "1.5"]) == EXIT_USAGE

    @pytest.mark.parametrize("argv,message", [
        (["--n", "1", "--d", "4194304", "--delta", "15000"],
         "--delta must lie in (0,1), got 15000.0"),
        (["--n", "0", "--count", "4", "--d", "8", "--delta", "0.5"],
         "--n must be >= 1, got 0"),
        (["--n", "-1", "--d", "8", "--delta", "0.5"],
         "--n must be >= 1, got -1"),
    ], ids=["delta-15000-d-2^22", "n-0-with-count-and-d", "n-minus-1-with-d"])
    def test_set_mode_checks_n_and_delta_before_any_draw(self, argv, message,
                                                         capsys):
        start = time.perf_counter()
        code = main(["nearset"] + argv)
        assert time.perf_counter() - start < 0.05
        assert code == EXIT_USAGE
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("size", ["1", "-1"])
    def test_gram_size_below_two_exit_2(self, size, tmp_path, capsys):
        path = tmp_path / "report"
        code = main(["nearset", "--n", "4", "--delta", "0.3", "--gram-size",
                     size, "--out", str(path)])
        assert code == EXIT_USAGE
        assert "--gram-size" in capsys.readouterr().err
        assert not path.exists()

    def test_gram_report(self, tmp_path):
        report = run_json(tmp_path, [
            "nearset", "--n", "4", "--delta", "0.3", "--gram-size", "3",
        ])
        gram = report["results"]["gram"]
        assert gram["rank"] == 3


@pytest.mark.parametrize("argv", [
    ["swap-test", "--n", "3", "--x", "010", "--x-equals-y"],
    ["perm-test", "--k", "2", "--gamma", "0.3"],
    ["nearset", "--n", "3", "--delta", "0.3"],
    ["codes", "--n", "3"],
], ids=["swap-test", "perm-test", "nearset", "codes"])
def test_csv_only_on_smp_run_exit_2(argv, tmp_path, capsys):
    path = tmp_path / "report"
    assert main(argv + ["--format", "csv", "--out", str(path)]) == EXIT_USAGE
    assert "--format" in capsys.readouterr().err
    assert not path.exists()


@pytest.mark.parametrize("argv,flag", [
    (["swap-test", "--n", "3", "--x", "010", "--y", "011", "--x-equals-y"],
     "--y"),
    (["swap-test", "--n", "3", "--x", "010", "--y", "011", "--c", "4"], "--c"),
    (["smp-run", "--protocol", "quantum", "--n", "3", "--trials", "10",
      "--code-seed", "5"], "--code-seed"),
    (["codes", "--code", "hadamard", "--n", "3", "--c", "5"], "--c"),
    (["nearset", "--pair-mode", "--d", "50", "--delta", "0.3", "--n", "4"],
     "--n"),
    (["nearset", "--pair-mode", "--d", "50", "--delta", "0.3", "--count", "8"],
     "--count"),
    (["nearset", "--pair-mode", "--d", "50", "--delta", "0.3",
      "--gram-size", "3"], "--gram-size"),
    (["nearset", "--pair-mode", "--d", "50", "--delta", "0.3", "--seeds", "2"],
     "--seeds"),
    (["nearset", "--n", "4", "--delta", "0.3", "--pairs", "500"], "--pairs"),
    (["codes", "--n", "3", "--seed", "99"], "--seed"),
    (["swap-test", "--n", "3", "--x", "010", "--y", "011", "--seed", "5"],
     "--seed"),
    (["perm-test", "--k", "2", "--gamma", "0.3", "--seed", "5"], "--seed"),
], ids=["swap-y-with-x-equals-y", "swap-c-hadamard", "smp-code-seed-hadamard",
        "codes-c-hadamard", "pair-mode-n", "pair-mode-count",
        "pair-mode-gram-size", "pair-mode-seeds", "set-mode-pairs",
        "codes-seed", "swap-seed-without-trials", "perm-seed-without-trials"])
def test_flag_the_mode_ignores_exit_2(argv, flag, tmp_path, capsys):
    path = tmp_path / "report"
    assert main(argv + ["--out", str(path)]) == EXIT_USAGE
    assert flag in capsys.readouterr().err
    assert not path.exists()


@pytest.mark.parametrize("argv,message", [
    (["smp-run", "--protocol", "mixture", "--n", "4", "--trials", "10",
      "--pair-source", "adversarial-list", "--pair", "0101"],
     "--pair expects X:Y bit-strings, got '0101'"),
    (["nearset", "--pair-mode", "--delta", "0.3"], "--pair-mode requires --d"),
    (["nearset", "--delta", "0.3"], "set mode requires --n"),
], ids=["smp-pair-without-colon", "pair-mode-without-d", "set-mode-without-n"])
def test_missing_or_malformed_flag_exit_2(argv, message, tmp_path, capsys):
    path = tmp_path / "report"
    assert main(argv + ["--out", str(path)]) == EXIT_USAGE
    assert message in capsys.readouterr().err
    assert not path.exists()


@pytest.mark.parametrize("argv,flag", [
    (["smp-run", "--protocol", "quantum", "--n", "3", "--k", "1",
      "--trials", "10", "--seed", "-1"], "--seed"),
    (["nearset", "--n", "3", "--delta", "0.3", "--seed", "-1"], "--seed"),
    (["swap-test", "--n", "3", "--x", "010", "--y", "011", "--trials", "10",
      "--seed", "-1"], "--seed"),
    (["perm-test", "--k", "2", "--gamma", "0.3", "--trials", "10",
      "--seed", "-1"], "--seed"),
    (["codes", "--code", "random-linear", "--n", "3", "--code-seed", "-1"],
     "--code-seed"),
], ids=["smp-run", "nearset", "swap-test", "perm-test", "codes"])
def test_negative_seed_exit_2(argv, flag, tmp_path, capsys):
    path = tmp_path / "report"
    assert main(argv + ["--out", str(path)]) == EXIT_USAGE
    assert f"argument {flag}: must be >= 0" in capsys.readouterr().err
    assert not path.exists()


@pytest.mark.parametrize("argv,guard", [
    (["codes", "--code", "random-linear", "--n", "8", "--c", "100000000"],
     "guard GENERATOR_MAX_ENTRIES = 1048576"),
    (["nearset", "--n", "3", "--delta", "1e-5"],
     "guard MAX_COORDINATES = 8388608"),
    (["nearset", "--n", "3", "--delta", "0.5", "--d", "100000000000"],
     "guard MAX_COORDINATES = 8388608"),
    (["nearset", "--pair-mode", "--delta", "0.5", "--d", "100000000000",
      "--pairs", "5"], "guard MAX_COORDINATES = 8388608"),
    (["nearset", "--pair-mode", "--delta", "0.5", "--d", "8",
      "--pairs", "100000000000"], "guard MAX_PAIR_COORDINATES = 268435456"),
    (["perm-test", "--k", "2", "--gamma", "0.5", "--trials", str(2**63)],
     "guard MAX_SAMPLED_TRIALS = 9223372036854775807"),
    (["swap-test", "--n", "4", "--x", "0101", "--y", "0110",
      "--trials", str(2**63)], "guard MAX_SAMPLED_TRIALS = 9223372036854775807"),
    (["perm-test", "--k", "517", "--gamma", "0.5"],
     "guard FLOAT_CLOSED_FORM_MAX_K = 516"),
    (["perm-test", "--k", "1000000", "--gamma", "0.5"],
     "guard FLOAT_CLOSED_FORM_MAX_K = 516"),
    (["nearset", "--n", "3", "--delta", "1e-300"], "above the largest float"),
    (["nearset", "--n", "3", "--delta", "1e-160"], "above the largest float"),
    (["nearset", "--n", "3", "--delta", "0.5", "--seeds", "100000"],
     "guard MAX_SEEDS = 1024"),
    (["nearset", "--n", "3", "--delta", "0.5", "--count", "16385"],
     "guard AUDIT_MAX_COUNT = 16384"),
    (["smp-run", "--protocol", "mixture", "--n", "4",
      "--trials", "100000000000"], "guard MAX_TRIALS = 16777216"),
    (["nearset", "--n", "15000", "--delta", "0.5"],
     "= 2^64 or more is above the guard AUDIT_MAX_COUNT = 16384"),
    (["nearset", "--n", "1000000000", "--delta", "0.5"],
     "= 2^64 or more is above the guard AUDIT_MAX_COUNT = 16384"),
    (["codes", "--n", "100000000"],
     "= 100000000 is above the guard HADAMARD_MAX_N = 63"),
    (["codes", "--n", "1000000000"],
     "= 1000000000 is above the guard HADAMARD_MAX_N = 63"),
    (["nearset", "--n", "2", "--delta", "0.00001", "--d", "1",
      "--gram-size", "20000"], "guard GRAM_MAX_COUNT = 1024"),
    (["nearset", "--n", "14", "--delta", "0.5", "--seeds", "1024"],
     "guard MAX_AUDIT_PRODUCTS = 137438953472"),
], ids=["random-linear-generator", "nearset-set-delta", "nearset-set-d",
        "nearset-pair-block", "nearset-pair-run", "perm-test-trials",
        "swap-test-trials", "perm-test-float-k", "perm-test-huge-k",
        "nearset-delta-underflow", "nearset-dimension-overflow",
        "nearset-seeds", "nearset-set-count", "smp-run-trials",
        "nearset-n15000", "nearset-n1e9", "codes-hadamard-n1e8",
        "codes-hadamard-n1e9", "nearset-gram-size", "nearset-audit-products"])
def test_oversized_input_exit_3_fast(argv, guard, capsys):
    # refused before anything of that size is sampled or allocated
    start = time.perf_counter()
    code = main(argv)
    assert time.perf_counter() - start < 1.0
    assert code == EXIT_CAPABILITY
    assert guard in capsys.readouterr().err


@pytest.mark.parametrize("argv,key,p", [
    (["perm-test", "--k", "2", "--gamma", "0.5"], "p_equal", 0.34375),
    (["swap-test", "--n", "4", "--x", "0101", "--y", "0110"], "p_one", 0.375),
], ids=["perm-test", "swap-test"])
def test_huge_sampled_trial_count_runs_fast(argv, key, p, tmp_path):
    # 10^14 verdicts are one binomial count, not 10^14 floats
    trials = 10**14
    start = time.perf_counter()
    report = run_json(tmp_path, argv + ["--trials", str(trials)])
    assert time.perf_counter() - start < 1.0
    sampled = report["results"]["sampled"][key]
    assert abs(sampled - p) <= 5 * math.sqrt(p * (1 - p) / trials)


def test_module_runs_as_a_script():
    src = str(Path(qfplab.cli.__file__).parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "qfplab.cli", "codes", "--n", "3"],
        capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == EXIT_OK
    report = json.loads(proc.stdout)
    assert report["results"]["certificate"]["min_distance"] == 4


# Every flag value the contract property draws: the fixed edge values and
# the powers 2^k, negative k giving the floats 2^-1 .. 2^-8.
FLAG_VALUES = st.sampled_from(
    ["0", "-1", "1", "2", "15000", str(10**11), "1e-300", "nan", "inf", ""]
) | st.integers(-8, 64).map(lambda k: str(2**k) if k >= 0 else str(2.0**k))
SUBCOMMANDS = next(a for a in qfplab.cli.build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction)).choices
# Above the slowest request the guards admit: a 2^24-trial random-linear
# smp-run, or a 2^14-vector set at d = 512, each up to about 5 s on a 2-core box.
ALARM_S = 30


class Alarm(Exception):
    pass


def raise_alarm(signum, frame):
    raise Alarm


@st.composite
def subcommand_argv(draw):
    name = draw(st.sampled_from(sorted(SUBCOMMANDS)))
    argv = [name]
    for action in SUBCOMMANDS[name]._actions:
        if isinstance(action, argparse._HelpAction) or (
                not action.required and draw(st.integers(0, 3))):
            continue  # an optional flag is given one time in four
        argv.append(action.option_strings[-1])
        if action.nargs != 0:
            values = FLAG_VALUES
            if action.choices:
                values = st.sampled_from(list(action.choices)) | values
            argv.append(draw(values))
    return argv


@settings(max_examples=400)
@given(argv=subcommand_argv())
# two inputs that once broke the contract: a 1.8 GB Gram, and a random-linear
# generator of negative size
@example(argv=["nearset", "--n", "2", "--d", "1", "--delta", "1e-300",
               "--gram-size", "15000"])
@example(argv=["codes", "--code", "random-linear", "--n", "-1"])
# set mode, which random argv seldom reaches: it needs --n, --d and a --delta
# in (0, 1) together
@example(argv=["nearset", "--n", "1", "--d", "4194304", "--delta", "15000"])
@example(argv=["nearset", "--n", "0", "--count", "4", "--d", "8",
               "--delta", "0.5"])
@example(argv=["nearset", "--n", "-1", "--d", "8", "--delta", "0.5"])
@example(argv=["nearset", "--n", "2", "--count", "64", "--d", "64",
               "--delta", "0.5", "--seeds", "2", "--gram-size", "4"])
def test_every_flag_value_exits_0_2_or_3_in_time(argv):
    # the CLI contract: any argv ends in one of the three exit codes, with no
    # other exception, before the alarm; an --out report lands in a temporary
    # directory
    previous = signal.signal(signal.SIGALRM, raise_alarm)
    signal.alarm(ALARM_S)
    cwd = os.getcwd()
    try:
        with tempfile.TemporaryDirectory() as workdir, \
                contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            os.chdir(workdir)
            code = main(argv)
    finally:
        os.chdir(cwd)
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert code in (EXIT_OK, EXIT_USAGE, EXIT_CAPABILITY)


def parse_outcome(parse, argv):
    """The namespace's fields, or the exit code, of one parse, silenced."""
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(parse(argv))
        except SystemExit as exc:
            return exc.code


@settings(max_examples=200)
@given(argv=subcommand_argv())
@example(argv=["smp-run", "-h"])
@example(argv=["codes", "--n", "3", "--version"])
@example(argv=["codes", "--n", "3", "--", "--seed", "1"])
def test_dispatch_builds_the_top_level_namespace(argv):
    # main hands argv past a subcommand's name to that subcommand's parser
    # alone; the namespace, or the exit, is the full parser's
    assert parse_outcome(qfplab.cli._parse, argv) == \
        parse_outcome(qfplab.cli.build_parser().parse_args, argv)


@pytest.mark.parametrize("argv, code", [
    ([], EXIT_USAGE), (["--version"], EXIT_OK), (["-h"], EXIT_OK),
    (["bogus"], EXIT_USAGE), (["--n", "3", "codes"], EXIT_USAGE),
])
def test_top_level_exits(argv, code):
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        assert main(argv) == code


class TestCodesCommand:
    def test_certificate(self, tmp_path):
        report = run_json(tmp_path, ["codes", "--code", "hadamard", "--n", "4"])
        cert = report["results"]["certificate"]
        assert cert["min_distance"] == 8
        assert cert["max_agreement"] == "1/2"
        assert report["results"]["qubits_required"] == 5

    def test_hadamard_n40_certified_in_closed_form(self, tmp_path):
        report = run_json(tmp_path, ["codes", "--n", "40"])
        cert = report["results"]["certificate"]
        assert cert["method"] == "closed-form"
        assert cert["min_distance"] == 2**39

    def test_missing_subcommand_exit_2(self):
        assert main([]) == EXIT_USAGE

    def test_version_flag(self):
        assert main(["--version"]) == EXIT_OK
