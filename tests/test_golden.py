"""Golden determinism fixture: fixed CLI invocations pinned to output digests.

Each case runs ``qfplab`` in-process, writes its report with ``--out`` and
compares the sha256 of the report bytes against ``golden_digests.json``.
A mismatch means the same configuration no longer produces the same report:
either a regression, or a deliberate RNG-stream or format change.  In the
latter case re-record the moved cases by name with
``python tests/test_golden.py NAME...`` (from the repo root, with src on
PYTHONPATH) and say in the change log why the stream moved.  Only the named
cases are re-recorded, and each one whose digest moved is printed as
old -> new, so a stream change cannot silently move an unnamed digest.
"""

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import pytest

from qfplab.cli import EXIT_OK, main

DIGESTS = Path(__file__).with_name("golden_digests.json")

CASES = {
    "swap-test": [
        "swap-test", "--n", "4", "--x", "0101", "--y", "0110",
        "--trials", "2000", "--seed", "1",
    ],
    "perm-test": [
        "perm-test", "--k", "2", "--gamma", "0.3", "--trials", "2000",
        "--seed", "2",
    ],
    "nearset": [
        "nearset", "--n", "5", "--delta", "0.3", "--seeds", "2",
        "--gram-size", "3", "--seed", "3",
    ],
    # the benchmark's set shape: 2048 vectors of d = 85, 11 words each
    "nearset-n11": [
        "nearset", "--n", "11", "--delta", "0.6", "--seed", "5",
    ],
    # d = 37 is not a multiple of 32 and 5000 pairs leave a short last block
    "nearset-pairs": [
        "nearset", "--pair-mode", "--d", "37", "--delta", "0.3",
        "--pairs", "5000", "--seed", "4",
    ],
    "codes": ["codes", "--n", "6"],
    "smp-run-quantum": [
        "smp-run", "--protocol", "quantum", "--n", "6", "--k", "3",
        "--trials", "300", "--pair-source", "forced-unequal", "--seed", "42",
    ],
    "smp-run-shared-key-random-linear": [
        "smp-run", "--protocol", "shared-key", "--code", "random-linear",
        "--n", "8", "--c", "3", "--code-seed", "11", "--r", "4",
        "--trials", "300", "--pair-source", "random-pairs", "--seed", "7",
    ],
    # 5000 trials: a second block of 4096 and a short last block
    "smp-run-shared-key-two-blocks": [
        "smp-run", "--protocol", "shared-key", "--n", "6", "--r", "4",
        "--trials", "5000", "--pair-source", "forced-unequal", "--seed", "5",
    ],
    "smp-run-mixture-csv": [
        "smp-run", "--protocol", "mixture", "--n", "5", "--trials", "500",
        "--pair-source", "forced-equal", "--seed", "3", "--format", "csv",
    ],
    "smp-run-quantum-random-linear-table": [
        "smp-run", "--protocol", "quantum", "--code", "random-linear",
        "--n", "6", "--c", "2", "--code-seed", "4", "--k", "2",
        "--trials", "200", "--pair-source", "random-pairs", "--seed", "9",
        "--format", "table",
    ],
}


def report_digest(argv: list[str], out_dir: Path) -> str:
    path = out_dir / "report"
    assert main(argv + ["--out", str(path)]) == EXIT_OK
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_cases_match_fixture():
    assert sorted(json.loads(DIGESTS.read_text())) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_digest(name, tmp_path):
    expected = json.loads(DIGESTS.read_text())[name]
    assert report_digest(CASES[name], tmp_path) == expected


def rerecord(names: list[str]) -> None:
    """Re-record the named cases' digests, printing each that moved."""
    unknown = sorted(set(names) - set(CASES))
    if not names or unknown:
        sys.exit("usage: python tests/test_golden.py NAME...\n"
                 + "".join(f"unknown case: {name}\n" for name in unknown)
                 + f"cases: {', '.join(sorted(CASES))}")
    digests = json.loads(DIGESTS.read_text())
    with tempfile.TemporaryDirectory() as tmp:
        for name in names:
            new = report_digest(CASES[name], Path(tmp))
            if digests.get(name) != new:
                print(f"{name}: {digests.get(name)} -> {new}")
            digests[name] = new
    DIGESTS.write_text(json.dumps(dict(sorted(digests.items())), indent=2) + "\n")


if __name__ == "__main__":
    rerecord(sys.argv[1:])
