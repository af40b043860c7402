#!/usr/bin/env python3
"""qfplab benchmark: drives the public CLI in-process and reports metrics.

Usage, from the repository root:

    python3 bench/run.py --workload smp-n8 --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload smp-n8 --seed 1 --seconds 20 --trace 1

Each run starts fresh workload processes, one at a time, with BLAS and
OpenMP pinned to one thread.  A workload process imports qfplab from
``src/``, builds the workload's codes, makes one warm-up request and
reports ready; the time to that point is the set-up time.  It then sends
the workload's fixed request list through ``qfplab.cli.main`` in a closed
loop (one client, each request after the previous one ends), pass after
pass, until ``--seconds`` have passed and at least ``MIN_PASSES`` passes
are done.  Every report is written to a file, parsed and checked.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics.  The last
line of standard output is one JSON object; details of the run go to
``bench/out/``.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np
from spans import Tracer, layer_metrics
from workloads import WORKLOADS, Checker

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

DEFAULT_SEED = 1
# Seed kept out of tuning, for confirming a claimed gain.
HELDOUT_SEED = 7919
SETUP_REPEATS = 5
# Fewest passes over a workload's request list; fixes the tail percentile.
MIN_PASSES = 6
# A request whose median time is below this share of its first-pass time is
# flagged: it may reuse work cached by an earlier request in the process.
# First-pass times of requests of a few ms run up to twice their median.
CACHE_FLAG_RATIO = 0.25
# Every run must end within 180 s, builds excepted.
DEADLINE_S = 170.0
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}

END_TO_END = {
    "setup_s": "s", "wall_s": "s", "report_ms_p50": "ms",
    "report_ms_tail": "ms", "trials_per_s": "1/s", "peak_rss_mb": "MB",
    "ok_frac": "ratio",
}
PER_LAYER_UNITS = {
    "calls": "count", "self_s": "s", "certify_s": "s", "certify_words": "count",
    "agreement_calls": "count", "fingerprints": "count",
    "amplitudes_built": "count", "trials": "count", "us_per_trial": "us",
    "fingerprints_per_trial": "ratio", "joint_amplitudes": "count",
    "perm_elements": "count", "pairs_audited": "count", "pair_macs": "count",
    "bytes_out": "B", "overhead_frac": "ratio", "request_s": "s",
    "self_coverage": "ratio",
}


def tail_percentile(min_samples: int) -> int:
    """Highest whole percentile with at least 10 of ``min_samples`` beyond it."""
    return 100 * (min_samples - 10) // min_samples


def nearest_rank(values: list[float], percentile: int) -> float:
    """The nearest-rank percentile: the ceil(p*N/100)-th smallest value."""
    ordered = sorted(values)
    rank = max(1, -(-percentile * len(ordered) // 100))
    return ordered[rank - 1]


def unit_of(metric: str) -> str:
    return END_TO_END.get(metric) or PER_LAYER_UNITS[metric.split(".", 1)[1]]


# --- workload process ---------------------------------------------------------

def _machine() -> dict:
    model = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {var: os.environ.get(var) for var in THREAD_ENV},
    }


class Session:
    """Runs passes over one workload's requests and checks every report."""

    def __init__(self, cli, workload, checker, workdir: Path, tracer=None):
        self.cli = cli
        self.workload = workload
        self.checker = checker
        self.workdir = workdir
        self.tracer = tracer
        self.digests: dict[int, str] = {}
        self.reported: set[int] = set()
        self.attempted = 0
        self.failed = 0
        self.request_id = 0

    def _fail(self, index: int, why: str) -> None:
        self.failed += 1
        if index not in self.reported:
            self.reported.add(index)
            print(f"request {index} ({self.workload.requests[index].kind}) "
                  f"failed: {why}", file=sys.stderr)

    def run_pass(self, traced: bool = False) -> tuple[list[float], int]:
        """One pass; returns each request's wall time and the bytes written."""
        times = []
        bytes_out = 0
        if traced:
            self.tracer.install()
        try:
            for index, request in enumerate(self.workload.requests):
                bytes_out += self._request(index, request, times)
        finally:
            if traced:
                self.tracer.uninstall()
        return times, bytes_out

    def _request(self, index, request, times) -> int:
        path = self.workdir / f"report{index}.json"
        path.unlink(missing_ok=True)
        if self.tracer:
            self.tracer.request = self.request_id
        self.request_id += 1
        self.attempted += 1
        start = perf_counter()
        try:
            code = self.cli.main([*request.argv, "--out", str(path)])
        except Exception:  # a crashing request is counted, the run goes on
            code = traceback.format_exc()
        times.append(perf_counter() - start)
        if code != 0:
            self._fail(index, f"exit {code}")
            return 0
        try:
            blob = path.read_bytes()
        except FileNotFoundError:
            self._fail(index, "exit 0 without writing its report")
            return 0
        digest = hashlib.sha256(blob).hexdigest()
        if self.digests.setdefault(index, digest) != digest:
            self._fail(index, "report differs from the same request's first report")
            return len(blob)
        try:
            problems = self.checker.check(json.loads(blob))
        except ValueError as exc:
            problems = [f"report is not JSON: {exc}"]
        if problems:
            self._fail(index, "; ".join(problems))
        return len(blob)


def _end_to_end(session, passes: list[list[float]]) -> tuple[dict, dict]:
    workload = session.workload
    samples = [t for times in passes for t in times]
    percentile = tail_percentile(MIN_PASSES * len(workload.requests))
    draws = sum(r.draws for r in workload.requests)
    draw_rates = [draws / sum(t for t, r in zip(times, workload.requests) if r.draws)
                  for times in passes]
    metrics = {
        "wall_s": statistics.median(sum(times) for times in passes),
        "report_ms_p50": 1e3 * statistics.median(samples),
        "report_ms_tail": 1e3 * nearest_rank(samples, percentile),
        "trials_per_s": statistics.median(draw_rates),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_frac": (session.attempted - session.failed) / session.attempted,
    }
    medians = [statistics.median(times[i] for times in passes)
               for i in range(len(workload.requests))]
    details = {"passes": len(passes), "samples": len(samples),
               "tail_percentile": percentile,
               "request_median_ms": [[r.kind, 1e3 * m] for r, m in
                                     zip(workload.requests, medians)],
               "request_first_ms": [1e3 * t for t in passes[0]],
               "cache_suspects": [
                   r.kind for r, m, first in
                   zip(workload.requests, medians, passes[0])
                   if m < CACHE_FLAG_RATIO * first]}
    return metrics, details


def _per_layer(tracer, plain, traced, bytes_out) -> tuple[dict, dict]:
    metrics = layer_metrics(tracer.spans, len(traced))
    request_s = sum(map(sum, traced)) / len(traced)
    plain_wall = statistics.median(map(sum, plain))
    traced_wall = statistics.median(map(sum, traced))
    metrics["cli.bytes_out"] = bytes_out / len(traced)
    metrics["trace.request_s"] = request_s
    metrics["trace.self_coverage"] = sum(
        v for k, v in metrics.items() if k.endswith(".self_s")) / request_s
    metrics["trace.overhead_frac"] = (traced_wall - plain_wall) / plain_wall
    details = {"untraced_passes": len(plain), "traced_passes": len(traced),
               "untraced_pass_s": [sum(t) for t in plain],
               "traced_pass_s": [sum(t) for t in traced],
               "spans": len(tracer.spans)}
    return metrics, details


def child(args) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import qfplab
    import qfplab.cli as cli
    from qfplab import random_linear_code

    if Path(qfplab.__file__).resolve().parent != ROOT / "src" / "qfplab":
        print(f"qfplab imported from {qfplab.__file__}, not from src/",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed)
    codes = {(n, c, s): random_linear_code(n, c, s)
             for n, c, s in workload.linear_codes}
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="reports-", dir=OUT))
    try:
        if cli.main([*workload.warmup, "--out", str(workdir / "warmup.json")]) != 0:
            print("warm-up request failed", file=sys.stderr)
            return 1
        print("@@ready", flush=True)
        if sys.stdin.readline().strip() != "go":
            return 0
        checker = Checker(codes)  # enumerates references, outside all timing
        tracer = Tracer() if args.trace else None
        session = Session(cli, workload, checker, workdir, tracer)
        plain, traced = [], []
        bytes_out = 0
        started = perf_counter()
        while (perf_counter() - started < args.seconds
               or len(plain) < MIN_PASSES):
            times, _ = session.run_pass()
            plain.append(times)
            if tracer:
                times, size = session.run_pass(traced=True)
                traced.append(times)
                bytes_out += size
        if tracer:
            metrics, details = _per_layer(tracer, plain, traced, bytes_out)
            tracer.write(OUT / f"spans-{workload.name}-seed{args.seed}.jsonl.gz")
        else:
            metrics, details = _end_to_end(session, plain)
        details["machine"] = _machine()
        result = {"correct": session.failed == 0, "attempted": session.attempted,
                  "failed": session.failed, "metrics": metrics,
                  "details": details}
        print("@@result " + json.dumps(result), flush=True)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


# --- orchestration ------------------------------------------------------------

def _spawn(args, go: bool, deadline: float) -> tuple[float, dict | None]:
    """One fresh workload process: its set-up time, and its result if ``go``."""
    env = dict(os.environ, **THREAD_ENV)
    argv = [sys.executable, str(Path(__file__).resolve()), "--child",
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace)]
    start = perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, text=True,
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE)
    watchdog = threading.Timer(max(deadline - start, 0.0), proc.kill)
    watchdog.start()
    setup_s, result = None, None
    try:
        for line in proc.stdout:
            if line.startswith("@@ready"):
                setup_s = perf_counter() - start
                if go:
                    proc.stdin.write("go\n")
                proc.stdin.close()
                if not go:
                    break
            elif line.startswith("@@result "):
                result = json.loads(line[len("@@result "):])
            else:
                sys.stderr.write(line)
        proc.stdout.close()
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0 or setup_s is None or (go and result is None):
        raise RuntimeError(f"workload process exited {code} "
                           f"before {'its result' if setup_s else 'set-up'}")
    return setup_s, result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=tuple(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"workload seed (default {DEFAULT_SEED}; "
                             f"held out for gain claims: {HELDOUT_SEED})")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        return child(args)

    if not (ROOT / "src" / "qfplab" / "__init__.py").is_file():
        print(f"no qfplab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = perf_counter() + DEADLINE_S
    repeats = 1 if args.trace else SETUP_REPEATS
    try:
        setups = [_spawn(args, False, deadline)[0] for _ in range(repeats - 1)]
        setup_s, result = _spawn(args, True, deadline)
    except RuntimeError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    setups.append(setup_s)
    metrics = result["metrics"]
    details = result.pop("details")
    if not args.trace:
        metrics["setup_s"] = statistics.median(setups)
        details["setup_s_samples"] = setups
    result["metrics"] = {name: {"value": metrics[name], "unit": unit_of(name)}
                         for name in sorted(metrics)}

    OUT.mkdir(exist_ok=True)
    record = dict(result, workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace, details=details)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(f"workload {args.workload}  seed {args.seed}  "
          f"attempted {result['attempted']}  failed {result['failed']}")
    for key in ("passes", "samples", "tail_percentile", "untraced_passes",
                "traced_passes"):
        if key in details:
            print(f"  {key}: {details[key]}")
    for name, metric in result["metrics"].items():
        print(f"  {name:34s} {metric['value']:>16.6g} {metric['unit']}")
    if "request_first_ms" in details:
        print(f"  {'request':40s} {'first ms':>10s} {'median ms':>10s}")
        for (kind, median), first in zip(details["request_median_ms"],
                                         details["request_first_ms"]):
            print(f"  {kind:40s} {first:10.1f} {median:10.1f}")
    for kind in details.get("cache_suspects", ()):
        print(f"  warning: {kind}: median below {CACHE_FLAG_RATIO:g} of its "
              "first-pass time; work may be cached across requests")
    print("machine " + json.dumps(details["machine"], sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
