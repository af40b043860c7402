"""Span tracing of qfplab's layers from outside the program.

``Tracer.install`` wraps every public function of each qfplab module, in
the module that defines it and in every qfplab namespace that imported
it, so calls between modules pass through the wrappers.  Each call
records a span: name, start, end, parent span and request id, plus
counts computed from its arguments.  Spans stay in memory until the run
ends.  A layer's self time is the time its spans cover minus the time
their child spans cover; private helpers count toward their public caller.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import sys
from dataclasses import dataclass
from math import comb, factorial
from time import perf_counter

PACKAGE = "qfplab"
LAYERS = ("codes", "qstate", "swaptest", "permtest", "protocols", "nearset", "cli")


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int
    request: int
    counts: dict | None = None

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _certify_words(args, kwargs, result):
    code = _arg(args, kwargs, 0, "code")
    enumerated = result.method in ("weight-enumeration", "exhaustive")
    return {"certify_words": 2**code.n - 1 if enumerated else 0}


def _fingerprint(args, kwargs, result):
    return {"amplitudes_built": 2 * _arg(args, kwargs, 0, "code").m}


def _joint_amplitudes(args, kwargs, result):
    return {"joint_amplitudes": 2 * _arg(args, kwargs, 0, "phi").dim ** 2}


def _perm_elements(args, kwargs, result):
    d = _arg(args, kwargs, 0, "phi").dim
    k = _arg(args, kwargs, 2, "k")
    return {"perm_elements": factorial(2 * k) * d ** (2 * k)}


def _set_audit(args, kwargs, result):
    vset = _arg(args, kwargs, 0, "vset")
    return {"pairs_audited": comb(vset.count, 2),
            "pair_macs": vset.count**2 * vset.d}


def _pair_audit(args, kwargs, result):
    pairs = _arg(args, kwargs, 0, "pairs")
    return {"pairs_audited": pairs, "pair_macs": pairs * _arg(args, kwargs, 1, "d")}


def _trials(args, kwargs, result):
    trials = _arg(args, kwargs, 2, "trials")
    quantum = _arg(args, kwargs, 0, "protocol_id") == "quantum"
    return {"trials": trials, "quantum_trials": trials if quantum else 0}


# Counts derived from a call's arguments (and result), keyed by span name.
COUNTERS = {
    "codes.certify_distance": _certify_words,
    "qstate.make_fingerprint": _fingerprint,
    "swaptest.swap_test_circuit_state": _joint_amplitudes,
    "permtest.p_eq_projection": _perm_elements,
    "nearset.audit_overlaps": _set_audit,
    "nearset.sample_pair_audit": _pair_audit,
    "protocols.run_experiment": _trials,
}


class Tracer:
    """Records spans while installed; ``request`` tags the spans of one request."""

    def __init__(self):
        self.spans: list[Span] = []
        self.request = -1
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index] = Span(name, start, perf_counter(), parent, self.request)
                stack.pop()
            if counter is not None:
                spans[index].counts = counter(args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"{PACKAGE}.{layer}"]
            for attr, obj in vars(module).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == module.__name__):
                    wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
        for modname, module in list(sys.modules.items()):
            if modname != PACKAGE and not modname.startswith(PACKAGE + "."):
                continue
            for attr, obj in list(vars(module).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patched.append((module, attr, obj))
                    setattr(module, attr, hit[1])

    def uninstall(self) -> None:
        for module, attr, obj in reversed(self._patched):
            setattr(module, attr, obj)
        self._patched.clear()

    def write(self, path) -> None:
        """Spans as gzipped JSON lines: name, start, end, parent, request, counts."""
        with gzip.open(path, "wt") as fh:
            for s in self.spans:
                fh.write(json.dumps([s.name, s.start, s.end, s.parent,
                                     s.request, s.counts]) + "\n")


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent >= 0:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        reach = s.start
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, reach), min(hi, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((s.end - s.start) - covered)
    return out


def _has_ancestor(spans: list[Span], index: int, name: str) -> bool:
    parent = spans[index].parent
    while parent >= 0:
        if spans[parent].name == name:
            return True
        parent = spans[parent].parent
    return False


def layer_metrics(spans: list[Span], passes: int) -> dict[str, float]:
    """Per-layer metrics, per pass over the request list."""
    selfs = self_times(spans)
    m: dict[str, float] = {}
    for layer in LAYERS:
        m[f"{layer}.calls"] = 0
        m[f"{layer}.self_s"] = 0.0
    for key in ("codes.certify_s", "codes.certify_words", "codes.agreement_calls",
                "qstate.fingerprints", "qstate.amplitudes_built",
                "protocols.trials", "protocols.quantum_trials",
                "swaptest.joint_amplitudes",
                "permtest.perm_elements", "nearset.pairs_audited",
                "nearset.pair_macs"):
        m[key] = 0
    experiment_s = 0.0
    protocol_fingerprints = 0
    for i, (s, self_s) in enumerate(zip(spans, selfs)):
        m[f"{s.layer}.calls"] += 1
        m[f"{s.layer}.self_s"] += self_s
        for key, value in (s.counts or {}).items():
            m[f"{s.layer}.{key}"] += value
        if s.name == "codes.certify_distance":
            m["codes.certify_s"] += s.end - s.start
        elif s.name == "codes.agreement_fraction":
            m["codes.agreement_calls"] += 1
        elif s.name == "qstate.make_fingerprint":
            m["qstate.fingerprints"] += 1
            if _has_ancestor(spans, i, "protocols.run_experiment"):
                protocol_fingerprints += 1
        elif s.name == "protocols.run_experiment":
            experiment_s += s.end - s.start
    trials = m["protocols.trials"]
    quantum_trials = m.pop("protocols.quantum_trials")
    out = {key: value / passes for key, value in m.items()}
    out["protocols.us_per_trial"] = 1e6 * experiment_s / trials if trials else 0.0
    # per quantum trial: the only protocol that builds fingerprints
    out["protocols.fingerprints_per_trial"] = (
        protocol_fingerprints / quantum_trials if quantum_trials else 0.0)
    return out
