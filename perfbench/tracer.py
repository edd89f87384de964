"""Span tracer that wraps matsos entry points from outside the package.

`Tracer.install()` replaces each traced function at every import binding
(module globals and class attributes) with a wrapper that records a span
``(name, start, end, parent)`` in memory, plus per-name counters.  Self
time of a span is its duration minus the durations of its child spans and
minus the time the tracer spent probing arguments inside it.
`uninstall()` restores every original binding.

Recursive entry points (``expr.to_dict``, ``expr.from_dict``) open one span
at the outermost call; the inner calls, which go through the same module
global, only count nodes.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter

import numpy as np

# span name -> [(module, attribute)] of the originals; methods are given as
# "Class.method".
ENTRY_POINTS = {
    "jets.eval": [("jets", "eval_jet_batch")],
    "jets.mul": [("jets", "JetSpace.mul")],
    "grids.sample_pairs": [("grids", "GridSpec.sample_pairs")],
    "grids.sample_points": [("grids", "GridSpec.sample_points")],
    "monotone.holder_seminorm": [("monotone", "holder_seminorm")],
    "symmat.jacobi": [("symmat", "_jacobi")],
    "matfun.entry_jets": [("matfun", "SymMatFun.entry_jets")],
    "decompose.iterated_sd": [("decompose", "iterated_sd")],
    "decompose.assemble_vector_fields": [("decompose", "assemble_vector_fields")],
    "decompose.scalar_sos": [("decompose", "scalar_sos")],
    "verify.diag_elliptic_check": [("verify", "diag_elliptic_check")],
    "verify.subordinate_check": [("verify", "subordinate_check")],
    "verify.strong_check": [("verify", "strong_check")],
    "verify.quasiconformal_check": [("verify", "quasiconformal_check")],
    "gallery.certificates": [
        ("gallery", "q_lambda_positivity_certificate"),
        ("gallery", "q_lambda_non_sos_certificate"),
        ("gallery", "failure_condition_check"),
        ("gallery", "incomparable_profiles_check"),
        ("gallery", "block_trace_comparability"),
    ],
    "expr.to_dict": [("expr", "to_dict")],
    "expr.from_dict": [("expr", "from_dict")],
    "report.dump": [("report", "dump_report")],
}
RECURSIVE = {"expr.to_dict", "expr.from_dict"}


def _resolve(module, attr):
    obj = sys.modules["matsos." + module]
    *owners, name = attr.split(".")
    for owner in owners:
        obj = getattr(obj, owner)
    return obj, name


def _key(points):
    return hash(np.ascontiguousarray(points, dtype=float).tobytes())


class Tracer:
    def __init__(self):
        self.spans = []           # (name, start, end, parent index or -1)
        self.probe_s = Counter()  # span index -> probe seconds inside it
        self.counts = Counter()
        self._stack = []
        self._seen = {}           # per config: identity key -> object kept alive
        self._restore = []

    # -- spans ---------------------------------------------------------------

    def open(self, name):
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(len(self.spans))
        self.spans.append((name, time.perf_counter(), None, parent))

    def close(self):
        end = time.perf_counter()
        idx = self._stack.pop()
        name, start, _, parent = self.spans[idx]
        self.spans[idx] = (name, start, end, parent)
        return end

    def _charge(self, since):
        """Charge probe time since `since` to the innermost open span."""
        if self._stack:
            self.probe_s[self._stack[-1]] += time.perf_counter() - since

    # -- counters that need the arguments or the result ----------------------

    def _first(self, key, keep):
        """True the first time `key` is seen in the current config."""
        if key in self._seen:
            return False
        self._seen[key] = keep
        return True

    def _probe(self, name, args, kwargs, result):
        c = self.counts
        if name == "jets.mul":
            _, a, b = args
            if not a[1:].any() or not b[1:].any():
                c["jets.mul.const_operand"] += 1
        elif name == "jets.eval":
            c["jets.eval.points"] += result.coef.shape[1]
        elif name == "monotone.holder_seminorm":
            h, x = args[0], args[1]
            if not self._first(("holder", id(h), _key(x)), h):
                c["monotone.holder_seminorm.repeat"] += 1
        elif name == "matfun.entry_jets":
            A, pts = args[0], args[1]
            order = kwargs.get("order", args[2] if len(args) > 2 else 0)
            if not self._first(("matfun", id(A), _key(pts), order), A):
                c["matfun.repeat"] += 1
        elif name == "expr.to_dict":
            if self._first(("dag", id(args[0])), args[0]):
                c["expr.to_dict.dag_nodes"] += 1
        elif name == "report.dump":
            c["report.bytes"] += len(result)

    def _wrap(self, name, fn):
        counts, stack = self.counts, self._stack
        clock = time.perf_counter

        if name in RECURSIVE:
            def traced(*args, **kwargs):
                t = clock()
                counts[name + ".nodes"] += 1
                self._probe(name, args, kwargs, None)
                self._charge(t)
                if stack and self.spans[stack[-1]][0] == name:
                    return fn(*args, **kwargs)
                counts[name + ".calls"] += 1
                self.open(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    self.close()
            return traced

        def traced(*args, **kwargs):
            counts[name + ".calls"] += 1
            self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = self.close()
            self._probe(name, args, kwargs, result)
            self._charge(end)
            return result

        return traced

    # -- installation --------------------------------------------------------

    def install(self):
        """Wrap every entry point at every binding in loaded matsos modules."""
        modules = [m for n, m in sys.modules.items()
                   if n == "matsos" or n.startswith("matsos.")]
        for name, targets in ENTRY_POINTS.items():
            for module, attr in targets:
                owner, key = _resolve(module, attr)
                original = getattr(owner, key)
                wrapped = self._wrap(name, original)
                if isinstance(owner, type):
                    self._rebind(owner, key, original, wrapped)
                    continue
                for mod in modules:
                    for k, v in list(vars(mod).items()):
                        if v is original:
                            self._rebind(mod, k, original, wrapped)

    def _rebind(self, owner, key, original, wrapped):
        setattr(owner, key, wrapped)
        self._restore.append((owner, key, original))

    def uninstall(self):
        while self._restore:
            owner, key, original = self._restore.pop()
            setattr(owner, key, original)

    def new_config(self):
        """Forget identities seen in the previous config (ids get reused)."""
        self._seen = {}

    # -- results -------------------------------------------------------------

    def self_times(self, since=0):
        """Self seconds per span name, over spans[since:]."""
        spans = self.spans
        child = Counter()
        for _, start, end, parent in spans[since:]:
            if parent >= 0:
                child[parent] += end - start
        out = Counter()
        for i in range(since, len(spans)):
            name, start, end, _ = spans[i]
            out[name] += end - start - child[i] - self.probe_s[i]
        return out

    def write(self, path):
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        rows = [[index[n], round(s, 9), round(e, 9), p]
                for n, s, e, p in self.spans]
        with open(path, "w") as f:
            json.dump({"fields": ["name", "start_s", "end_s", "parent"],
                       "names": names, "spans": rows}, f,
                      separators=(",", ":"))
