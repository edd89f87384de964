"""matsos batch benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload m7-peel --seed 1 --seconds 38 --trace 0

Run from anywhere; the sources are taken from ``src/`` next to this
directory, in the checkout that holds it.  Steps:

1. ``setup_s``: ``import matsos`` timed in fresh interpreters (after one
   discarded interpreter that may compile bytecode), median reported.
2. The workload's configs are generated from ``--seed`` and every lazy
   ``jets.space`` table is built, outside timing.
3. Timed passes (parse, ``run_config`` with one thread, ``dump_report``)
   fill ``--seconds``, at least two of them; ``wall_s`` is their median.
   The first pass gives the reference reports.
4. With ``--trace 1`` untraced and traced passes alternate instead, and the
   per-layer metrics come from the spans of the traced passes.

Every config run is checked against its expected outcome (exit code,
refusal family, failing conditions, reconstruction residual, residual
dimension) and its timing-stripped report against the reference report.
The last line of stdout is the JSON result; the lines above it are for
people.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

SETUP_RUNS = 5
MIN_PASSES = 2
IMPORTTIME_RUNS = 3
SUBPROCESS_TIMEOUT_S = 60
IMPORT_TIMER = ("import time; t = time.perf_counter(); import matsos; "
                "print(time.perf_counter() - t)")

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}

# name -> unit of the traced-run metrics, in output order.
PER_LAYER = {
    "jets.eval.calls": "count",
    "jets.eval.self_s": "s",
    "jets.eval.points": "count",
    "jets.mul.calls": "count",
    "jets.mul.self_s": "s",
    "jets.mul.const_operand_frac": "ratio",
    "grids.sample_pairs.calls": "count",
    "grids.sample_pairs.self_s": "s",
    "grids.sample_points.calls": "count",
    "monotone.holder_seminorm.calls": "count",
    "monotone.holder_seminorm.self_s": "s",
    "monotone.holder_seminorm.repeat_frac": "ratio",
    "symmat.jacobi.calls": "count",
    "symmat.jacobi.self_s": "s",
    "matfun.entry_jets.calls": "count",
    "matfun.entry_jets.self_s": "s",
    "matfun.repeat_frac": "ratio",
    "decompose.iterated_sd.self_s": "s",
    "decompose.assemble_vector_fields.self_s": "s",
    "decompose.scalar_sos.calls": "count",
    "verify.diag_elliptic_check.self_s": "s",
    "verify.subordinate_check.self_s": "s",
    "verify.strong_check.self_s": "s",
    "verify.quasiconformal_check.self_s": "s",
    "gallery.certificates.self_s": "s",
    "expr.to_dict.nodes": "count",
    "expr.to_dict.self_s": "s",
    "expr.from_dict.nodes": "count",
    "expr.from_dict.self_s": "s",
    "expr.tree_per_dag": "ratio",
    "report.dump.self_s": "s",
    "report.bytes": "B",
    "setup.scipy_import_s": "s",
    "trace.overhead_frac": "ratio",
}


def _cap_blas_threads():
    """Cap BLAS and OpenMP pools at the CPUs this process may use."""
    n = str(len(os.sched_getaffinity(0)))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = n


def _fresh_python(*args):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                          capture_output=True, text=True,
                          timeout=SUBPROCESS_TIMEOUT_S, check=True)


def measure_setup(runs):
    """Median seconds of `import matsos` over fresh interpreters."""
    _fresh_python("-c", "import matsos")
    return statistics.median(
        float(_fresh_python("-c", IMPORT_TIMER).stdout) for _ in range(runs))


def scipy_import_seconds(importtime_log):
    """Cumulative seconds of the outermost scipy imports in a -X importtime
    log (the log lists children before their parent, indented two spaces
    per level)."""
    total, path = 0, []
    for line in reversed(importtime_log.splitlines()):
        fields = line.removeprefix("import time:").split("|")
        if len(fields) != 3 or not fields[1].strip().isdigit():
            continue
        raw = fields[2].rstrip()
        name = raw.lstrip()
        depth = (len(raw) - len(name) - 1) // 2
        del path[depth:]
        is_scipy = name == "scipy" or name.startswith("scipy.")
        if is_scipy and not any(p == "scipy" or p.startswith("scipy.")
                                for p in path):
            total += int(fields[1])
        path.append(name)
    return total / 1e6


def measure_scipy_import(runs):
    return statistics.median(
        scipy_import_seconds(_fresh_python("-X", "importtime", "-c",
                                           "import matsos").stderr)
        for _ in range(runs))


def _digest(report):
    stripped = {k: v for k, v in report.items() if k != "timing"}
    text = json.dumps(stripped, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


class Runner:
    """Runs passes over one workload's jobs and checks every config run."""

    def __init__(self, jobs, report_mod, workloads_mod):
        self.jobs = jobs
        self.report = report_mod
        self.workloads = workloads_mod
        self.reference = None   # per-job digest from the first pass
        self.notes = []         # per-job summary lines from the first pass
        self.attempted = 0
        self.failed = 0
        self.errors = []        # one message per problem found

    def run_pass(self, tracer=None):
        """One pass over the jobs; returns its wall seconds (parse,
        run_config, dump_report), excluding the checks."""
        busy = 0.0
        digests = []
        for job in self.jobs:
            if tracer is not None:
                tracer.new_config()
                tracer.open("bench.config")
            t0 = time.perf_counter()
            try:
                report, code = self.report.run_config(json.loads(job.text),
                                                      threads=1)
                self.report.dump_report(report)
            except Exception as e:  # noqa: BLE001 - a raising run is a failure
                report, code, error = None, 1, f"{type(e).__name__}: {e}"
            else:
                error = None
            busy += time.perf_counter() - t0
            if tracer is not None:
                tracer.close()
            digests.append(self._check(job, report, code, error, len(digests)))
        if self.reference is None:
            self.reference = digests
        return busy

    def _check(self, job, report, code, error, i):
        self.attempted += 1
        if report is None:
            self.failed += 1
            self.errors.append(f"{job.label}: raised {error}")
            return None
        bad = self.workloads.problems(job, report, code)
        digest = _digest(report)
        if self.reference is None:
            dyads = [[c.get("constant") for c in d["certificates"].get(
                "dyad_domination", [])]
                for d in self.workloads.decompositions(report)]
            self.notes.append(
                f"  {job.label}: exit {code}, refusal {report['refusal']}, "
                f"sha256 {digest[:16]}"
                + (f", dyad_domination {dyads}" if dyads else ""))
        elif digest != self.reference[i]:
            bad.append("timing-stripped report differs from the first pass")
        self.failed += bool(bad)
        self.errors += [f"{job.label}: {b}" for b in bad]
        return digest

    def workload_digest(self):
        joined = ",".join(d or "raised" for d in self.reference)
        return hashlib.sha256(joined.encode()).hexdigest()


def layer_metrics(tracer, since, before):
    """Per-layer metrics of the traced spans and counts since a mark."""
    st = tracer.self_times(since)
    c = tracer.counts - before

    def frac(num, den):
        return c[num] / c[den] if c[den] else 0.0

    m = {}
    for name in PER_LAYER:
        base, _, kind = name.rpartition(".")
        if kind == "self_s":
            m[name] = st[base]
        elif kind in ("calls", "points", "nodes", "bytes"):
            m[name] = c[name]
    m["jets.mul.const_operand_frac"] = frac("jets.mul.const_operand",
                                            "jets.mul.calls")
    m["monotone.holder_seminorm.repeat_frac"] = frac(
        "monotone.holder_seminorm.repeat", "monotone.holder_seminorm.calls")
    m["matfun.repeat_frac"] = frac("matfun.repeat", "matfun.entry_jets.calls")
    m["expr.tree_per_dag"] = frac("expr.to_dict.nodes", "expr.to_dict.dag_nodes")
    return m


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="shrunken inputs and fewer set-up interpreters")
    args = p.parse_args(argv)

    if not (SRC / "matsos" / "__init__.py").is_file():
        print(f"perfbench: no matsos sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    runs = 2 if args.smoke else SETUP_RUNS
    if args.trace:
        scipy_s = measure_scipy_import(min(runs, IMPORTTIME_RUNS))
    else:
        setup_s = measure_setup(runs)

    sys.path.insert(0, str(SRC))
    import matsos
    from matsos import report as report_mod

    if Path(matsos.__file__).resolve().parent != SRC / "matsos":
        print(f"perfbench: imported matsos from {matsos.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    jobs = workloads.GENERATORS[args.workload](args.seed, smoke=args.smoke)
    for nvars in range(1, 9):
        for order in range(matsos.jets.MAX_ORDER + 1):
            matsos.jets.space(nvars, order)
    runner = Runner(jobs, report_mod, workloads)

    plain, traced, layers = [], [], []
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
    deadline = time.perf_counter() + args.seconds
    while True:
        if args.trace and len(plain) > len(traced):
            since, before = len(tracer.spans), Counter(tracer.counts)
            tracer.install()
            try:
                traced.append(runner.run_pass(tracer))
            finally:
                tracer.uninstall()
            layers.append(layer_metrics(tracer, since, before))
        else:
            plain.append(runner.run_pass())
        # Start another pass only if it should end by the deadline; keep
        # traced and untraced passes paired.
        typical = statistics.median(plain + traced)
        if (len(plain) + len(traced) >= MIN_PASSES
                and time.perf_counter() + typical > deadline
                and len(traced) == (len(plain) if args.trace else 0)):
            break

    wall_s = statistics.median(plain)
    failed_runs = runner.failed
    print(f"workload {args.workload}, seed {args.seed}: "
          f"{len(jobs)} configs per pass")
    print("\n".join(runner.notes))
    for e in runner.errors[:20]:
        print(f"FAILED {e}", file=sys.stderr)
    print(f"wall_s over {len(plain)} untraced passes: "
          f"{', '.join(f'{t:.3f}' for t in plain)} s")
    if args.trace:
        values = {k: statistics.median(m[k] for m in layers) for k in layers[0]}
        values["setup.scipy_import_s"] = scipy_s
        values["trace.overhead_frac"] = statistics.median(traced) / wall_s - 1
        units = PER_LAYER
        OUT.mkdir(exist_ok=True)
        spans_path = OUT / f"{args.workload}.spans.json"
        tracer.write(spans_path)
        print(f"traced wall {statistics.median(traced):.4f} s (median of "
              f"{len(traced)} traced passes); spans in {spans_path}")
    else:
        values = {"setup_s": setup_s, "wall_s": wall_s, "peak_rss_mb":
                  resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
        units = END_TO_END
        print(f"setup_s from {runs} fresh interpreters")
    metrics = {k: {"value": values[k], "unit": u} for k, u in units.items()}
    for k, m in metrics.items():
        print(f"{k} {m['value']:.6g} {m['unit']}")
    print(f"failed_frac {failed_runs / runner.attempted:.6g} ratio "
          f"({failed_runs} of {runner.attempted} config runs)")
    print(f"report_sha256 {runner.workload_digest()}")
    print(json.dumps({"correct": failed_runs == 0,
                      "attempted": runner.attempted,
                      "failed": failed_runs,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    _cap_blas_threads()
    sys.exit(main())
