"""The benchmark tracer (perfbench/tracer.py) wraps matsos entry points by
name and reads their arguments; a refactor that moves one breaks
`perfbench/run.py --trace 1`.  The tracer is loaded, not changed."""

import importlib
import importlib.util
import inspect
from pathlib import Path

from matsos import expr as ex
from matsos import jets
from matsos import report as report_mod
from matsos.matfun import SymMatFun
from matsos.report import run_config

X0 = ex.var(0)
TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_every_entry_point_resolves():
    tracer = _tracer()
    for name, targets in tracer.ENTRY_POINTS.items():
        for module, attr in targets:
            importlib.import_module("matsos." + module)
            owner, key = tracer._resolve(module, attr)
            assert callable(getattr(owner, key)), (name, module, attr)
    assert list(inspect.signature(SymMatFun.entry_jets).parameters) == [
        "self", "points", "order"]


def test_traced_run_probes_arguments_and_results():
    tracer = _tracer()
    t = tracer.Tracer()
    t.install()
    try:
        report, code = run_config({"version": 1,
                                   "matrix": {"gallery": "grushin-2x2"},
                                   "pipeline": "all"})
    finally:
        t.uninstall()
    assert code == 0
    assert t.counts["matfun.entry_jets.calls"] >= 3
    assert t.counts["jets.eval.points"] > t.counts["jets.eval.calls"] > 0
    assert t.counts["matfun.repeat"] == 0
    # the pair work goes through the traced seminorm entry point
    assert t.counts["monotone.holder_seminorm.calls"] > 0
    assert t.counts["monotone.holder_seminorm.repeat"] == 0


def test_traced_grushin_run_counts_one_mul_call_per_product(monkeypatch):
    """A product run in column blocks is one `jets.mul` call: the tracer
    counts every product once, however many blocks its dense kernel
    runs on."""
    counts = {"products": 0, "dense": 0, "blocks": 0}
    mul, dense = jets.JetSpace.mul, jets.JetSpace._dense

    def counted_mul(sp, a, b):
        counts["products"] += 1
        counts["dense"] += bool(a[1:].any() and b[1:].any())
        return mul(sp, a, b)

    def counted_dense(sp, a, b, out):
        counts["blocks"] += 1
        return dense(sp, a, b, out)

    monkeypatch.setattr(jets.JetSpace, "mul", counted_mul)
    monkeypatch.setattr(jets.JetSpace, "_dense", counted_dense)
    monkeypatch.setattr(jets, "_BLOCK", 64)  # blocks of 4 columns at order 4
    tracer = _tracer()
    t = tracer.Tracer()
    t.install()
    try:
        report, code = run_config({"version": 1,
                                   "matrix": {"gallery": "grushin-2x2"},
                                   "pipeline": "all"})
    finally:
        t.uninstall()
    assert code == 0
    assert t.counts["jets.mul.calls"] == counts["products"] > 0
    assert counts["blocks"] > counts["dense"] > 0


def test_traced_block_m7_run_makes_one_seminorm_call_per_assembly():
    """The order-2 seminorms of `assemble_vector_fields` evaluate the pair
    ladders of all their centers in one `holder_seminorm` call."""
    tracer = _tracer()
    t = tracer.Tracer()
    t.install()
    try:
        report, code = run_config({
            "version": 1, "matrix": {"gallery": "block-M7"}, "pipeline": "all",
            "params": {"p": 5, "epsilon": 0.3},
            "grid": {"box": [[-0.9, 0.9]] * 7, "resolution": 9,
                     "max_points": 40, "exclude_radius": 0.25}})
    finally:
        t.uninstall()
    assert code == 0
    assert t.counts["decompose.assemble_vector_fields.calls"] > 0
    assert (t.counts["monotone.holder_seminorm.calls"]
            == t.counts["decompose.assemble_vector_fields.calls"])


def test_traced_inline_run_goes_through_the_loader_and_the_writer():
    """An inline config is loaded through `expr.from_dict` and written by
    `report.dump_report`, the functions the tracer wraps by name."""
    tracer = _tracer()
    t = tracer.Tracer()
    Q = SymMatFun.from_rows([[2.0 + X0 * X0, X0], [X0, 3.0]], nvars=1)
    cfg = {"version": 1, "matrix": Q.to_json_dict(), "pipeline": "verify",
           "grid": {"box": [[-1, 1]], "resolution": 9}}
    t.install()
    try:
        report, code = run_config(cfg)
        text = report_mod.dump_report(report)
    finally:
        t.uninstall()
    assert code in (0, 2)
    assert t.counts["expr.from_dict.calls"] > 0
    assert t.counts["report.bytes"] == len(text) > 0
