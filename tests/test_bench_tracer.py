"""The benchmark tracer (perfbench/tracer.py) wraps matsos entry points by
name and reads their arguments; a refactor that moves one breaks
`perfbench/run.py --trace 1`.  The tracer is loaded, not changed."""

import importlib
import importlib.util
import inspect
from pathlib import Path

from matsos.matfun import SymMatFun
from matsos.report import run_config

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
