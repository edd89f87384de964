"""Every public name of the package, and every function and property
defined in the body of a public class, is reached by a run, or is
allowlisted with a reason.

The trace runs `run_config` on every gallery item under every pipeline,
one inline `verify` configuration whose entries pass through
`expr.from_json` and whose report is written by `dump_report`, that
report's config echo (a node table) run again, and the
CLI `list` and `schema` commands, all under `sys.setprofile`.  A function
is reached when its code is called, a class when the code of any function
in its body is.  Exceptions and data names (constants, tables) are not
checked: a profile sees calls, not raises or reads.  Nor are the methods
that `dataclass` and `namedtuple` generate, whose code is not in the
module's file.
"""

import contextlib
import importlib
import inspect
import io
import pkgutil
import sys

import pytest

import matsos
from matsos import cli, report
from matsos import expr as ex
from matsos.gallery import GALLERY

# Not reached yet; the ROADMAP plans to wire each into a pipeline.  An entry
# that a run reaches fails the test, so it leaves the list with the wiring.
PLANNED = {
    "monotone.omega_monotone_check": "to check omega-monotonicity in a run",
    "monotone.omega_value": "the modulus omega_monotone_check evaluates",
    "monotone.MonotoneSpec": "the modulus omega_monotone_check evaluates",
    "grids.GridSpec.ball_points": "the samples of omega_monotone_check",
    "verify.scalar_sos_hypothesis_check": "to vet each pivot before its SOS",
    "decompose.residual_dyads": "to write a 1x1 residual as two dyads",
}

# Library API for callers of the package, reached by a run or not.
_BUILD = "expression constructor, library API"
_SERIAL = "expression serializer, library API"
LIBRARY = {
    **{f"expr.{name}": _BUILD for name in (
        "var", "const", "add", "mul", "intpow", "recip", "sqrt", "exp",
        "flat", "flatabs", "bump")},
    **{f"expr.{name}": _SERIAL for name in (
        "to_dict", "from_dict", "to_json", "from_json")},
    "jets.eval_jet": "one jet at one point, library API",
    "jets.Jet4": "the single-point jet eval_jet returns, library API",
    "matfun.SymMatFun.values": "matrix values at given points, library API",
    "matfun.SymMatFun.value": "the matrix at one point, library API",
    "jets.JetBatch.derivative": "one D^mu row at given points, library API",
    "jets.JetBatch.limit": "the flag path of the flat primitives, which "
                           "reads it only when a flat child is flagged",
    "expr.ScalarExpr.__sub__": "operator sugar, library API",
    "expr.ScalarExpr.__rsub__": "operator sugar, library API",
    "expr.ScalarExpr.__truediv__": "operator sugar, library API",
    "expr.ScalarExpr.__setattr__": "refuses to mutate a shared node; a run "
                                   "never tries",
    "expr.ScalarExpr.__repr__": "readable form for a library caller",
    "jets.JetSpace.__init__": "built only through the cached `jets.space`: "
                              "after earlier tests in one process, a run "
                              "may build none",
}


def _modules():
    for info in pkgutil.iter_modules(matsos.__path__):
        yield importlib.import_module(f"matsos.{info.name}")


def _function(v):
    """The function of a class-body value (a property's getter, a static or
    class method's function), or None."""
    f = v.fget if isinstance(v, property) else getattr(v, "__func__", v)
    return f if inspect.isfunction(f) else None


def _codes(obj):
    """Code objects of a function, or of every function in a class body."""
    if isinstance(obj, type):
        return {f.__code__ for f in map(_function, vars(obj).values()) if f}
    return {_function(obj).__code__}


def _resolve(dotted):
    """The object a dotted name under `matsos` names; each name is read from
    its owner's namespace, so that a property is the property and not its
    value."""
    module, *path = dotted.split(".")
    obj = importlib.import_module(f"matsos.{module}")
    for name in path:
        obj = vars(obj)[name]
    return obj


def _traced_runs():
    x = ex.var(0)
    f = ex.from_json(ex.to_json(ex.flat(x)))
    half_f = ex.mul(ex.const(0.5), f)
    rows = [[ex.ONE, half_f], [half_f, ex.mul(f, f)]]
    entries = [[ex.to_dict(e) for e in row] for row in rows]
    inline = {"version": 1, "pipeline": "verify",
              "matrix": {"dimension": 2, "nvars": 1, "entries": entries}}
    for name in GALLERY:
        for pipeline in report.PIPELINES:
            cfg = {"version": 1, "matrix": {"gallery": name},
                   "pipeline": pipeline, "seed": 0}
            report.dump_report(report.run_config(cfg, grid_scale=0.6)[0])
    echoed = report.run_config(inline, grid_scale=0.6)[0]
    report.dump_report(echoed)
    # the echo holds the matrix as a node table: a run reads it back
    report.run_config(echoed["config"], grid_scale=0.6)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["list"]) == 0
        assert cli.main(["schema"]) == 0


@pytest.fixture(scope="module")
def called():
    seen = set()

    def profile(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    sys.setprofile(profile)
    try:
        _traced_runs()
    finally:
        sys.setprofile(None)
    return seen


def test_public_names_are_reached_or_allowlisted(called):
    unreached = []
    for mod in _modules():
        for name in getattr(mod, "__all__", ()):
            obj = getattr(mod, name)
            if not (inspect.isfunction(obj) or inspect.isclass(obj)):
                continue
            if inspect.isclass(obj) and issubclass(obj, BaseException):
                continue
            dotted = f"{mod.__name__.split('.', 1)[1]}.{name}"
            if dotted in PLANNED or dotted in LIBRARY:
                continue
            if not _codes(obj) & called:
                unreached.append(dotted)
    assert not unreached, f"public but reached by no run: {unreached}"


def _public_classes():
    for mod in _modules():
        for name in getattr(mod, "__all__", ()):
            obj = getattr(mod, name)
            if inspect.isclass(obj) and not issubclass(obj, BaseException):
                yield mod, f"{mod.__name__.split('.', 1)[1]}.{name}", obj


def test_public_methods_are_reached_or_allowlisted(called):
    """Method granularity: a public class reached through one method may
    still carry methods that no run calls."""
    unreached = []
    for mod, owner, cls in _public_classes():
        if owner in PLANNED or owner in LIBRARY:
            continue
        for name, v in vars(cls).items():
            f = _function(v)
            if f is None or f.__code__.co_filename != mod.__file__:
                continue
            dotted = f"{owner}.{name}"
            if dotted in PLANNED or dotted in LIBRARY:
                continue
            if f.__code__ not in called:
                unreached.append(dotted)
    assert not unreached, f"public methods reached by no run: {unreached}"


def test_planned_names_exist_and_are_not_reached(called):
    for dotted in PLANNED:
        assert not _codes(_resolve(dotted)) & called, (
            f"{dotted} is reached now; drop it from PLANNED")


def test_library_names_exist():
    for dotted in LIBRARY:
        assert _codes(_resolve(dotted)), dotted
