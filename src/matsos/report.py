"""Declarative run configuration and machine-readable reports.

A run configuration is a JSON object with a versioned schema: a matrix
function (a gallery reference with parameters, or inline expressions), a
pipeline selection, decomposition parameters, a sampling grid and a seed.
Reports echo the configuration and are byte-identical across reruns of the
same (config, seed) apart from the timing field.

Reports are schema v2: every JSON object that holds expressions (the echo
of an inline matrix, each decomposition) carries one node table, `nodes`,
and names each expression by the index of its row (see `expr.NodeTable`),
so a report's text is linear in its distinct nodes and no container
occurs in it twice.  The echo of an inline matrix given as nested
expression objects (schema v1) is the node table the loader read them into,
one row per distinct spelling (`expr.from_dict`): inlining the rows gives
back the input byte for byte.  Configs of either version load either matrix
form.

Reports, the catalog and the schema are written by `dump_report`, byte-equal
to `json.dumps(obj, sort_keys=True, indent=2) + "\n"`; it walks with a
stack of its own, so a value nested past the recursion limit is written
too.
"""

from __future__ import annotations

import time
from json.encoder import encode_basestring_ascii as _encode_str

from . import __version__, gallery, jets
from .decompose import ScalarSosBackend, assemble_vector_fields, iterated_sd
from .expr import ExprError, as_finite_number, as_integer
from .gallery import (
    GALLERY,
    block_trace_comparability,
    failure_condition_check,
    incomparable_profiles_check,
    list_gallery,
    q_lambda_non_sos_certificate,
    q_lambda_positivity_certificate,
)
from .grids import Exclusion, GridSpec
from .matfun import MAX_DIM, FieldError, SymMatFun, check_shape
from .reporting import FAIL
from .verify import (
    HypothesisRefusal,
    RESIDUAL_GATE,
    decomposition_pipeline,
    diag_elliptic_check,
    quasiconformal_check,
    strong_check,
    subordinate_check,
)

SCHEMA_VERSION = 2
# config versions read: both accept either matrix form
VERSIONS = (1, 2)

PIPELINES = ("decompose", "verify", "gallery", "all")

CONFIG_SCHEMA = {
    "schema_version": SCHEMA_VERSION,
    "type": "object",
    "fields": {
        "version": {"type": "integer", "enum": list(VERSIONS),
                    "optional": True},
        "matrix": {
            "type": "object",
            "oneOf": [
                {
                    "gallery": "name from the catalog (see the list command)",
                    "params": "object of per-item parameters",
                },
                {
                    "dimension": f"integer in 1..{MAX_DIM}",
                    "nvars": "integer in 1..8",
                    "entries": "symmetric dimension x dimension array of "
                               "expression objects (v1), or of row indices "
                               "into nodes",
                    "nodes": "optional node table: a list of expression "
                             "objects whose children are indices of "
                             "earlier rows",
                },
            ],
        },
        "pipeline": {"type": "string", "enum": list(PIPELINES)},
        "params": {
            "type": "object",
            "fields": {
                "p": "integer in 2..dimension+1",
                "epsilon": "number in [0.25, 1)",
                "delta": "number in (0, 1)",
                "delta2": "number in (0, 1)",
                "backend": "principal-sqrt",
            },
        },
        "grid": {
            "type": "object",
            "fields": {
                "box": "list of [lo, hi] per variable",
                "resolution": "integer >= 2",
                "exclude_radius": "number >= 0",
                "exclusions": "list of {radius, axes}",
                "max_points": "integer >= 1",
                "seed": "integer >= 0",
            },
        },
        "seed": {"type": "integer", "minimum": 0},
        "out": {"type": "string", "optional": True},
    },
    "report": {
        "schema_version": SCHEMA_VERSION,
        "expressions": "row indices into the node table 'nodes' of the "
                       "object that holds them: config.matrix of an inline "
                       "run, and each decomposition",
    },
}


class ConfigError(ValueError):
    def __init__(self, field, reason):
        super().__init__(f"config field {field!r}: {reason}")
        self.field = field
        self.reason = reason


def _require(cond, field, reason):
    if not cond:
        raise ConfigError(field, reason)


def _integer(v, field, least=None):
    """An integer config value (by the rule of `expr.as_integer`) >= least."""
    n = as_integer(v)
    _require(n is not None, field, f"must be an integer, got {v!r}")
    _require(least is None or n >= least, field,
             f"must be >= {least}, got {v!r}")
    return n


def _number(v, field, least=None):
    """A finite int or float config value >= least, as a float."""
    x = as_finite_number(v)
    _require(x is not None, field, f"must be a finite number, got {v!r}")
    _require(least is None or x >= least, field,
             f"must be >= {least}, got {v!r}")
    return x


# Defaults of the decomposition parameters, for validation and runs alike.
PARAM_DEFAULTS = {"p": 2, "epsilon": 0.25, "delta": 0.1, "delta2": 0.2,
                  "backend": "principal-sqrt"}


def _params(cfg):
    """Typed, range-checked `params` of a config, defaults filled in."""
    given = cfg.get("params", {})
    _require(isinstance(given, dict), "params", "must be an object")
    p = {**PARAM_DEFAULTS, **given}
    params = {"p": _integer(p["p"], "params.p")}
    for key in ("epsilon", "delta", "delta2"):
        params[key] = _number(p[key], f"params.{key}")
    _require(0.25 <= params["epsilon"] < 1.0, "params.epsilon",
             "must lie in [0.25, 1)")
    for key in ("delta", "delta2"):
        _require(0.0 < params[key] < 1.0, f"params.{key}", "must lie in (0, 1)")
    _require(p["backend"] == "principal-sqrt", "params.backend",
             "unknown backend; the one backend is 'principal-sqrt'")
    return params


def parse_grid(d, nvars, scale=1.0, seed=0):
    if d is None:
        d = {}
    _require(isinstance(d, dict), "grid", "must be an object")
    box = d.get("box")
    if box is None:
        box = [[-1.0, 1.0]] * nvars
    _require(isinstance(box, list) and len(box) == nvars
             and all(isinstance(side, list) and len(side) == 2 for side in box),
             "grid.box", f"need {nvars} [lo, hi] pairs")
    _require(isinstance(d.get("exclusions", []), list), "grid.exclusions",
             "must be a list")
    exclusions = []
    for i, e in enumerate(d.get("exclusions", [])):
        field = f"grid.exclusions[{i}]"
        _require(isinstance(e, dict) and "radius" in e, field,
                 "need an object with 'radius' (and optional 'axes')")
        axes = e.get("axes")
        if axes is not None:
            _require(isinstance(axes, list), f"{field}.axes",
                     "must be a list of variable indices")
            axes = tuple(_integer(a, f"{field}.axes") for a in axes)
            _require(all(0 <= a < nvars for a in axes), f"{field}.axes",
                     f"indices must lie in 0..{nvars - 1}")
        exclusions.append(Exclusion(
            _number(e["radius"], f"{field}.radius", least=0), axes))
    box = tuple((_number(lo, "grid.box"), _number(hi, "grid.box"))
                for lo, hi in box)
    _require(all(lo < hi for lo, hi in box), "grid.box",
             "each [lo, hi] needs lo < hi")
    res = _integer(d.get("resolution", 9), "grid.resolution", least=2)
    return GridSpec(
        box=box,
        resolution=max(int(res * scale), 2),  # --grid-scale may shrink it
        exclude_radius=_number(d.get("exclude_radius",
                                     0.05 if not exclusions else 0.0),
                               "grid.exclude_radius", least=0),
        exclusions=tuple(exclusions),
        max_points=_integer(d.get("max_points", 4096), "grid.max_points",
                            least=1),
        seed=_integer(d.get("seed", seed), "grid.seed", least=0),
    )


def validate_config(cfg):
    """Normalize and range-check a configuration dict."""
    _require(isinstance(cfg, dict), "<root>", "configuration must be an object")
    version = cfg.get("version", SCHEMA_VERSION)
    _require(as_integer(version) in VERSIONS, "version",
             f"unsupported schema version {version!r}; "
             f"must be one of {VERSIONS}")
    matrix = cfg.get("matrix")
    _require(isinstance(matrix, dict), "matrix", "required object")
    if "gallery" in matrix:
        name = matrix["gallery"]
        _require(name in GALLERY, "matrix.gallery",
                 f"unknown gallery item {name!r}; see the list command")
        params = matrix.get("params", {})
        _require(isinstance(params, dict), "matrix.params", "must be an object")
        for key, value in params.items():
            _require(key in GALLERY[name].param_schema, f"matrix.params.{key}",
                     f"not a parameter of {name!r}")
            _number(value, f"matrix.params.{key}")
    else:
        try:
            check_shape(matrix)
        except FieldError as e:
            raise ConfigError("matrix." + e.field, e.reason) from e
    pipeline = cfg.get("pipeline", "all")
    _require(pipeline in PIPELINES, "pipeline", f"must be one of {PIPELINES}")
    _params(cfg)
    _integer(cfg.get("seed", 0), "seed", least=0)
    return cfg


def build_matrix(cfg):
    """(matrix, gallery item or None, echo of an inline matrix or None);
    the echo is the matrix's JSON with its entries in a node table (see
    `SymMatFun.load_json`)."""
    matrix = cfg["matrix"]
    if "gallery" in matrix:
        item = GALLERY[matrix["gallery"]]
        params = matrix.get("params", {})
        try:
            return item.build(params), item, None
        except ValueError as e:
            # a value out of range; no item takes more than one parameter
            raise ConfigError("matrix.params." + ",".join(params), str(e)) from e
    try:
        A, echo = SymMatFun.load_json(matrix)
    except FieldError as e:
        raise ConfigError("matrix." + e.field, e.reason) from e
    except ExprError as e:
        raise ConfigError("matrix.entries", str(e)) from e
    return A, None, echo


def _check_p(p, n):
    _require(2 <= p <= n + 1, "params.p", f"must lie in 2..{n + 1}")
    return p


def _gallery_checks(name, A, cfg, grid, params):
    """Item-specific certificate batteries for the gallery pipeline."""
    gparams = cfg["matrix"].get("params", {})
    checks, extras = [], []
    if name in ("q-lambda", "q-lambda-dehomogenized"):
        lam = float(gparams.get("lam", gallery.DEFAULT_LAMBDA))
        checks.append(q_lambda_positivity_certificate(lam))
        extras.append(q_lambda_non_sos_certificate(lam).to_json_dict())
        checks.append(diag_elliptic_check(A, grid))
        if name == "q-lambda":
            checks.append(subordinate_check(A, grid))
    elif name == "grushin-2x2":
        res = decomposition_pipeline(A, 2, params["epsilon"], params["delta"],
                                     params["delta2"], grid)
        checks += res.reports
        extras.append({"decomposition": res.decomposition.to_json_dict()})
    elif name == "nondiag-noncomparable-2x2":
        checks.append(diag_elliptic_check(A, grid))
    elif name == "f-phi-psi":
        checks.append(diag_elliptic_check(A, grid))
        dp = 0.01
        checks.append(strong_check(A, 3, 0.3, dp, 0.01, grid))
        rep = strong_check(A, 3, 0.2, dp, 0.01, grid)
        rep.condition = "strongly-c4-sharpness-offdiag"
        checks.append(rep)
        tgrid = GridSpec(box=((0.003, 0.9),), resolution=200, exclude_radius=0.0)
        checks.append(failure_condition_check(None, 0.5, tgrid))
    elif name == "block-M7":
        checks.append(diag_elliptic_check(A, grid))
        checks.append(block_trace_comparability(A, grid))
    elif name == "block-N8":
        checks.append(diag_elliptic_check(A, grid))
        tgrid = GridSpec(box=((0.01, 0.9),), resolution=200, exclude_radius=0.0)
        checks.append(incomparable_profiles_check(tgrid))
    elif name == "block-P7":
        checks.append(diag_elliptic_check(A, grid))
        checks.append(quasiconformal_check(A, grid))
    else:  # pragma: no cover
        checks.append(diag_elliptic_check(A, grid))
    return checks, extras


def run_config(cfg, threads=1, grid_scale=1.0):
    """Execute a validated configuration; returns (report dict, exit code).

    Exit code 0 when every check passed, 2 on a hypothesis refusal or a
    failed certificate, 1 on execution errors (raised by the caller).
    `grid_scale` multiplies the grid resolutions; one that is not a finite
    number > 0 is a ConfigError.
    `threads` is accepted and ignored: the checkers run in sequence, since
    a thread pool measured no gain for this pure-Python, GIL-bound work.
    The run evaluates under one `jets.run_table`, closed when it returns
    or raises.
    """
    with jets.run_table():
        return _run(cfg, grid_scale)


def _run(cfg, grid_scale):
    cfg = validate_config(cfg)
    _require(_number(grid_scale, "grid_scale") > 0, "grid_scale",
             f"must be > 0, got {grid_scale!r}")
    t0 = time.monotonic()
    seed = _integer(cfg.get("seed", 0), "seed")
    A, item, echo = build_matrix(cfg)
    grid_cfg = cfg.get("grid")
    if grid_cfg is None and item is not None:
        grid = item.default_grid(grid_scale, seed)
    else:
        grid = parse_grid(grid_cfg, A.nvars, grid_scale, seed)
    params = _params(cfg)
    pipeline = cfg.get("pipeline", "all")
    checks, extras = [], []
    decomposition = None
    refusal = None
    if pipeline == "gallery":
        _require(item is not None, "pipeline",
                 "gallery pipeline needs a gallery matrix")
        checks, extras = _gallery_checks(item.name, A, cfg, grid, params)
    elif pipeline == "verify":
        checks = [
            diag_elliptic_check(A, grid),
            subordinate_check(A, grid),
            quasiconformal_check(A, grid),
        ]
    elif pipeline == "decompose":
        pp = _check_p(params["p"], A.n)
        backend = ScalarSosBackend(params["delta"], params["epsilon"])
        decomposition = assemble_vector_fields(iterated_sd(A, pp, grid),
                                               backend, grid)
    else:  # all
        pp = _check_p(params["p"], A.n)
        try:
            res = decomposition_pipeline(
                A, pp, params["epsilon"], params["delta"], params["delta2"],
                grid)
            checks = res.reports
            decomposition = res.decomposition
        except HypothesisRefusal as r:
            refusal = r.failed_family
            checks = r.reports
    report = {
        "tool": "matsos",
        "tool_version": __version__,
        "schema_version": SCHEMA_VERSION,
        "config": cfg if echo is None else {**cfg, "matrix": echo},
        "seed": seed,
        "checks": [c.to_json_dict() for c in checks],
        "gallery_certificates": extras,
        "refusal": refusal,
        "decomposition": (
            decomposition.to_json_dict() if decomposition is not None else None
        ),
        "counts": {
            "checks": len(checks),
            "failed": sum(1 for c in checks if c.verdict == FAIL),
            "grid_points": int(len(grid.sample_points())),
            "samples_evaluated": sum(
                c.counts.get("evaluated", 0) for c in checks
            ),
            "samples_excluded": sum(
                c.counts.get("excluded", 0) for c in checks
            ),
        },
        "timing": {"seconds": time.monotonic() - t0},
    }
    hard_failed = any(
        c.verdict == FAIL and c.condition != RESIDUAL_GATE for c in checks
    )
    code = 2 if (refusal is not None or hard_failed) else 0
    return report, code


_INF = float("inf")


def dump_report(report):
    """JSON text of a report (or of any JSON value): sorted keys, two-space
    indent and a final newline, byte-equal to `json.dumps(report,
    sort_keys=True, indent=2) + "\n"`.  Raises TypeError on a value json
    cannot write and on a key that is not a str.

    With `indent`, json runs its pure-Python encoder, which nests one
    generator per level, so every token pays for the depth of the
    expression tree around it, and a value nested deeper than the
    recursion limit raises RecursionError.  `_emit` walks with a stack of
    its own and appends chunks to one list, so neither holds.
    """
    out = []
    _emit(report, out)
    out.append("\n")
    return "".join(out)


def _emit(o, out):
    """Append the JSON text of `o` to `out`, in chunks.

    Each open container is a frame on a stack: its dict (None for a list),
    an iterator over its keys or items, the head of its next item and its
    closing text; `o` itself is the one item of a root frame.  The top
    frame writes its scalar items in one loop and stops at a nonempty
    container, which it opens as a new frame.  `levels[d]` holds the
    newline and the item separator at indent `d`; it grows as deeper
    containers are met, so each is built once per depth.  Every chunk
    starts with the separator before it, so that a scalar item costs one
    string.  The type tests follow json's encoder in order.
    """
    append, encode = out.append, _encode_str  # locals: the loop runs per item
    levels = [("\n", ",\n")]
    stack = [[None, iter((o,)), "", ""]]
    while stack:
        frame = stack[-1]
        d, items, head = frame[0], frame[1], frame[2]
        sep = levels[len(stack) - 1][1]
        for item in items:
            if d is None:
                o, h = item, head
            else:
                o, h = d[item], head + encode(item) + ": "
            head = sep
            if isinstance(o, str):
                append(h + encode(o))
            elif o is None:
                append(h + "null")
            elif o is True:
                append(h + "true")
            elif o is False:
                append(h + "false")
            elif isinstance(o, int):
                append(h + int.__repr__(o))
            elif isinstance(o, float):
                if o != o:
                    text = "NaN"
                elif o == _INF:
                    text = "Infinity"
                elif o == -_INF:
                    text = "-Infinity"
                else:
                    text = float.__repr__(o)
                append(h + text)
            elif isinstance(o, (list, tuple, dict)):
                is_dict = isinstance(o, dict)
                if not o:
                    append(h + ("{}" if is_dict else "[]"))
                    continue
                depth = len(stack)
                if len(levels) == depth:
                    newline = levels[depth - 1][0] + "  "
                    levels.append((newline, "," + newline))
                frame[2] = head
                close = levels[depth - 1][0] + ("}" if is_dict else "]")
                if is_dict:
                    # _encode_str raises TypeError on a key that is not a str
                    stack.append([o, iter(sorted(o)),
                                  h + "{" + levels[depth][0], close])
                else:
                    stack.append([None, iter(o), h + "[" + levels[depth][0],
                                  close])
                break
            else:
                raise TypeError(f"Object of type {type(o).__name__} is not "
                                f"JSON serializable")
        else:
            append(frame[3])
            stack.pop()


def catalog_json():
    return dump_report(list_gallery())


def schema_json():
    return dump_report(CONFIG_SCHEMA)
