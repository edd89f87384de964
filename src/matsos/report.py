"""Declarative run configuration and machine-readable reports.

A run configuration is a JSON object with a versioned schema: a matrix
function (a gallery reference with parameters, or inline expression
trees), a pipeline selection, decomposition parameters, a sampling grid
and a seed.  Reports echo the configuration and are byte-identical across
reruns of the same (config, seed) apart from the timing field.

Reports, the catalog and the schema are written by `dump_report`, byte-equal
to `json.dumps(obj, sort_keys=True, indent=2) + "\n"`; an object that
occurs several times is written once per depth it occurs at.  The echo of
an inline matrix shares one dict per distinct JSON subtree (see
`expr.from_dict`), and decompositions share one dict per distinct node, so
both are written in time linear in their distinct nodes.
"""

from __future__ import annotations

import time
from json.encoder import encode_basestring_ascii as _encode_str

from . import __version__, jets
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
from .matfun import EntryError, SymMatFun
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

SCHEMA_VERSION = 1

PIPELINES = ("decompose", "verify", "gallery", "all")

CONFIG_SCHEMA = {
    "schema_version": SCHEMA_VERSION,
    "type": "object",
    "fields": {
        "version": {"type": "integer", "const": SCHEMA_VERSION},
        "matrix": {
            "type": "object",
            "oneOf": [
                {
                    "gallery": "name from the catalog (see the list command)",
                    "params": "object of per-item parameters",
                },
                {
                    "dimension": "integer >= 1",
                    "nvars": "integer in 1..8",
                    "entries": "symmetric dimension x dimension array of "
                               "expression trees",
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
                "backend": "principal-sqrt | split-by-sign-cell",
            },
        },
        "grid": {
            "type": "object",
            "fields": {
                "box": "list of [lo, hi] per variable",
                "resolution": "integer >= 2",
                "exclude_radius": "number >= 0",
                "exclusions": "list of {radius, axes}",
                "max_points": "integer",
                "seed": "integer",
            },
        },
        "seed": {"type": "integer"},
        "out": {"type": "string", "optional": True},
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


def _integer(v, field):
    """An integer config value, by the rule of `expr.from_dict`."""
    n = as_integer(v)
    _require(n is not None, field, f"must be an integer, got {v!r}")
    return n


def _number(v, field):
    """A finite int or float config value, as a float."""
    x = as_finite_number(v)
    _require(x is not None, field, f"must be a finite number, got {v!r}")
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
    _require(p["backend"] in ("principal-sqrt", "split-by-sign-cell"),
             "params.backend", "unknown backend")
    params["backend"] = p["backend"]
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
        exclusions.append(Exclusion(_number(e["radius"], f"{field}.radius"),
                                    axes))
    res = int(_integer(d.get("resolution", 9), "grid.resolution") * scale)
    return GridSpec(
        box=tuple((_number(lo, "grid.box"), _number(hi, "grid.box"))
                  for lo, hi in box),
        resolution=max(res, 2),
        exclude_radius=_number(d.get("exclude_radius",
                                     0.05 if not exclusions else 0.0),
                               "grid.exclude_radius"),
        exclusions=tuple(exclusions),
        max_points=_integer(d.get("max_points", 4096), "grid.max_points"),
        seed=_integer(d.get("seed", seed), "grid.seed"),
    )


def validate_config(cfg):
    """Normalize and range-check a configuration dict."""
    _require(isinstance(cfg, dict), "<root>", "configuration must be an object")
    version = cfg.get("version", SCHEMA_VERSION)
    _require(version == SCHEMA_VERSION, "version",
             f"unsupported schema version {version!r}")
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
        for key in ("dimension", "nvars", "entries"):
            _require(key in matrix, f"matrix.{key}", "required for inline matrices")
        nvars = _integer(matrix["nvars"], "matrix.nvars")
        _require(1 <= nvars <= 8, "matrix.nvars", "must lie in 1..8")
        n = _integer(matrix["dimension"], "matrix.dimension")
        _require(n >= 1, "matrix.dimension", "must be at least 1")
        rows = matrix["entries"]
        _require(isinstance(rows, list) and len(rows) == n
                 and all(isinstance(r, list) and len(r) == n for r in rows),
                 "matrix.entries", f"must be a {n} x {n} array of expressions")
    pipeline = cfg.get("pipeline", "all")
    _require(pipeline in PIPELINES, "pipeline", f"must be one of {PIPELINES}")
    _params(cfg)
    _integer(cfg.get("seed", 0), "seed")
    return cfg


def build_matrix(cfg):
    """(matrix, gallery item or None, echo of an inline matrix's entries or
    None); the echo is the entries' JSON with byte-equal subtrees shared."""
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
    except EntryError as e:
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
        lam = float(gparams.get("lam", 0.02))
        checks.append(q_lambda_positivity_certificate(lam))
        extras.append(q_lambda_non_sos_certificate(lam).to_json_dict())
        checks.append(diag_elliptic_check(A, grid))
        if name == "q-lambda":
            checks.append(subordinate_check(A, grid))
    elif name == "grushin-2x2":
        res = decomposition_pipeline(A, 2, params["epsilon"], params["delta"],
                                     params["delta2"], grid,
                                     backend=params["backend"])
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
    `threads` is accepted and ignored: the checkers run in sequence, since
    a thread pool measured no gain for this pure-Python, GIL-bound work.
    The run evaluates under one `jets.run_table`, closed when it returns
    or raises.
    """
    with jets.run_table():
        return _run(cfg, grid_scale)


def _run(cfg, grid_scale):
    cfg = validate_config(cfg)
    t0 = time.monotonic()
    seed = _integer(cfg.get("seed", 0), "seed")
    A, item, entries = build_matrix(cfg)
    grid_cfg = cfg.get("grid")
    if grid_cfg is None and item is not None:
        grid = item.default_grid(grid_scale, seed)
    else:
        grid = parse_grid(grid_cfg, A.nvars, grid_scale, seed)
    params = _params(cfg)
    params["backend"] = ScalarSosBackend(
        name=params["backend"], delta=params["delta"],
        epsilon=params["epsilon"])
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
        dec = iterated_sd(A, pp, grid)
        decomposition = assemble_vector_fields(
            dec, params["backend"], grid,
            epsilon=params["epsilon"], delta=params["delta"],
            delta2=params["delta2"],
        )
    else:  # all
        pp = _check_p(params["p"], A.n)
        try:
            res = decomposition_pipeline(
                A, pp, params["epsilon"], params["delta"], params["delta2"],
                grid, backend=params["backend"])
            checks = res.reports
            decomposition = res.decomposition
        except HypothesisRefusal as r:
            refusal = r.failed_family
            checks = r.reports
    report = {
        "tool": "matsos",
        "tool_version": __version__,
        "schema_version": SCHEMA_VERSION,
        "config": cfg if entries is None else {
            **cfg, "matrix": {**cfg["matrix"], "entries": entries}},
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
    expression tree around it; one recursive function appending chunks to
    a list does not.  A container met again at the same depth (a shared
    subexpression, say) is written once: the repeat copies the chunks of
    its first writing, so the work grows with the distinct (container,
    depth) pairs, not with the size of the tree the text spells out.
    """
    out = []
    _emit(report, "", 0, out, [("\n", ",\n")], {})
    out.append("\n")
    return "".join(out)


def _emit(o, head, depth, out, levels, spans):
    """Append `head` and the JSON text of `o`, nested `depth` deep, to `out`.

    `levels[d]` holds the newline and the item separator at indent `d`; it
    grows as deeper containers are met, so each is built once per depth.
    Every chunk starts with the separator before it, so that a scalar item
    costs one string.  The type tests follow json's encoder in order.

    `spans[(id(c), d)]` is (start, end, len(head)) of the chunks
    `out[start:end]` written for the container `c` at depth `d`; its text
    there does not depend on where it sits, except for the head that its
    first chunk starts with.
    """
    if isinstance(o, str):
        out.append(head + _encode_str(o))
    elif o is None:
        out.append(head + "null")
    elif o is True:
        out.append(head + "true")
    elif o is False:
        out.append(head + "false")
    elif isinstance(o, int):
        out.append(head + int.__repr__(o))
    elif isinstance(o, float):
        if o != o:
            text = "NaN"
        elif o == _INF:
            text = "Infinity"
        elif o == -_INF:
            text = "-Infinity"
        else:
            text = float.__repr__(o)
        out.append(head + text)
    elif isinstance(o, (list, tuple, dict)):
        is_dict = isinstance(o, dict)
        if not o:
            out.append(head + ("{}" if is_dict else "[]"))
            return
        ident = (id(o), depth)
        span = spans.get(ident)
        if span is not None:
            start, end, hl = span
            out.append(head + out[start][hl:])
            out += out[start + 1:end]
            return
        start = len(out)
        if len(levels) == depth + 1:
            newline = levels[depth][0] + "  "
            levels.append((newline, "," + newline))
        newline, sep = levels[depth + 1]
        if is_dict:
            item_head = head + "{" + newline
            for key in sorted(o):  # _encode_str raises TypeError on a non-str
                _emit(o[key], item_head + _encode_str(key) + ": ", depth + 1,
                      out, levels, spans)
                item_head = sep
            out.append(levels[depth][0] + "}")
        else:
            item_head = head + "[" + newline
            for item in o:
                _emit(item, item_head, depth + 1, out, levels, spans)
                item_head = sep
            out.append(levels[depth][0] + "]")
        spans[ident] = (start, len(out), len(head))
    else:
        raise TypeError(f"Object of type {type(o).__name__} is not JSON "
                        f"serializable")


def catalog_json():
    return dump_report(list_gallery())


def schema_json():
    return dump_report(CONFIG_SCHEMA)
