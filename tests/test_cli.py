import json

import pytest

from matsos.cli import main
from matsos.report import ConfigError, dump_report, run_config, validate_config

from fresh import run_python
from oracles import expand_tables


def run_cli(args, stdin=None):
    return run_python(["-m", "matsos.cli", *args], stdin=stdin)


class TestCatalogAndSchema:
    def test_list_is_byte_identical_across_runs(self):
        a = run_cli(["list"])
        b = run_cli(["list"])
        assert a.returncode == b.returncode == 0
        assert a.stdout == b.stdout
        names = [e["name"] for e in json.loads(a.stdout)]
        assert "q-lambda" in names
        assert names == sorted(names)

    def test_schema_is_versioned(self):
        out = run_cli(["schema"])
        assert out.returncode == 0
        schema = json.loads(out.stdout)
        assert schema["schema_version"] == 2
        assert schema["fields"]["version"]["enum"] == [1, 2]
        assert "matrix" in schema["fields"]


class TestValidation:
    def test_epsilon_below_quarter_rejected(self):
        cfg = {
            "version": 1,
            "matrix": {"gallery": "grushin-2x2"},
            "pipeline": "all",
            "params": {"epsilon": 0.1},
        }
        with pytest.raises(ConfigError) as info:
            validate_config(cfg)
        assert info.value.field == "params.epsilon"

    def test_unknown_gallery_named(self):
        with pytest.raises(ConfigError) as info:
            validate_config({"version": 1, "matrix": {"gallery": "nope"}})
        assert info.value.field == "matrix.gallery"

    def test_schema_violation_exits_one(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"version": 1, "matrix": {"gallery": "x"}}))
        proc = run_cli(["run", "--config", str(cfg)])
        assert proc.returncode == 1
        assert "matrix.gallery" in proc.stderr

    def test_p_out_of_range_rejected(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text(
            json.dumps(
                {
                    "version": 1,
                    "matrix": {"gallery": "grushin-2x2"},
                    "pipeline": "all",
                    "params": {"p": 9},
                }
            )
        )
        proc = run_cli(["run", "--config", str(cfg)])
        assert proc.returncode == 1
        assert "params.p" in proc.stderr


class TestRun:
    def q_lambda_config(self):
        return {
            "version": 1,
            "matrix": {"gallery": "q-lambda", "params": {"lam": 0.02}},
            "pipeline": "gallery",
            "seed": 0,
        }

    def test_q_lambda_report_content(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(self.q_lambda_config()))
        out = tmp_path / "report.json"
        proc = run_cli(["run", "--config", str(cfg), "--out", str(out)])
        assert proc.returncode == 0
        report = json.loads(out.read_text())
        cert = report["gallery_certificates"][0]
        assert cert["bound"] == pytest.approx(3.6)
        assert cert["verdict"] == "not-SOS-of-linear-forms"
        verdicts = {c["condition"]: c["verdict"] for c in report["checks"]}
        assert verdicts["quadratic-form-positivity"] == "pass"

    def test_report_deterministic_modulo_timing(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(self.q_lambda_config()))
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            proc = run_cli(["run", "--config", str(cfg), "--out", str(out)])
            assert proc.returncode == 0
            d = json.loads(out.read_text())
            d.pop("timing")
            outs.append(json.dumps(d, sort_keys=True))
        assert outs[0] == outs[1]

    def test_stdin_stdout_round_trip(self):
        proc = run_cli(
            ["run", "--config", "-"], stdin=json.dumps(self.q_lambda_config())
        )
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        assert report["tool"] == "matsos"

    def test_grushin_pipeline_run(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps(
                {
                    "version": 1,
                    "matrix": {"gallery": "grushin-2x2", "params": {"gamma": 0.5}},
                    "pipeline": "all",
                    "params": {"p": 2, "epsilon": 0.25, "delta": 0.1,
                               "delta2": 0.2},
                }
            )
        )
        proc = run_cli(["run", "--config", str(cfg)])
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        resid = report["decomposition"]["certificates"]["reconstruction_residual"]
        assert resid <= 1e-10

    def test_certificate_failure_exits_two(self):
        proc = run_cli(["gallery", "nondiag-noncomparable-2x2"])
        assert proc.returncode == 2
        report = json.loads(proc.stdout)
        assert report["counts"]["failed"] >= 1

    def test_refusal_exits_two_with_report(self, tmp_path):
        # diagonal entries 1, 1, flat: the pivot-tail comparability family
        # cannot hold, and the run reports a structured refusal
        from matsos import expr as ex
        from matsos.matfun import SymMatFun

        f = ex.flat(ex.var(0))
        A = SymMatFun.from_rows(
            [[ex.ONE, ex.ZERO, ex.ZERO],
             [ex.ZERO, ex.ONE, ex.ZERO],
             [ex.ZERO, ex.ZERO, f * f]],
            nvars=1,
        )
        cfg = {
            "version": 1,
            "matrix": A.to_json_dict(),
            "pipeline": "all",
            "params": {"p": 2},
            "grid": {"box": [[-1, 1]], "resolution": 51,
                     "exclude_radius": 0.05},
        }
        proc = run_cli(["run", "--config", "-"], stdin=json.dumps(cfg))
        assert proc.returncode == 2
        report = json.loads(proc.stdout)
        assert report["refusal"] == "pivot-tail-comparability"

    def test_inline_matrix_decompose_pipeline(self):
        from matsos import expr as ex
        from matsos.matfun import SymMatFun

        A = SymMatFun.constant([[4.0, 2.0], [2.0, 5.0]], nvars=1)
        cfg = {
            "version": 1,
            "matrix": A.to_json_dict(),
            "pipeline": "decompose",
            "params": {"p": 2},
            "grid": {"box": [[-1, 1]], "resolution": 21,
                     "exclude_radius": 0.1},
        }
        proc = run_cli(["run", "--config", "-"], stdin=json.dumps(cfg))
        assert proc.returncode == 0
        dec = json.loads(proc.stdout)["decomposition"]
        z = dec["peel_vectors"][0]
        assert dec["nodes"][z[0]]["kind"] == "sqrt"

    def test_threads_flag_accepted(self):
        cfg = {
            "version": 1,
            "matrix": {"gallery": "grushin-2x2"},
            "pipeline": "verify",
        }
        proc = run_cli(["run", "--config", "-", "--threads", "2"],
                       stdin=json.dumps(cfg))
        # verify on the rank-two example flags subordinaticity: exit 2
        assert proc.returncode == 2
        report = json.loads(proc.stdout)
        conds = [c["condition"] for c in report["checks"]]
        assert conds == ["diagonal-comparability", "subordinate", "quasiconformal"]


def _inline_config(entries):
    return {"version": 1, "pipeline": "verify",
            "matrix": {"dimension": 2, "nvars": 1, "entries": entries}}


ONE = {"kind": "const", "value": 1.0}


@pytest.mark.parametrize("entries", [
    [[ONE, ONE]],              # a row short
    [[ONE, ONE], [ONE]],       # a column short
    [[ONE, ONE], ONE],         # a row that is not a list
    {"0": [ONE, ONE]},         # not a list of rows
])
def test_ragged_inline_matrix_is_a_configuration_error(entries, tmp_path,
                                                       capsys):
    with pytest.raises(ConfigError) as info:
        validate_config(_inline_config(entries))
    assert info.value.field == "matrix.entries"
    cfg = tmp_path / "ragged.json"
    cfg.write_text(json.dumps(_inline_config(entries)))
    assert main(["run", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error") and "matrix.entries" in err


def _square_config(upper, lower, diagonal=30.0):
    d = {"kind": "const", "value": diagonal}
    return _inline_config([[d, upper], [lower, d]])


@pytest.mark.parametrize("lower, reason", [
    ({"kind": "bogus"}, "unknown node kind"),
    ({"kind": "const", "value": 5.0}, "symmetric"),
    ({"kind": "var", "index": 0}, "symmetric"),
])
def test_lower_triangle_is_read(lower, reason, tmp_path, capsys):
    """Every entry is loaded: one below the diagonal must be well formed and
    intern to the same node as its mirror above it."""
    cfg = _square_config({"kind": "const", "value": 0.0}, lower)
    with pytest.raises(ConfigError, match=reason) as info:
        run_config(cfg)
    assert info.value.field == "matrix.entries[1][0]"
    path = tmp_path / "asymmetric.json"
    path.write_text(json.dumps(cfg))
    assert main(["run", "--config", str(path)]) == 1
    assert "matrix.entries[1][0]" in capsys.readouterr().err


def test_bad_upper_entry_is_named():
    cfg = _square_config({"kind": "exp", "children": []},
                         {"kind": "const", "value": 0.0})
    with pytest.raises(ConfigError, match="one child") as info:
        run_config(cfg)
    assert info.value.field == "matrix.entries[0][1]"


def test_equal_entries_spelled_differently_are_symmetric():
    """5 and 5.0 are one constant: accepted, and each echoed as written."""
    cfg = _square_config({"kind": "const", "value": 5},
                         {"kind": "const", "value": 5.0})
    report, code = run_config(cfg)
    assert code in (0, 2)
    matrix = report["config"]["matrix"]
    rows, entries = matrix["nodes"], matrix["entries"]
    assert type(rows[entries[0][1]]["value"]) is int
    assert type(rows[entries[1][0]]["value"]) is float
    assert json.dumps(expand_tables(report["config"])) == json.dumps(cfg)


def test_malformed_inline_expression_is_a_configuration_error(tmp_path,
                                                              capsys):
    x = {"kind": "var", "index": 0}
    bad = {"kind": "intpow", "exponent": 1.5, "children": [x]}
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(_inline_config([[ONE, bad], [bad, ONE]])))
    assert main(["run", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error") and "'exponent'" in err


ROWS = [{"kind": "const", "value": 2.0}, {"kind": "var", "index": 0},
        {"kind": "exp", "children": [1]}]


def _table_config(nodes, entries=((0, 2), (2, 0))):
    cfg = _inline_config([list(row) for row in entries])
    cfg["matrix"]["nodes"] = nodes
    return cfg


def _child_row(*children):
    return ROWS + [{"kind": "sum", "children": list(children)}]


@pytest.mark.parametrize("cfg, field, reason", [
    (_table_config(_child_row(0, 7)), "matrix.nodes", "earlier row"),
    (_table_config(_child_row(0, -1)), "matrix.nodes", "earlier row"),
    (_table_config(_child_row(3)), "matrix.nodes", "earlier row"),  # itself
    (_table_config(ROWS[:2] + [{"kind": "exp", "children": [3]},
                               {"kind": "const", "value": 1.0}]),
     "matrix.nodes", "earlier row"),  # a later row
    (_table_config(_child_row(0, 1.5)), "matrix.nodes", "earlier row"),
    (_table_config(_child_row(0, True)), "matrix.nodes", "earlier row"),
    (_table_config(_child_row(0, "1")), "matrix.nodes", "earlier row"),
    (_table_config(_child_row(0, ROWS[0])), "matrix.nodes", "earlier row"),
    (_table_config(ROWS + [{"kind": "exp", "children": 1}]), "matrix.nodes",
     "must be a list"),
    (_table_config(ROWS + [{"kind": "exp", "children": [0, 1]}]),
     "matrix.nodes", "one child"),
    (_table_config(ROWS + [{"kind": "const", "value": "x"}]),
     "matrix.nodes", "finite number"),
    (_table_config(ROWS + [3]), "matrix.nodes", "'kind'"),
    (_table_config({"0": ROWS[0]}), "matrix.nodes", "list"),
    (_table_config(None), "matrix.nodes", "list"),
    (_table_config(ROWS, ((0, 3), (3, 0))), "matrix.entries[0][1]",
     "index of a row"),
    (_table_config(ROWS, ((0, -1), (-1, 0))), "matrix.entries[0][1]",
     "index of a row"),
    (_table_config(ROWS, ((True, 2), (2, 0))), "matrix.entries[0][0]",
     "index of a row"),
    (_table_config(ROWS, ((0, ROWS[0]), (ROWS[0], 0))),
     "matrix.entries[0][1]", "index of a row"),
    (_inline_config([[0, 2], [2, 0]]), "matrix.entries[0][0]", "'kind'"),
    (_table_config(ROWS, ((0, 2), (1, 0))), "matrix.entries[1][0]",
     "symmetric"),
])
def test_malformed_node_table_is_a_configuration_error(cfg, field, reason,
                                                       tmp_path, capsys):
    """A bad node table or row index is named, never a crash or a NaN: a
    child that is not the index of an earlier row (out of range, the row
    itself, a later row, a non-integer or a bool), a bad row, a missing or
    mistyped `nodes`, and a mirror entry that names another node."""
    with pytest.raises(ConfigError, match=reason) as info:
        run_config(cfg)
    assert info.value.field == field
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    assert main(["run", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error") and repr(field) in err


def test_node_table_matrix_runs_like_nested_entries():
    """Row indices may be integral floats, and a mirror entry may name
    another row that holds the same node; the run equals the one of the
    nested spelling, and the table is echoed as given."""
    nodes = ROWS + [{"kind": "exp", "children": [1.0], "note": "x"}]
    cfg = _table_config(nodes, ((0, 2), (3.0, 0)))
    exp_x = {"kind": "exp", "children": [ROWS[1]]}
    nested = _inline_config([[ROWS[0], exp_x], [exp_x, ROWS[0]]])
    (report, code), (want, want_code) = run_config(cfg), run_config(nested)
    assert report["config"]["matrix"] is cfg["matrix"]
    assert code == want_code
    for r in (report, want):
        del r["timing"], r["config"]
    assert report == want


@pytest.mark.parametrize("version", [True, False, 0, 3, 1.5, "1", None, [1]])
def test_version_must_be_one_or_two(version):
    """A version is 1 or 2 by the integer rule of the other fields: a bool
    is no version (True == 1 in Python)."""
    with pytest.raises(ConfigError, match="schema version") as info:
        validate_config({"version": version, "matrix": GRUSHIN})
    assert info.value.field == "version"


@pytest.mark.parametrize("version", [1, 2, 2.0])
def test_versions_one_and_two_are_accepted(version):
    validate_config({"version": version, "matrix": GRUSHIN})


def test_delta2_default_is_the_one_runs_use():
    """Validation and runs share one delta2 default (0.2): delta = 0.6 alone
    is a valid config and runs as if delta2 = 0.2 were given."""
    cfg = {"version": 1, "matrix": {"gallery": "grushin-2x2"},
           "pipeline": "decompose", "params": {"delta": 0.6}}
    validate_config(cfg)
    explicit = dict(cfg, params={"delta": 0.6, "delta2": 0.2})
    reports = []
    for c in (cfg, explicit):
        report, code = run_config(c)
        assert code == 0
        del report["timing"], report["config"]
        reports.append(report)
    assert reports[0] == reports[1]


GRUSHIN = {"gallery": "grushin-2x2"}
INLINE_2X2 = {"nvars": 1, "entries": [[ONE, ONE], [ONE, ONE]]}


@pytest.mark.parametrize("matrix, extra, field", [
    (GRUSHIN, {"params": {"p": "x"}}, "params.p"),
    (GRUSHIN, {"params": {"p": 2.7}}, "params.p"),
    (GRUSHIN, {"params": {"p": True}}, "params.p"),
    (GRUSHIN, {"params": {"delta": "0.1"}}, "params.delta"),
    (GRUSHIN, {"seed": "abc"}, "seed"),
    (GRUSHIN, {"grid": {"resolution": "x"}}, "grid.resolution"),
    (GRUSHIN, {"grid": {"box": [[-1]]}}, "grid.box"),
    (GRUSHIN, {"grid": {"max_points": 1.5}}, "grid.max_points"),
    (GRUSHIN, {"grid": {"exclusions": [{"radius": 0.1, "axes": [3]}]}},
     "grid.exclusions[0].axes"),
    (dict(INLINE_2X2, dimension=2.7), {}, "matrix.dimension"),
    (dict(INLINE_2X2, dimension="two"), {}, "matrix.dimension"),
    (dict(INLINE_2X2, dimension=2, nvars=False), {}, "matrix.nvars"),
    ({"gallery": "q-lambda", "params": {"lam": "x"}}, {}, "matrix.params.lam"),
    ({"gallery": "q-lambda", "params": {"lam": True}}, {}, "matrix.params.lam"),
    ({"gallery": "q-lambda", "params": {"lam": -1.0}}, {}, "matrix.params.lam"),
    (dict(GRUSHIN, params={"gamma": "x"}), {}, "matrix.params.gamma"),
    (dict(GRUSHIN, params={"gamma": 1.5}), {}, "matrix.params.gamma"),
    (dict(GRUSHIN, params={"lam": 0.1}), {}, "matrix.params.lam"),
    (GRUSHIN, {"grid": {"max_points": -5}}, "grid.max_points"),
    (GRUSHIN, {"grid": {"max_points": 0}}, "grid.max_points"),
    (GRUSHIN, {"grid": {"box": [[0.5, 0.5]]}}, "grid.box"),
    (GRUSHIN, {"grid": {"box": [[1, -1]]}}, "grid.box"),
    (GRUSHIN, {"seed": -1}, "seed"),
    (GRUSHIN, {"pipeline": "all", "seed": -1}, "seed"),
    (GRUSHIN, {"grid": {"seed": -1}}, "grid.seed"),
    (GRUSHIN, {"grid": {"exclude_radius": -0.1}}, "grid.exclude_radius"),
    (GRUSHIN, {"grid": {"exclusions": [{"radius": -0.1}]}},
     "grid.exclusions[0].radius"),
    (GRUSHIN, {"grid": {"resolution": 1}}, "grid.resolution"),
    (GRUSHIN, {"params": {"backend": "split-by-sign-cell"}}, "params.backend"),
])
def test_mistyped_config_field_is_a_configuration_error(matrix, extra, field,
                                                        tmp_path, capsys):
    cfg = {"version": 1, "matrix": matrix, "pipeline": "verify", **extra}
    with pytest.raises(ConfigError) as info:
        run_config(cfg)
    assert info.value.field == field
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    assert main(["run", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error") and repr(field) in err


@pytest.mark.parametrize("pipeline", ["decompose", "all"])
def test_explicit_principal_sqrt_backend_is_the_default(pipeline):
    """`principal-sqrt` is the one scalar SOS backend: naming it runs to
    the report of leaving it out, apart from the config echo and timing."""
    texts, codes = [], []
    for params in ({}, {"backend": "principal-sqrt"}):
        report, code = run_config({"version": 1, "matrix": GRUSHIN,
                                   "pipeline": pipeline, "params": params})
        del report["config"], report["timing"]
        texts.append(dump_report(report))
        codes.append(code)
    assert texts[0] == texts[1]
    assert codes[0] == codes[1]


def test_negative_cli_seed_is_a_configuration_error(capsys):
    assert main(["gallery", "block-M7", "--seed", "-1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error") and "'seed'" in err


@pytest.mark.parametrize("scale", ["nan", "inf", "0", "-1"])
def test_bad_grid_scale_is_a_configuration_error(scale, capsys):
    """A `--grid-scale` that is not a finite number > 0 is named, not a
    numpy error of the scaled resolution."""
    assert main(["gallery", "grushin-2x2", "--grid-scale", scale]) == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error") and "'grid_scale'" in err


def test_grid_scale_clamps_a_scaled_resolution_to_two():
    """A given resolution must be >= 2, but `--grid-scale` may shrink it
    below 2: the scaled lattice of grushin-2x2 (one variable) keeps 2
    points."""
    cfg = {"version": 1, "matrix": GRUSHIN, "pipeline": "verify",
           "grid": {"resolution": 3, "exclude_radius": 0.0}}
    report, _ = run_config(cfg, grid_scale=0.4)
    assert report["counts"]["grid_points"] == 2


def test_dimension_above_max_dim_exits_one(tmp_path, capsys):
    # a 20 x 20 inline matrix is well formed but larger than MAX_DIM = 16
    cfg = _inline_config([[ONE] * 20 for _ in range(20)])
    cfg["matrix"]["dimension"] = 20
    path = tmp_path / "big.json"
    path.write_text(json.dumps(cfg))
    assert main(["run", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error")
    assert "'matrix.dimension'" in err and "1..16" in err


def test_integral_floats_are_integer_fields():
    validate_config({"version": 1, "matrix": dict(INLINE_2X2, dimension=2.0),
                     "params": {"p": 2.0}, "seed": 3.0})


def test_main_entry_in_process(capsys):
    code = main(["list"])
    assert code == 0
    out = capsys.readouterr().out
    assert json.loads(out)


def test_import_does_not_load_scipy():
    """Importing matsos loads no scipy and builds no jet space tables and no
    variable restriction of one."""
    code = ("import sys, matsos; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')); "
            "print(matsos.jets.space.cache_info().currsize); "
            "print(matsos.jets._restrict.cache_info().currsize)")
    proc = run_python(["-c", code])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[:3] == ["[]", "0", "0"]
