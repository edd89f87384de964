"""Batch command line front end.

Subcommands:
    run      execute a JSON run configuration and write the report
    gallery  run a named gallery item's certificate battery
    list     print the stable catalog of gallery items
    schema   print the configuration schema

Exit status: 0 when every check passed, 2 on hypothesis refusal or
certificate failure, 1 on execution errors.  The report is written (to
--out or stdout) whenever any result exists.
"""

from __future__ import annotations

import argparse
import json
import sys

from .report import (
    ConfigError,
    catalog_json,
    dump_report,
    run_config,
    schema_json,
)


def build_parser():
    p = argparse.ArgumentParser(
        prog="matsos",
        description="decompose symmetric matrix functions into sums of "
        "squares and verify the hypotheses on sampled grids",
    )
    sub = p.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute a JSON run configuration")
    run.add_argument("--config", required=True,
                     help="path to the configuration file, or - for stdin")
    _common_flags(run)

    gal = sub.add_parser("gallery", help="run a named gallery item")
    gal.add_argument("name", help="item name (see the list subcommand)")
    gal.add_argument("--params", default="{}",
                     help="JSON object of item parameters")
    _common_flags(gal)

    sub.add_parser("list", help="print the gallery catalog")
    sub.add_parser("schema", help="print the configuration schema")
    return p


def _common_flags(p):
    p.add_argument("--out", default="-",
                   help="report path, - for stdout (default)")
    p.add_argument("--seed", type=int, default=None,
                   help="override the configuration seed")
    p.add_argument("--threads", type=int, default=1,
                   help="accepted for compatibility; checks run in sequence")
    p.add_argument("--grid-scale", type=float, default=1.0,
                   help="multiply grid resolutions by this factor")


def _read_config(path):
    if path == "-":
        return json.load(sys.stdin)
    with open(path) as f:
        return json.load(f)


def _write(text, out):
    if out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w") as f:
            f.write(text)


def main(argv=None):
    args = build_parser().parse_args(argv)
    if args.command == "list":
        sys.stdout.write(catalog_json())
        return 0
    if args.command == "schema":
        sys.stdout.write(schema_json())
        return 0
    try:
        if args.command == "run":
            cfg = _read_config(args.config)
        else:  # gallery
            try:
                params = json.loads(args.params)
            except json.JSONDecodeError as e:
                raise ConfigError("--params", f"invalid JSON: {e}")
            cfg = {
                "version": 1,
                "matrix": {"gallery": args.name, "params": params},
                "pipeline": "gallery",
            }
        if args.seed is not None:
            cfg["seed"] = args.seed
        report, code = run_config(cfg, threads=args.threads,
                                  grid_scale=args.grid_scale)
        out = args.out
        if out == "-" and isinstance(cfg, dict) and cfg.get("out"):
            out = cfg["out"]
        _write(dump_report(report), out)
        return code
    except ConfigError as e:
        sys.stderr.write(f"configuration error: {e}\n")
        return 1
    except (json.JSONDecodeError, OSError) as e:
        sys.stderr.write(f"error: {e}\n")
        return 1
    except Exception as e:  # noqa: BLE001 - execution errors map to exit 1
        sys.stderr.write(f"execution error: {type(e).__name__}: {e}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
