"""Declarative runs and machine-readable reports.

The same entry point that backs the command line: a JSON-serializable
configuration selects a matrix (by gallery name or inline expression
trees), a pipeline, parameters and a grid; the report echoes the
configuration and is byte-identical across reruns apart from timing.
Reports write expressions as row indices into a node table, `nodes`,
one per decomposition and one per echoed inline matrix, so each distinct
subexpression is written once.

Equivalent CLI invocations:
    matsos gallery q-lambda --out report.json
    matsos run --config config.json --out report.json
    matsos list
    matsos schema
"""

import json

from matsos.matfun import SymMatFun
from matsos.report import run_config

print("== a gallery run")
cfg = {
    "version": 1,
    "matrix": {"gallery": "q-lambda", "params": {"lam": 0.02}},
    "pipeline": "gallery",
    "seed": 0,
}
report, code = run_config(cfg)
print("   exit code:", code)
for check in report["checks"]:
    print(f"   {check['condition']}: {check['verdict']}")
cert = report["gallery_certificates"][0]
print(f"   obstruction bound: {cert['bound']} -> {cert['verdict']}")

print("== an inline matrix through the full pipeline")
A = SymMatFun.constant([[4.0, 2.0], [2.0, 5.0]], nvars=1)
cfg = {
    "version": 1,
    "matrix": A.to_json_dict(),
    "pipeline": "all",
    "params": {"p": 2, "epsilon": 0.25, "delta": 0.1, "delta2": 0.2},
    "grid": {"box": [[-1, 1]], "resolution": 21, "exclude_radius": 0.1},
}
report, code = run_config(cfg)
print("   exit code:", code, " refusal:", report["refusal"])
print("   checks:", [c["condition"] for c in report["checks"]])
dec = report["decomposition"]
print("   peel vector entry kinds:",
      [dec["nodes"][k]["kind"] for k in dec["peel_vectors"][0]])
print("   node table rows:", len(dec["nodes"]))

print("== the echoed config runs again as it is")
again, _ = run_config(report["config"])
print("   same checks:", again["checks"] == report["checks"])

print("== reports are deterministic modulo timing")
a, _ = run_config(cfg)
b, _ = run_config(cfg)
a.pop("timing"), b.pop("timing")
print("   byte-identical:", json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True))
