"""Every script under demos/ runs to completion in a fresh interpreter."""

from pathlib import Path

import pytest

from fresh import run_python

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_demos_exist():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_exits_zero(demo):
    proc = run_python([str(demo)])
    assert proc.returncode == 0, proc.stderr
