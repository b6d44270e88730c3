"""The demo scripts run to completion, each asserting what it prints,
and the README's quick tour gives the values its comments state."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_all_four_demos_found():
    assert len(DEMOS) == 4


@pytest.mark.parametrize("script", DEMOS, ids=lambda path: path.name)
def test_demo_exits_zero(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, str(script)],
        capture_output=True,
        text=True,
        timeout=120,
        cwd=ROOT,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr


def _quick_tour_values():
    """The value of each expression statement in the README's "Library
    quick tour" block, in order, run as one script."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    tour = readme.split("## Library quick tour", 1)[1]
    block = tour.split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    values = []
    for node in ast.parse(block).body:
        if isinstance(node, ast.Expr):
            code = compile(ast.Expression(node.value), "README.md", "eval")
            values.append(eval(code, namespace))
        else:
            exec(compile(ast.Module([node], []), "README.md", "exec"), namespace)
    return values


def test_readme_quick_tour_states_its_values():
    degree, value, part, theta4 = _quick_tour_values()
    assert repr(degree) == "Fraction(2, 1)"
    assert repr(value).startswith("1/12 + 1/24*s1 + 1/144*s1^2 + ")
    assert repr(part) == "1/24*s1"
    assert theta4 == 2
