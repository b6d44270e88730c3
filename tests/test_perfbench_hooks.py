"""Every name that the benchmark tracer hooks is still bound in the package.

``perfbench/spans.py`` wraps package functions by (module, dotted
attribute).  A renamed or deleted target would otherwise show only in the
benchmark's own self-test.  The tracer module is executed from its source
text, so the benchmark directory is only read.
"""

import importlib
import types
from pathlib import Path

import pytest

SPANS_FILE = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    module = types.ModuleType("perfbench_spans")
    module.__file__ = str(SPANS_FILE)
    exec(compile(SPANS_FILE.read_text(), str(SPANS_FILE), "exec"), module.__dict__)
    return module


spans = _load_spans()
TARGETS = sorted(set(spans.SPANS.values())
                 | {target for targets in spans.LEAVES.values() for target in targets})


@pytest.mark.parametrize("module, attr", TARGETS, ids=[f"{m}:{a}" for m, a in TARGETS])
def test_hooked_name_resolves(module, attr):
    importlib.import_module(module)
    assert callable(spans._resolve(module, attr))
