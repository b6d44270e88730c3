"""Every name that the benchmark tracer hooks or reads is still in the package.

``perfbench/spans.py`` wraps package functions by (module, dotted
attribute) and reads two cache tables off each flag ring.  A renamed or
deleted target would otherwise show only in the benchmark's own self-test,
and a renamed table not even there.  The tracer module is executed from
its source text, so the benchmark directory is only read.
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


def test_ring_tables_read_by_layer_metrics_exist():
    """``layer_metrics`` reads ``_xi_basis`` and ``_theta_chain`` off every
    flag ring and reports a missing table as 0 under ``trace.absent``, so
    a renamed table would only zero ``chow.xi_cache_entries``."""
    from plucker.chow import BundleModel, FlagRing, formal_segre

    ring = FlagRing(BundleModel.formal(formal_segre(2), 4), 2)
    assert ring._xi_basis and ring._theta_chain is None
    ring.pushforward_theta_power(6)
    tracer = spans.Tracer()
    tracer.rings.append(ring)
    report = spans.layer_metrics(tracer, types.SimpleNamespace(json_bytes=0, cases=0))
    assert report["absent"] == []
    metrics = report["metrics"]
    assert metrics["chow.xi_cache_entries"][0] == len(ring._xi_basis) > 0
    assert metrics["chow.chain_terms"][0] == sum(map(len, ring._theta_chain)) > 0


def test_routes_are_looked_up_at_call_time(monkeypatch, capsys):
    """The tracer's ``pushforward.*`` spans replace each route's module
    attribute, so ``verify.check_fourway`` and ``chern-pushforward`` must
    look the routes up there on every call, not in a table of function
    objects built at import."""
    from plucker import cli, pushforward, verify
    from plucker.chow import BundleModel, formal_segre

    base = formal_segre(2)
    real = pushforward.ch_pushforward_schur
    monkeypatch.setattr(pushforward, "ch_pushforward_schur",
                        lambda bundle, d: real(bundle, d) + base.segre_generator(2))
    result = verify.check_fourway(BundleModel.formal(base, 3), 1)
    assert not result.ok
    assert result.detail.startswith("closed and schur differ at s2: ")
    code = cli.main(["chern-pushforward", "--base", "formal", "--truncation", "2",
                     "--rank", "3", "--formal-bundle", "-d", "1"])
    err = capsys.readouterr().err
    assert code == 1
    assert "closed and schur differ at s2: " in err
