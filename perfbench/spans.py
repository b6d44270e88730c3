"""Span and counter tracing of the plucker package, installed from outside.

The tracer replaces public functions and methods of the package with
timing wrappers.  A function is replaced in every module and class
namespace that holds it, because ``verify`` and ``cli`` bind names such
as ``ch_pushforward_oracle`` and ``phi`` at import time.  No file of the
package changes.

Two kinds of wrapper:

* a span records name, start, end and the enclosing span of the same
  thread; span stacks are kept per thread because ``verify`` runs its
  cases in a thread pool;
* a leaf is a hot multiply method (about a million calls per pass); it
  is aggregated per thread as a call count plus the time of its
  outermost calls, and is not kept as individual spans.

Self time of a span is its duration minus the time its child spans
cover; it is accumulated while the run proceeds, and a later check
compares it with the same quantity computed from the recorded intervals.
"""

from __future__ import annotations

import functools
import sys
import threading
from time import perf_counter

# metric prefix -> (module, dotted attribute) of each span boundary
SPANS = {
    "cli.main": ("plucker.cli", "main"),
    "verify.run_all": ("plucker.verify", "run_all"),
    "verify.agreement": ("plucker.verify", "run_agreement_grid"),
    "verify.monomials": ("plucker.verify", "run_monomial_grid"),
    "verify.phi_suite": ("plucker.verify", "run_phi_suite"),
    "verify.identity_suite": ("plucker.verify", "run_identity_suite"),
    "verify.degree_suite": ("plucker.verify", "run_degree_suite"),
    "verify.check_fourway": ("plucker.verify", "check_fourway"),
    "pushforward.closed": ("plucker.pushforward", "ch_pushforward_closed"),
    "pushforward.schur": ("plucker.pushforward", "ch_pushforward_schur"),
    "pushforward.constterm": ("plucker.pushforward", "ch_pushforward_constterm"),
    "pushforward.oracle": ("plucker.pushforward", "ch_pushforward_oracle"),
    "pushforward.phi": ("plucker.pushforward", "phi"),
    "pushforward.monomial_ct": ("plucker.pushforward", "monomial_pushforward_ct"),
    "pushforward.monomial_det": ("plucker.pushforward", "monomial_pushforward_det"),
    "degree.plucker_degree": ("plucker.degree", "plucker_degree"),
    "chow.flagring_init": ("plucker.chow", "FlagRing.__init__"),
    "chow.theta_push": ("plucker.chow", "FlagRing.pushforward_theta_power"),
    "chow.from_terms": ("plucker.chow", "FlagRing.from_terms"),
    "symfunc.schur_delta": ("plucker.symfunc", "schur_delta"),
    "symfunc.gen_cauchy": ("plucker.symfunc", "gen_cauchy_check"),
    "symfunc.cauchy_witness": ("plucker.symfunc", "cauchy_mismatch_witness"),
    "exact.det": ("plucker.exact", "det"),
    "exact.const_of_product": ("plucker.exact", "const_of_product"),
}

LEAVES = {
    "chow.graded_mul": [("plucker.chow", "GradedElement.__mul__")],
    "exact.laurent_mul": [
        ("plucker.exact", "LaurentPoly.__mul__"),
        ("plucker.exact", "LaurentPoly.__rmul__"),
    ],
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "child_s")

    def __init__(self, name, parent):
        self.name = name
        self.parent = parent
        self.start = self.end = 0.0
        self.child_s = 0.0

    @property
    def total_s(self):
        return self.end - self.start

    @property
    def self_s(self):
        return self.total_s - self.child_s


class Tracer:
    """Collects spans, leaf counters and the flag rings built while
    installed.  One tracer per traced process."""

    def __init__(self):
        self.spans = []
        self.rings = []
        self._local = threading.local()
        self._leaf_tables = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _leaf_table(self):
        table = getattr(self._local, "leaves", None)
        if table is None:
            # {name: [calls, seconds, depth]}; one table per thread, so
            # counting needs no lock, and tables are summed at the end
            table = self._local.leaves = {name: [0, 0.0, 0] for name in LEAVES}
            self._leaf_tables.append(table)
        return table

    def span(self, name, fn):
        stack_of = self._stack
        finished = self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = stack_of()
            parent = stack[-1] if stack else None
            span = Span(name, parent)
            stack.append(span)
            span.start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
                if parent is not None:
                    parent.child_s += span.end - span.start
                finished.append(span)

        return traced

    def leaf(self, name, fn):
        table_of = self._leaf_table

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            slot = table_of()[name]
            slot[0] += 1
            if slot[2]:
                return fn(*args, **kwargs)
            slot[2] = 1
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                slot[1] += perf_counter() - start
                slot[2] = 0

        return counted

    def leaf_totals(self):
        totals = {name: [0, 0.0] for name in LEAVES}
        for table in self._leaf_tables:
            for name, (calls, seconds, _) in table.items():
                totals[name][0] += calls
                totals[name][1] += seconds
        return totals

    def install(self):
        """Wrap every span and leaf target wherever the package holds it."""
        for name, (module, attr) in SPANS.items():
            original = _resolve(module, attr)
            wrapped = self.span(name, original)
            if name == "chow.flagring_init":
                wrapped = self._recording_rings(wrapped)
            _replace_everywhere(original, wrapped)
        for name, targets in LEAVES.items():
            for module, attr in targets:
                original = _resolve(module, attr)
                _replace_everywhere(original, self.leaf(name, original))

    def _recording_rings(self, init):
        rings = self.rings

        @functools.wraps(init)
        def recording(ring, *args, **kwargs):
            init(ring, *args, **kwargs)
            rings.append(ring)

        return recording


def _resolve(module, attr):
    obj = sys.modules[module]
    for part in attr.split("."):
        obj = vars(obj)[part]
    return obj


def _package_namespaces():
    for name, module in list(sys.modules.items()):
        if name != "plucker" and not name.startswith("plucker."):
            continue
        yield module
        for value in list(vars(module).values()):
            if isinstance(value, type) and value.__module__ == name:
                yield value


def _replace_everywhere(original, wrapped):
    found = False
    for namespace in _package_namespaces():
        for key, value in list(vars(namespace).items()):
            if value is original:
                setattr(namespace, key, wrapped)
                found = True
    if not found:
        raise LookupError(f"{original!r} is bound nowhere in the package")


def outermost(spans, name):
    """Spans called ``name`` with no ancestor of the same name."""
    out = []
    for span in spans:
        if span.name != name:
            continue
        parent = span.parent
        while parent is not None and parent.name != name:
            parent = parent.parent
        if parent is None:
            out.append(span)
    return out


def self_time_mismatches(spans, tolerance=1e-9):
    """Spans whose self time, kept while the run proceeds, differs from
    their duration minus the part of their interval that their recorded
    child spans cover, computed afresh from the intervals.  A child
    recorded under the wrong parent, say a span of another thread, lies
    outside its parent's interval or overlaps a sibling, and shows here."""
    children = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(id(span.parent), []).append(span)
    bad = []
    for span in spans:
        covered = _covered(span, children.get(id(span), ()))
        if abs(span.self_s - (span.total_s - covered)) > tolerance:
            bad.append(span.name)
    return bad


def _covered(span, children):
    """Length of the union of the children's intervals within ``span``."""
    covered, reach = 0.0, span.start
    for child in sorted(children, key=lambda c: c.start):
        lo, hi = max(child.start, reach), min(child.end, span.end)
        if hi > lo:
            covered += hi - lo
            reach = hi
    return covered


def layer_metrics(tracer, out):
    """Per-layer metrics of one traced pass, as {name: (value, unit)}.

    ``out`` is the pass's output record, which gives the counts the
    harness reads from the program's outputs.  Ring tables are read from
    every flag ring after the pass; a table the implementation does not
    have is reported as 0 and listed under ``trace.absent``.
    """
    spans = tracer.spans

    def total(name):
        return sum(span.total_s for span in outermost(spans, name))

    def calls(name):
        return sum(1 for span in spans if span.name == name)

    cases = [span for span in spans if span.name == "verify.check_fourway"]
    rings_in_cases = 0
    for span in spans:
        if span.name == "chow.flagring_init":
            parent = span.parent
            while parent is not None and parent.name != "verify.check_fourway":
                parent = parent.parent
            rings_in_cases += parent is not None

    absent = []

    def ring_table(attr, size):
        # an unfilled table is None; a missing attribute means no table
        tables = [getattr(ring, attr, absent) for ring in tracer.rings]
        if tracer.rings and all(table is absent for table in tables):
            absent.append(attr)
        return sum(size(table) for table in tables
                   if table is not None and table is not absent)

    xi_entries = ring_table("_xi_basis", len)
    chain_terms = ring_table("_theta_chain", lambda chain: sum(map(len, chain)))
    theta_calls = calls("chow.theta_push")
    leaves = tracer.leaf_totals()
    s, count, ratio = "s", "count", "ratio"
    metrics = {
        "cli.self_s": (sum(span.self_s for span in spans if span.name == "cli.main"), s),
        "cli.json_bytes": (out.json_bytes, "B"),
        "verify.agreement_s": (total("verify.agreement"), s),
        "verify.monomials_s": (total("verify.monomials"), s),
        "verify.phi_suite_s": (total("verify.phi_suite"), s),
        "verify.identity_suite_s": (total("verify.identity_suite"), s),
        "verify.degree_suite_s": (total("verify.degree_suite"), s),
        "verify.cases": (out.cases, count),
        "verify.flagrings_per_case": (rings_in_cases / len(cases) if cases else 0, ratio),
        "pushforward.closed_s": (total("pushforward.closed"), s),
        "pushforward.schur_s": (total("pushforward.schur"), s),
        "pushforward.constterm_s": (total("pushforward.constterm"), s),
        "pushforward.oracle_s": (total("pushforward.oracle"), s),
        "pushforward.phi_s": (total("pushforward.phi"), s),
        "pushforward.phi_calls": (calls("pushforward.phi"), count),
        "pushforward.monomial_ct_s": (total("pushforward.monomial_ct"), s),
        "pushforward.monomial_det_s": (total("pushforward.monomial_det"), s),
        "degree.plucker_degree_s": (total("degree.plucker_degree"), s),
        "chow.flagrings": (calls("chow.flagring_init"), count),
        "chow.flagring_init_s": (total("chow.flagring_init"), s),
        "chow.theta_push_s": (total("chow.theta_push"), s),
        "chow.theta_push_calls": (theta_calls, count),
        "chow.from_terms_s": (total("chow.from_terms"), s),
        "chow.from_terms_calls": (calls("chow.from_terms"), count),
        "chow.graded_mul_calls": (leaves["chow.graded_mul"][0], count),
        "chow.graded_mul_s": (leaves["chow.graded_mul"][1], s),
        "chow.flag_basis": (sum(_flag_basis(ring) for ring in tracer.rings), count),
        "chow.xi_cache_entries": (xi_entries, count),
        "chow.chain_terms": (chain_terms, count),
        "chow.top_read_ratio": (theta_calls / chain_terms if chain_terms else 0, ratio),
        "symfunc.schur_delta_s": (total("symfunc.schur_delta"), s),
        "symfunc.gen_cauchy_s": (total("symfunc.gen_cauchy"), s),
        "symfunc.cauchy_witness_s": (total("symfunc.cauchy_witness"), s),
        "exact.laurent_mul_calls": (leaves["exact.laurent_mul"][0], count),
        "exact.laurent_mul_s": (leaves["exact.laurent_mul"][1], s),
        "exact.det_calls": (calls("exact.det"), count),
        "exact.det_s": (total("exact.det"), s),
        "exact.const_of_product_s": (total("exact.const_of_product"), s),
    }
    return {"metrics": metrics, "absent": absent}


def _flag_basis(ring):
    """Size r!/(r-d)! of the full flag basis of a ring."""
    size = 1
    for l in range(ring.d):
        size *= ring.bundle.rank - l
    return size
