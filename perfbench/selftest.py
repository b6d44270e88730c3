"""Self-test of the benchmark harness, at tiny sizes.

    python3 perfbench/selftest.py

Runs every workload at the ``tiny`` size (``verify --max-rank 2``, one
``d=2`` oracle job, a rank-3 monomial grid with 2 trials), untraced and
traced, and asserts that:

* every metric named in BENCHMARK.json is emitted with its unit, and
  every check of the outputs passes;
* traced self times add up to each span's total (a mismatch is a failed
  check of the run), the check catches a child span recorded under the
  wrong parent, and counts repeat exactly between traced runs;
* the output checks catch a disagreeing route, a wrong degree, a raising
  job and a digest mismatch;
* in a directory holding only BENCHMARK.json and the benchmark's files,
  the benchmark exits non-zero without printing a result.

Exits 0 when all hold, 1 otherwise.  Takes about a minute on 2 cores.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

import run
import spans
import workloads

SEED = workloads.DEFAULT_SEED
# layer metrics each tiny workload must move, as evidence that spans were recorded
MUST_MOVE = {
    "verify": ("verify.phi_suite_s", "verify.agreement_s", "chow.theta_push_calls"),
    "oracle": ("pushforward.oracle_s", "chow.graded_mul_calls", "degree.plucker_degree_s"),
    "monomials": ("chow.from_terms_calls", "pushforward.monomial_ct_s"),
}


def check(problems, ok, message):
    if not ok:
        problems.append(message)


def _emitted(problems, workload, result, spec):
    want = {entry["name"]: entry["unit"] for entry in spec}
    got = {name: entry["unit"] for name, entry in result["metrics"].items()}
    check(problems, got == want, f"{workload}: emitted {got}, BENCHMARK.json names {want}")
    check(problems, set(result) == {"correct", "attempted", "failed", "metrics"},
          f"{workload}: result keys {sorted(result)}")


def test_workloads(problems, bench):
    for workload in workloads.WORKLOADS:
        result, notes = run.run_workload(workload, SEED, 0, False, size="tiny")
        _emitted(problems, workload, result, bench["end_to_end"])
        check(problems, result["correct"] and result["failed"] == 0,
              f"{workload}: untraced run failed {notes['failures']}")
        traced = []
        for _ in range(2):
            result, notes = run.run_workload(workload, SEED, 0, True, size="tiny")
            _emitted(problems, workload, result, bench["per_layer"])
            check(problems, result["correct"] and result["failed"] == 0,
                  f"{workload}: traced run failed {notes['failures']}")
            traced.append(result["metrics"])
        for name, entry in traced[0].items():
            if entry["unit"] != "s":
                check(problems, entry["value"] == traced[1][name]["value"],
                      f"{workload}: {name} differs between traced runs")
        for name in MUST_MOVE[workload]:
            check(problems, traced[0][name]["value"] > 0, f"{workload}: {name} is 0")


class FakeCli:
    """Stands in for plucker.cli: prints canned documents."""

    def __init__(self, docs):
        self.docs = docs

    def main(self, argv):
        doc = self.docs[argv[0]]
        if isinstance(doc, Exception):
            raise doc
        print(json.dumps(doc, indent=2, sort_keys=True))
        return 0


def _chern_docs(oracle_top):
    docs = []
    for method in workloads.METHODS:
        top = oracle_top if method == "oracle" else "1/2"
        docs.append({"method": method, "value": None, "params": {}, "degree_components": [
            {"degree": 0, "value": {"1": "1"}},
            {"degree": 1, "value": {"h": top}},
        ]})
    return docs


def test_checks_catch_bad_outputs(problems):
    # r=2, d=1, n=1: the degree must be (1*1+1)! * 1/2 = 1
    split = ("--base", "P1", "--roots=1,0", "-d", "1", "--format", "json")
    jobs = [workloads.CliJob("chern-split", ("chern-pushforward",) + split),
            workloads.CliJob("degree-split", ("degree",) + split)]
    good = {"chern-pushforward": _chern_docs("1/2"), "degree": {"value": "1"}}
    out = workloads.run_pass(jobs, FakeCli(good), None)
    check(problems, not out.failed and len(out.checks) == 4,
          f"checks of good outputs: {out.checks}")

    cases = {
        "disagreeing oracle": dict(good, **{"chern-pushforward": _chern_docs("1/3")}),
        "wrong degree": dict(good, degree={"value": "2"}),
        "raising job": dict(good, degree=RuntimeError("boom")),
    }
    for label, docs in cases.items():
        out = workloads.run_pass(jobs, FakeCli(docs), None)
        check(problems, out.failed, f"{label} passed the checks")
    out = workloads.run_pass(jobs, FakeCli(good), None, {"chern-split": "0" * 64})
    names = [name for name, _ in out.failed]
    check(problems, names == ["chern-split: pinned sha256", "degree-split: pinned sha256"],
          f"digest mismatches reported as {names}")


def _span(name, parent, start, end):
    span = spans.Span(name, parent)
    span.start, span.end = start, end
    if parent is not None:
        parent.child_s += end - start
    return span


def test_self_time_check(problems):
    root = _span("root", None, 0.0, 10.0)
    good = [root, _span("a", root, 1.0, 3.0), _span("b", root, 4.0, 6.0)]
    check(problems, not spans.self_time_mismatches(good),
          f"nested spans reported as {spans.self_time_mismatches(good)}")
    # a span of another thread recorded under root: it overlaps a sibling
    # and runs past root's end, so root's kept self time is too small
    root = _span("root", None, 0.0, 10.0)
    bad = [root, _span("a", root, 1.0, 3.0), _span("other", root, 2.0, 12.0)]
    check(problems, spans.self_time_mismatches(bad) == ["root"],
          f"misparented span reported as {spans.self_time_mismatches(bad)}")


def test_without_program(problems, bench):
    with tempfile.TemporaryDirectory(dir=run.ROOT, prefix=".selftest-") as bare:
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
        for path in bench["paths"]:
            shutil.copytree(os.path.join(run.ROOT, path), os.path.join(bare, path),
                            ignore=shutil.ignore_patterns("__pycache__"))
        argv = bench["command"] + ["--workload", "oracle", "--seed", "1", "--seconds", "1",
                                   "--trace", "0"]
        proc = subprocess.run(argv, cwd=bare, capture_output=True, text=True, timeout=180)
    lines = proc.stdout.strip().splitlines()
    check(problems, proc.returncode != 0, "exit code 0 without the program")
    check(problems, not lines or '"correct"' not in lines[-1],
          "printed a result without the program")


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    problems = []
    test_checks_catch_bad_outputs(problems)
    test_self_time_check(problems)
    test_without_program(problems, bench)
    test_workloads(problems, bench)
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest: ok" if not problems else f"selftest: {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
