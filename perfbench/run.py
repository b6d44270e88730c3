"""Benchmark of the plucker calculator.

    python3 perfbench/run.py [--workload verify|oracle|monomials|all]
                             [--seed N] [--seconds S] [--trace 0|1]

Each pass of a workload runs in a fresh worker process, one after
another, so that set-up, CPU time and peak RSS belong to that pass
alone.  Passes take the run's inputs in turn and repeat until
``--seconds`` is used up; every reported number is the median over the
passes of each input, averaged over the inputs.  Wall and CPU time are
reported at the reference speed of the worker's speed probe
(``wall_ref_s``, ``cpu_ref_s``); the measured times are printed, not
gated.  Set-up is measured in every pass and in extra set-up-only
processes.

With ``--trace 0`` the run reports the end-to-end metrics.  With
``--trace 1`` it alternates untraced and traced passes and reports the
per-layer metrics of the traced ones, plus the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Lines before it
name each metric with its unit, the provenance of the run, and every
failed check.  ``--workload all`` runs the three workloads one after
another and reports every metric under ``<workload>.<metric>``.

Exit codes: 0 with a result; 1 when no pass completed and 2 when the
plucker sources are missing or the arguments are invalid, both without a
result.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
# set-up-only processes run before the passes, and more run in the time
# the passes leave; at about 0.2 s each on 2 cores, a 44 s run measures
# 40 to 60 set-ups
MIN_SETUP_PROCESSES = 20
# a run must end within 180 s; no pass starts that could not finish by then
RUN_LIMIT_S = 170.0

END_TO_END_UNITS = {"wall_ref_s": "s", "cpu_ref_s": "s", "setup_s": "s", "peak_rss_mib": "MiB"}
# measured in every untraced pass and printed, but not gated: the host's
# speed drifts too much for them (see WORKLOADS.md, "Reference speed")
MEASURED = ("wall_s", "cpu_s", "probe_s")


def _worker(workload, seed, mode, size, timeout):
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        proc = subprocess.run(
            [sys.executable, WORKER, workload, str(seed), mode, size],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return None, f"{mode} pass timed out after {timeout:.0f} s"
    lines = proc.stdout.strip().splitlines()
    if proc.returncode == 0 and lines:
        try:
            return json.loads(lines[-1]), None
        except ValueError:
            pass
    tail = proc.stderr.strip().splitlines()[-1:] or ["no result line"]
    return None, f"{mode} pass exited {proc.returncode}: {tail[0]}"


class Run:
    """Passes of one workload and what they reported."""

    def __init__(self, workload, seed, seconds, trace, size):
        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.trace, self.size = trace, size
        # a traced run compares traced and untraced passes of one input
        self.inputs = workloads.run_inputs(workload, seed)[:1 if trace else None]
        self.passes = {"pass": [], "trace": []}
        self.setup = []
        self.attempted = 0
        self.failures = []
        self.digests = {}
        self.absent = set()

    def _check(self, name, ok, detail):
        self.attempted += 1
        if not ok:
            self.failures.append((name, detail))

    def _record(self, mode, res, err, seed):
        if res is None:
            self._check(f"{self.workload} {mode} pass", False, err)
            return
        res["input"] = seed
        self.passes[mode].append(res)
        self.setup.append(res["setup_s"])
        self.attempted += res["attempted"]
        self.failures.extend(tuple(item) for item in res["failed"])
        for name, digest in res["digests"].items():
            if len(self.inputs) > 1:
                name = f"{name} at input {seed}"
            self._check(f"{name}: same bytes on every pass",
                        self.digests.setdefault(name, digest) == digest, digest)
        if mode == "trace":
            self.absent.update(res["layers"]["absent"])
            bad = res["self_time_mismatches"]
            self._check("trace: self times add up to span totals", not bad,
                        f"{len(bad)} spans, first {bad[:1]}")

    def _setup_process(self):
        """Measure one set-up; returns the process's wall time."""
        start = time.perf_counter()
        res, err = _worker(self.workload, self.inputs[0], "setup", self.size, RUN_LIMIT_S)
        self._check(f"{self.workload} setup", res is not None, err)
        if res is not None:
            self.setup.append(res["setup_s"])
        return time.perf_counter() - start

    def execute(self):
        start = time.perf_counter()
        # compiles the bytecode caches; not measured
        _worker(self.workload, self.inputs[0], "setup", self.size, RUN_LIMIT_S)
        slowest = 0.0
        for _ in range(MIN_SETUP_PROCESSES):
            slowest = max(slowest, self._setup_process())
        # untraced and traced passes alternate, and untraced passes take
        # the run's inputs in turn; once every input has had a pass of each
        # kind, a pass starts only if a pass of its kind so far would end
        # in time
        modes = ["pass", "trace"] if self.trace else ["pass"]
        longest = {}
        for i in itertools.count():
            mode = modes[i % len(modes)]
            seed = self.inputs[i // len(modes) % len(self.inputs)]
            elapsed = time.perf_counter() - start
            if i >= len(modes) * len(self.inputs) and (
                    elapsed + longest[mode] > self.seconds
                    or elapsed + 1.25 * longest[mode] > RUN_LIMIT_S):
                break
            t = time.perf_counter()
            res, err = _worker(self.workload, seed, mode, self.size,
                               max(1.0, RUN_LIMIT_S - elapsed))
            longest[mode] = max(longest.get(mode, 0.0), time.perf_counter() - t)
            self._record(mode, res, err, seed)
            if res is None:
                return
        # more set-up samples in the time the passes left over
        while time.perf_counter() - start + slowest <= self.seconds:
            slowest = max(slowest, self._setup_process())

    def end_to_end(self):
        """Each metric's median over the passes of each input, averaged
        over the inputs; set-up time is the median of every set-up."""
        by_input = [[p for p in self.passes["pass"] if p["input"] == seed]
                    for seed in self.inputs]
        if not all(by_input):
            return None
        out = {name: (statistics.fmean(statistics.median(p[name] for p in passes)
                                       for passes in by_input), unit)
               for name, unit in END_TO_END_UNITS.items()}
        out["setup_s"] = (statistics.median(self.setup), "s")
        return out

    def per_layer(self):
        traced, plain = self.passes["trace"], self.passes["pass"]
        if not traced or not plain:
            return None
        names = traced[0]["layers"]["metrics"]
        out = {}
        for name, (_, unit) in names.items():
            values = [p["layers"]["metrics"][name][0] for p in traced]
            if unit == "s":
                out[name] = (statistics.median(values), unit)
                continue
            # counts and ratios are exact: every traced pass must agree
            if len(values) > 1:
                self._check(f"trace: {name} repeats between traced passes",
                            len(set(values)) == 1, str(values))
            out[name] = (values[0], unit)
        overhead = (statistics.median(p["wall_s"] for p in traced)
                    - statistics.median(p["wall_s"] for p in plain))
        out["trace.overhead_s"] = (overhead, "s")
        return out


def provenance(workload, seed, inputs):
    try:
        with open("/proc/loadavg") as fh:
            loadavg = fh.read().split()[:3]
    except OSError:
        loadavg = None
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "python_implementation": platform.python_implementation(),
        "python_build": list(platform.python_build()),
        "python_compiler": platform.python_compiler(),
        "platform": platform.platform(),
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "workload": workload,
        "seed": seed,
        "input_seeds": inputs,
        "program_seeds": [workloads.program_seed(s) for s in inputs],
        "loadavg_at_start": loadavg,
    }


def _git_commit():
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _source_digest():
    """sha256 over the package sources, which identifies the code where
    the checkout is not a git repository."""
    digest = hashlib.sha256()
    pkg = os.path.join(ROOT, "src", "plucker")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def run_workload(workload, seed, seconds, trace, size="full"):
    """Run one workload and return (result, notes); the result has the
    keys of the last output line."""
    run = Run(workload, seed, seconds, trace, size)
    prov = provenance(workload, seed, run.inputs)
    run.execute()
    metrics = run.per_layer() if trace else run.end_to_end()
    notes = {
        "provenance": prov,
        "passes": {mode: len(p) for mode, p in run.passes.items()},
        "samples": {
            "input": [p["input"] for p in run.passes["pass"]],
            **{name: [p[name] for p in run.passes["pass"]]
               for name in END_TO_END_UNITS.keys() - {"setup_s"} | set(MEASURED)},
            "setup_s": run.setup,
            "traced_wall_s": [p["wall_s"] for p in run.passes["trace"]],
        },
        "digests": run.digests,
        "digests_pinned": any(p["pinned"] for p in run.passes["pass"] + run.passes["trace"]),
        "fail_ratio": len(run.failures) / max(1, run.attempted),
        "failures": run.failures[:20],
        "absent_tables": sorted(run.absent),
    }
    if metrics is None:
        return None, notes
    result = {
        "correct": not run.failures,
        "attempted": max(1, run.attempted),
        "failed": len(run.failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    return result, notes


def _print_report(workload, result, notes):
    print(json.dumps(notes, sort_keys=True))
    print(f"[{workload}] passes {notes['passes']}, fail_ratio {notes['fail_ratio']:.6g}")
    for name in MEASURED:
        values = notes["samples"][name]
        if values:
            print(f"[{workload}] measured {name} = {statistics.median(values):.6g} s (not gated)")
    for name, entry in result["metrics"].items():
        print(f"[{workload}] {name} = {entry['value']:.6g} {entry['unit']}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=44.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not os.path.isfile(os.path.join(ROOT, "src", "plucker", "__init__.py")):
        print(f"nothing to benchmark: no plucker sources under {ROOT}", file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        result, notes = run_workload(name, args.seed, args.seconds, bool(args.trace))
        if result is None:
            print(json.dumps(notes, sort_keys=True))
            print(f"[{name}] no pass completed", file=sys.stderr)
            return 1
        _print_report(name, result, notes)
        if len(names) == 1:
            combined = result
            break
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
