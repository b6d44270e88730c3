"""Workload inputs, passes and output checks.

A workload's inputs are made from the workload seed alone.  The program
seed is the workload seed plus one, so it is never 0: the CLI maps
``--seed 0`` to 11 today, and a later fix of that mapping must not
change what a workload runs.

Every output is checked on every pass, and each check counts as one
attempted operation; a job that raises counts as a failed one.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import factorial

WORKLOADS = ("verify", "oracle", "monomials")
DEFAULT_SEED = 1
# inputs an untraced run measures, one pass each in turn; a monomial grid
# of 420 random draws costs up to 11% more or less from one seed to the
# next, so a run reports the mean over three of them
INPUTS_PER_RUN = {"monomials": 3}
METHODS = ("closed", "schur", "constterm", "oracle")
# the twists of the split job are drawn from this range; the reference
# bundle O(2)+3O(1)+3O(-1) over P3 has Pluecker degree 556556
TWIST_RANGE = (-1, 2)


@dataclass(frozen=True)
class Size:
    verify_max_rank: int
    # (rank, corank, base dimension) of the oracle jobs
    oracle_shape: tuple
    oracle_formal_job: bool
    monomial_max_rank: int
    monomial_trials: int
    truncation: int = 3


SIZES = {
    "full": Size(verify_max_rank=5, oracle_shape=(7, 4, 3), oracle_formal_job=True,
                 monomial_max_rank=6, monomial_trials=20),
    # the harness self-test: one d=2 oracle job and a rank-3 monomial grid
    "tiny": Size(verify_max_rank=2, oracle_shape=(4, 2, 2), oracle_formal_job=False,
                 monomial_max_rank=3, monomial_trials=2),
}


@dataclass(frozen=True)
class CliJob:
    name: str
    argv: tuple


@dataclass(frozen=True)
class MonomialJob:
    name: str
    max_rank: int
    truncation: int
    trials: int
    seed: int


@dataclass
class PassOutput:
    """What one pass produced: its checks, the digest of every CLI JSON
    document, and the counts the harness reads from the outputs."""

    checks: list = field(default_factory=list)
    digests: dict = field(default_factory=dict)
    json_bytes: int = 0
    cases: int = 0

    def check(self, name, ok, detail=""):
        self.checks.append((name, bool(ok), "" if ok else detail))

    @property
    def failed(self):
        return [(name, detail) for name, ok, detail in self.checks if not ok]


def program_seed(seed: int) -> int:
    return seed + 1


def run_inputs(workload: str, seed: int):
    """Input seeds of one run of ``workload`` at workload seed ``seed``;
    distinct seeds never share an input."""
    k = INPUTS_PER_RUN.get(workload, 1)
    return [k * seed + i for i in range(k)]


def split_twists(seed: int, rank: int, n: int = 3):
    """Twists drawn from TWIST_RANGE until none of the Chern classes
    c_1..c_n over P^n vanishes: a vanishing class thins out the flag
    ring's rule tables and made a whole oracle pass up to 40% cheaper,
    which would make the work of a pass depend on the seed."""
    rng = random.Random(program_seed(seed))
    while True:
        twists = tuple(rng.randint(*TWIST_RANGE) for _ in range(rank))
        if all(_elementary(twists, j) for j in range(1, n + 1)):
            return twists


def _elementary(values, j):
    """The j-th elementary symmetric polynomial of ``values``."""
    coeffs = [1] + [0] * j
    for v in values:
        for i in range(j, 0, -1):
            coeffs[i] += coeffs[i - 1] * v
    return coeffs[j]


def build(workload: str, seed: int, size: str = "full"):
    """The jobs of one pass, as data; nothing of the program runs here."""
    sz = SIZES[size]
    s = program_seed(seed)
    if workload == "verify":
        argv = ("verify", "--max-rank", str(sz.verify_max_rank), "--seed", str(s),
                "--format", "json")
        return [CliJob("verify", argv)]
    if workload == "oracle":
        r, d, n = sz.oracle_shape
        jobs = []
        if sz.oracle_formal_job:
            argv = ("chern-pushforward", "--base", "formal", "--truncation", str(n),
                    "--rank", str(r), "--formal-bundle", "-d", str(d), "--format", "json")
            jobs.append(CliJob("chern-formal", argv))
        roots = ",".join(map(str, split_twists(seed, r, n)))
        # one token, because argparse reads a leading "-1" as a flag
        split = ("--base", f"P{n}", f"--roots={roots}", "-d", str(d), "--format", "json")
        jobs.append(CliJob("chern-split", ("chern-pushforward",) + split))
        jobs.append(CliJob("degree-split", ("degree",) + split))
        return jobs
    if workload == "monomials":
        return [MonomialJob("monomials", sz.monomial_max_rank, sz.truncation,
                            sz.monomial_trials, s)]
    raise ValueError(f"unknown workload {workload!r}")


def run_pass(jobs, cli, verify_mod, pins=None) -> PassOutput:
    """Run every job of a pass and check its output.  ``pins`` maps job
    names to the sha256 each CLI document must have, or is None when the
    digests are only recorded."""
    out = PassOutput()
    oracle_tops = {}
    for job in jobs:
        if isinstance(job, MonomialJob):
            _run_monomials(job, verify_mod, out)
            continue
        buf = io.StringIO()
        try:
            with contextlib.redirect_stdout(buf):
                rc = cli.main(list(job.argv))
        except Exception as err:  # a job that raises is a failed operation
            out.check(f"{job.name}: runs", False, repr(err))
            continue
        text = buf.getvalue()
        out.json_bytes += len(text.encode())
        digest = hashlib.sha256(text.encode()).hexdigest()
        out.digests[job.name] = digest
        if pins is not None:
            want = pins.get(job.name)
            out.check(f"{job.name}: pinned sha256", digest == want,
                      f"got {digest}, pinned {want}")
        out.check(f"{job.name}: exit code 0", rc == 0, f"exit code {rc}")
        try:
            doc = json.loads(text)
        except ValueError as err:
            out.check(f"{job.name}: JSON output", False, str(err))
            continue
        if job.argv[0] == "verify":
            _check_verify(job, doc, out)
        elif job.argv[0] == "chern-pushforward":
            oracle_tops[job.argv[1:]] = _check_chern(job, doc, out)
        elif job.argv[0] == "degree":
            _check_degree(job, doc, oracle_tops.get(job.argv[1:]), out)
    return out


def _run_monomials(job, verify_mod, out):
    try:
        results = verify_mod.run_monomial_grid(
            max_rank=job.max_rank, truncation=job.truncation, trials=job.trials,
            seed=job.seed,
        )
    except Exception as err:
        out.check(f"{job.name}: runs", False, repr(err))
        return
    out.cases += len(results)
    out.check(f"{job.name}: case count", len(results) == job.max_rank * (job.max_rank + 1) // 2,
              f"{len(results)} cases")
    for res in results:
        out.check(res.key, res.ok, res.detail)


def _check_verify(job, doc, out):
    out.cases += len(doc)
    out.check(f"{job.name}: reports cases", len(doc) > 0, "no cases")
    for case in doc:
        out.check(case["case"], case["ok"] is True, case.get("detail", ""))


def _check_chern(job, doc, out):
    """The four documents agree on every degree component; returns the
    oracle's components, or None when the output is malformed."""
    methods = tuple(part.get("method") for part in doc)
    if methods != METHODS:
        out.check(f"{job.name}: four routes", False, f"methods {methods}")
        return None
    first = doc[0]["degree_components"]
    disagree = [part["method"] for part in doc[1:] if part["degree_components"] != first]
    out.check(f"{job.name}: four routes agree", not disagree, f"differs: {disagree}")
    return doc[METHODS.index("oracle")]["degree_components"]


def top_integral(components):
    """Integral over P^n of the top component of a push-forward: the
    coefficient of h^n, the class of a point."""
    top = components[-1]
    n = top["degree"]
    key = "1" if n == 0 else ("h" if n == 1 else f"h^{n}")
    extra = set(top["value"]) - {key}
    if extra:
        raise ValueError(f"top component has monomials {sorted(extra)} besides {key}")
    return Fraction(top["value"].get(key, "0"))


def _check_degree(job, doc, oracle_components, out):
    argv = job.argv
    if oracle_components is None:
        out.check(f"{job.name}: oracle top component", False, "no chern-pushforward output")
        return
    roots = next(arg for arg in argv if arg.startswith("--roots="))
    r = len(roots.split(","))
    d = int(argv[argv.index("-d") + 1])
    n = oracle_components[-1]["degree"]
    try:
        want = factorial(d * (r - d) + n) * top_integral(oracle_components)
    except ValueError as err:
        out.check(f"{job.name}: oracle top component", False, str(err))
        return
    got = Fraction(doc["value"])
    out.check(f"{job.name}: (d(r-d)+n)! * integral of the oracle top component",
              got == want, f"degree {got}, oracle gives {want}")
