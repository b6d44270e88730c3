"""Property test of the command-line surface: random flag sets and
random INI files, well-formed or not, drive ``cli.main``.

Every run ends with exit 0, 1 or 2 and no exception; exit 1 (reserved
for a failed verification) comes exactly when a failure is reported: on
stdout, or beside JSON output on stderr, and a ``chern-pushforward``
JSON document whose four routes' ``degree_components`` differ is one.  A run
starts from a valid job, so that many runs compute, and is then
perturbed: values swapped for junk, flags of other commands added, keys
misspelt, options moved into the INI file, or the file replaced by text
configparser cannot read.  Ranks stay at 5 or less and the verify suites
are replaced by a passing stub (their own tests cover them), so each run
takes milliseconds.
"""

import contextlib
import io
import json
from unittest import mock

from hypothesis import given, settings, strategies as st

from plucker import cli, verify
from plucker.verify import CaseResult

SMALL_INTS = st.integers(min_value=-1, max_value=5).map(str)
JUNK = st.sampled_from(["", " ", "x", "1.5", "1/2", "²", "true", "JSON", "P²", " 2 "])

# option key -> values worth trying, valid or not; every int stays at 5 or below
VALUES = {
    "options.format": st.sampled_from(["text", "json", "JSON", "yaml", ""]),
    "options.seed": SMALL_INTS,
    "options.trials": SMALL_INTS,
    "options.truncation": st.integers(min_value=-1, max_value=3).map(str),
    "base.kind": st.sampled_from(
        ["point", "pt", "P0", "P1", "P3", "p²", "projective", "formal", "bogus", ""]
    ),
    "base.dim": st.integers(min_value=-1, max_value=3).map(str),
    "base.families": st.integers(min_value=-1, max_value=2).map(str),
    "bundle.rank": SMALL_INTS,
    "bundle.roots": st.lists(st.integers(min_value=-2, max_value=3), max_size=5).map(
        lambda roots: ",".join(map(str, roots))
    ),
    "bundle.segre": st.lists(
        st.sampled_from(["1", "0", "2", "-1", "3/2", "-7/4", "1/0"]), max_size=5
    ).map(",".join),
    "bundle.formal": st.sampled_from(["true", "1", "no", "maybe", ""]),
    "bundle.family": st.integers(min_value=-1, max_value=2).map(str),
    "options.d": SMALL_INTS,
    "options.denominator": st.sampled_from(["proof", "displayed", "Displayed", "none", ""]),
    "options.max-rank": st.integers(min_value=-1, max_value=3).map(str),
}
COMMANDS = list(cli._COMMANDS)


def _one_in(draw, n):
    return draw(st.integers(min_value=1, max_value=n)) == 1


@st.composite
def jobs(draw):
    """A command and a valid option set for it, as {key: text}."""
    command = draw(st.sampled_from(COMMANDS))
    opts = {"options.format": draw(st.sampled_from(["text", "json"]))}
    if command == "verify":
        opts["options.max-rank"] = str(draw(st.integers(1, 3)))
    if command == "identity-check":
        opts["options.trials"] = str(draw(st.integers(1, 3)))
    if command in ("verify", "identity-check"):
        opts["options.seed"] = str(draw(st.integers(0, 99)))
        opts["options.truncation"] = str(draw(st.integers(0, 3)))
        return command, opts
    n = draw(st.integers(0, 3))
    kinds = ["point", f"P{n}", "projective"] + ["formal"] * (command == "chern-pushforward")
    kind = draw(st.sampled_from(kinds))
    opts["base.kind"] = kind
    if kind == "point":
        n = 0
    if kind in ("projective", "formal"):
        opts["base.dim"] = str(n)
    families = draw(st.integers(1, 2))
    if kind == "formal":
        opts["base.families"] = str(families)
    rank = draw(st.integers(1, 5))
    spec = draw(st.sampled_from(["trivial", "formal"] if kind == "formal"
                                else ["trivial", "roots", "segre"]))
    if spec == "roots":
        roots = draw(st.lists(st.integers(-2, 3), min_size=rank, max_size=rank))
        opts["bundle.roots"] = ",".join(map(str, roots))
    else:
        opts["bundle.rank"] = str(rank)
    if spec == "segre":
        tail = draw(st.lists(st.sampled_from(["0", "2", "-1", "3/2", "-7/4"]),
                             min_size=n, max_size=n))
        opts["bundle.segre"] = ",".join(["1"] + tail)
    if spec == "formal":
        opts["bundle.formal"] = "true"
        opts["bundle.family"] = str(draw(st.integers(0, families - 1)))
    opts["options.d"] = str(draw(st.integers(1, rank)))
    opts["options.denominator"] = draw(st.sampled_from(["proof", "displayed"]))
    return command, opts


@st.composite
def invocations(draw):
    """argv and INI bytes (or None) for a perturbed valid job."""
    command, opts = draw(jobs())
    for key in list(opts):
        if _one_in(draw, 12):
            del opts[key]
        elif _one_in(draw, 8):
            opts[key] = draw(JUNK if _one_in(draw, 2) else VALUES[key])
    if _one_in(draw, 6):  # an option of any command
        key = draw(st.sampled_from(sorted(VALUES)))
        opts[key] = draw(VALUES[key])
    in_file = {key for key in opts if _one_in(draw, 3)}
    if _one_in(draw, 8):  # a job the file gives whole
        opts["job.command"] = command
        in_file = set(opts)
    argv = [] if "job.command" in in_file else [command]
    sections = {}
    for key in sorted(opts):
        if key in in_file:
            section, name = key.split(".")
            if _one_in(draw, 16):
                name = name[::-1]  # a misspelt key
            sections.setdefault(section, []).append(f"{name} = {opts[key]}\n")
        elif key == "bundle.formal":
            argv.append("--formal-bundle")
        else:
            argv.append(f"{cli._OPTIONS[key][0].split()[-1]}={opts[key]}")
    ini = "".join(f"[{section}]\n" + "".join(lines) for section, lines in sections.items())
    ini = ini.encode("utf-8")
    if _one_in(draw, 8):  # text or bytes configparser may not read
        ini = draw(st.binary(max_size=40) | st.text(
            # no decimal digits, so no size can be spelt out
            st.characters(blacklist_categories=("Nd", "Cs")), max_size=60
        ).map(str.encode))
    return argv, ini if ini or in_file else None


def _stub_suite(*args, **kwargs):
    return [CaseResult("stub", True)]


def _routes_disagree(stdout):
    """True for a chern-pushforward JSON document (one entry per route)
    whose routes report different degree components."""
    try:
        doc = json.loads(stdout)
    except ValueError:
        return False
    if not isinstance(doc, list):
        return False
    components = [
        json.dumps(entry["degree_components"])
        for entry in doc if isinstance(entry, dict) and "degree_components" in entry
    ]
    return len(components) == 4 and len(set(components)) > 1


@given(invocations())
@settings(max_examples=300, deadline=None)
def test_every_run_exits_0_1_or_2(tmp_path_factory, invocation):
    argv, ini = invocation
    if ini is not None:
        path = tmp_path_factory.mktemp("fuzz") / "job.ini"
        path.write_bytes(ini)
        argv = argv + ["--config", str(path)]
    out, err = io.StringIO(), io.StringIO()
    stubs = dict.fromkeys(("run_all", "run_phi_suite", "run_identity_suite"), _stub_suite)
    with mock.patch.multiple(verify, **stubs), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exit_:  # argparse refuses a flag
            code = exit_.code
    assert code in (0, 1, 2), (argv, code)
    if code == 1:
        text = out.getvalue() + err.getvalue()
        assert "methods agree: NO" in text or "[FAIL]" in text, (argv, text)
    stdout = out.getvalue()
    if "methods agree: NO" in stdout or "[FAIL]" in stdout or _routes_disagree(stdout):
        assert code == 1, (argv, code, stdout)
    if code == 2:
        assert err.getvalue(), argv
