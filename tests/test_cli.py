import contextlib
import io
import json
import os
import re
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest

from plucker.chow import BundleModel, projective_space
from plucker.cli import build_bundle, main
from plucker.degree import plucker_degree


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDegreeCommand:
    def test_point_grassmannian(self, capsys):
        code, out, _ = run_cli(capsys, "degree", "--base", "point", "--rank", "4", "-d", "2")
        assert code == 0
        assert "degree = 2" in out

    def test_quadric_from_roots(self, capsys):
        code, out, _ = run_cli(capsys, "degree", "--base", "P1", "--roots", "1,1", "-d", "1")
        assert code == 0
        assert "degree = 2" in out

    def test_segre_input_equivalent_to_roots(self, capsys):
        code_a, out_a, _ = run_cli(
            capsys, "degree", "--base", "P2", "--roots", "1,1,0", "-d", "2"
        )
        code_b, out_b, _ = run_cli(
            capsys,
            "degree", "--base", "P2", "--rank", "3", "--segre", "1,2,3", "-d", "2",
        )
        assert code_a == code_b == 0
        assert out_a.splitlines()[-1] == out_b.splitlines()[-1]

    def test_segre_bundle_carries_int_coefficients(self):
        """``--segre 1,2,3`` is read as Fractions, yet the bundle holds the
        plain-int classes of the roots (1, 1, 0)."""
        base = projective_space(2)
        bundle = build_bundle(base, {"bundle.rank": "3", "bundle.segre": "1,2,3"})
        roots = BundleModel.from_chern_roots(base, [1, 1, 0])
        classes = bundle.segre + bundle.chern
        assert [c.terms for c in classes] == [c.terms for c in roots.segre + roots.chern]
        assert all(type(v) is int for c in classes for v in c.terms.values())

    def test_displayed_variant_warns_non_integer(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "degree", "--base", "point", "--rank", "4", "-d", "2",
            "--denominator", "displayed",
        )
        assert code == 0
        assert "degree = 1/6" in out
        assert "non-integer" in out

    def test_json_round_trips_rationals(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "degree", "--base", "P2", "--roots", "2,1,0", "-d", "2", "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["method"] == "closed"
        assert Fraction(doc["value"]) == sum(
            Fraction(item["value"]) for item in doc["degree_components"]
        )
        for item in doc["degree_components"]:
            assert "/" in item["value"] or Fraction(item["value"]).denominator == 1
            assert "." not in item["value"]  # no floats on the wire

    def test_formal_base_rejected(self, capsys):
        code, _, err = run_cli(
            capsys,
            "degree", "--base", "formal", "--rank", "3", "--formal-bundle", "-d", "1",
        )
        assert code == 2
        assert "degree needs a concrete base" in err


class TestChernPushforwardCommand:
    def test_four_identical_columns(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "chern-pushforward", "--base", "formal", "--truncation", "2",
            "--rank", "3", "--formal-bundle", "-d", "1",
        )
        assert code == 0
        assert "methods agree: yes" in out
        row0 = next(line for line in out.splitlines() if line.strip().startswith("0 |"))
        cells = [cell.strip() for cell in row0.split("|")[1:]]
        assert cells == ["1/2"] * 4
        row2 = next(line for line in out.splitlines() if line.strip().startswith("2 |"))
        assert [cell.strip() for cell in row2.split("|")[1:]] == ["1/24*s2"] * 4

    def test_displayed_variant_breaks_agreement(self, capsys):
        # the off-by-one denominator puts the closed column out of line
        # with the other three, which the command reports as a failure,
        # naming on stderr the first route that differs and where
        code, out, err = run_cli(
            capsys,
            "chern-pushforward", "--base", "point", "--rank", "4", "-d", "2",
            "--denominator", "displayed",
        )
        assert code == 1
        assert "methods agree: NO" in out
        assert err == "closed and schur differ at 1: 1/144 vs 1/12\n"

    def test_json_disagreement_exits_1(self, capsys):
        # the verdict does not depend on the format: beside JSON it goes
        # to stderr, and stdout stays one JSON document
        code, out, err = run_cli(
            capsys,
            "chern-pushforward", "--base", "point", "--rank", "4", "-d", "2",
            "--denominator", "displayed", "--format", "json",
        )
        assert code == 1
        assert [doc["method"] for doc in json.loads(out)] == [
            "closed", "schur", "constterm", "oracle",
        ]
        assert err == "methods agree: NO\nclosed and schur differ at 1: 1/144 vs 1/12\n"

    def test_two_family_formal_base(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "chern-pushforward", "--base", "formal", "--truncation", "2",
            "--families", "2", "--rank", "2", "--formal-bundle", "--family", "1",
            "-d", "1",
        )
        assert code == 0
        assert "methods agree: yes" in out
        assert "u1" in out  # second family generators carry their own names

    def test_json_structure(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "chern-pushforward", "--base", "P1", "--roots", "1,1", "-d", "1",
            "--format", "json",
        )
        assert code == 0
        docs = json.loads(out)
        assert sorted(doc["method"] for doc in docs) == [
            "closed", "constterm", "oracle", "schur",
        ]
        reference = docs[0]["degree_components"]
        for doc in docs[1:]:
            assert doc["degree_components"] == reference
        for doc in docs:
            for comp in doc["degree_components"]:
                for value in comp["value"].values():
                    Fraction(value)  # parses exactly, no floats


class TestVerifyCommand:
    def test_reduced_grid_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--max-rank", "2", "--truncation", "2")
        assert code == 0
        assert "checks passed" in out
        assert "FAIL" not in out

    def test_jobs_flag_is_unknown(self, capsys):
        # verify runs its cases serially; --jobs is refused as an unknown flag
        with pytest.raises(SystemExit) as info:
            main(["verify", "--jobs", "2"])
        assert info.value.code == 2
        assert "--jobs" in capsys.readouterr().err

    def test_json_output(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "verify", "--max-rank", "2", "--truncation", "2", "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert all(case["ok"] for case in doc)

    def test_case_result_record(self):
        from plucker.verify import CaseResult

        passed = CaseResult("k", True)
        assert passed == CaseResult("k", True, "") and hash(passed) == hash(CaseResult("k", True))
        assert repr(passed) == "CaseResult(key='k', ok=True, detail='')"
        assert passed.line() == "[PASS] k"
        assert CaseResult("k", False, "why").line() == "[FAIL] k  (why)"
        with pytest.raises(AttributeError):
            passed.ok = False


class TestIdentityCheckCommand:
    def test_small_run(self, capsys):
        code, out, _ = run_cli(capsys, "identity-check", "--trials", "5", "--seed", "3")
        assert code == 0
        assert "generalized Cauchy determinant" in out
        assert "FAIL" not in out


class TestConfigFile:
    def test_config_only_invocation(self, capsys, tmp_path):
        cfg = tmp_path / "job.ini"
        cfg.write_text(
            "[job]\ncommand = degree\n\n"
            "[base]\nkind = point\n\n"
            "[bundle]\nrank = 4\n\n"
            "[options]\nd = 2\n"
        )
        code, out, _ = run_cli(capsys, "--config", str(cfg))
        assert code == 0
        assert "degree = 2" in out

    def test_flags_override_config(self, capsys, tmp_path):
        cfg = tmp_path / "job.ini"
        cfg.write_text(
            "[job]\ncommand = degree\n\n"
            "[base]\nkind = point\n\n"
            "[bundle]\nrank = 4\n\n"
            "[options]\nd = 2\ndenominator = displayed\n"
        )
        code, out, _ = run_cli(
            capsys, "degree", "--config", str(cfg), "--denominator", "proof"
        )
        assert code == 0
        assert "degree = 2" in out

    def test_formal_bundle_from_file_without_the_flag(self, capsys, tmp_path):
        cfg = tmp_path / "job.ini"
        cfg.write_text(
            "[job]\ncommand = chern-pushforward\n\n"
            "[base]\nkind = formal\ndim = 2\n\n"
            "[bundle]\nrank = 3\nformal = true\n\n"
            "[options]\nd = 1\nformat = json\n"
        )
        code, from_file, _ = run_cli(capsys, "chern-pushforward", "--config", str(cfg))
        assert code == 0
        code, from_flags, _ = run_cli(
            capsys, "chern-pushforward", "--base", "formal", "--base-dim", "2",
            "--rank", "3", "--formal-bundle", "-d", "1", "--format", "json",
        )
        assert code == 0
        assert from_file == from_flags
        assert "formal rank 3" in from_file

    @staticmethod
    def formal_job(tmp_path, switch):
        cfg = tmp_path / "job.ini"
        cfg.write_text(
            "[base]\nkind = formal\ndim = 2\n\n"
            f"[bundle]\nrank = 3\nformal = {switch}\n\n[options]\nd = 1\n"
        )
        return str(cfg)

    @pytest.mark.parametrize("switch, formal", [
        ("true", True), ("Yes", True), ("ON", True), ("1", True),
        ("false", False), ("NO", False), ("off", False), ("0", False), ("", False),
    ])
    def test_switch_words(self, capsys, tmp_path, switch, formal):
        code, out, _ = run_cli(capsys, "chern-pushforward",
                               "--config", self.formal_job(tmp_path, switch))
        assert code == 0
        label = "formal rank 3" if formal else "trivial rank 3"
        assert f"push-forward of ch(det Q) for {label}" in out

    @pytest.mark.parametrize("switch", ["ture", "maybe", "2", "y", "yes please"])
    def test_misspelt_switch_refused(self, capsys, tmp_path, switch):
        code, out, err = run_cli(capsys, "chern-pushforward",
                                 "--config", self.formal_job(tmp_path, switch))
        assert code == 2
        assert out == ""
        assert "bundle.formal" in err
        assert "expected one of 1/yes/true/on/0/no/false/off" in err

    def test_switch_words_are_configparsers(self):
        import configparser

        from plucker.cli import _SWITCH_WORDS

        states = configparser.ConfigParser.BOOLEAN_STATES
        assert list(_SWITCH_WORDS.items()) == list(states.items())

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "degree", "--config", "/nonexistent/job.ini")
        assert code == 2
        assert "cannot read file" in err

    def test_malformed_field_named(self, capsys, tmp_path):
        cfg = tmp_path / "job.ini"
        cfg.write_text(
            "[job]\ncommand = degree\n\n"
            "[base]\nkind = point\n\n"
            "[bundle]\nrank = often\n\n"
            "[options]\nd = 2\n"
        )
        code, _, err = run_cli(capsys, "--config", str(cfg))
        assert code == 2
        assert "bundle.rank" in err

    def test_missing_command(self, capsys):
        code, _, err = run_cli(capsys, "--config", "")
        assert code == 2
        assert "job.command" in err

    def test_segre_length_checked(self, capsys):
        code, _, err = run_cli(
            capsys,
            "degree", "--base", "P2", "--rank", "2", "--segre", "1,2", "-d", "1",
        )
        assert code == 2
        assert err == "config error: bundle.segre: need s_0..s_2, got 2 classes\n"

    def test_segre_s0_checked(self, capsys):
        code, out, err = run_cli(
            capsys,
            "degree", "--base", "P2", "--rank", "3", "--segre", "2,1,1", "-d", "1",
        )
        assert (code, out) == (2, "")
        assert err == "config error: bundle.segre: s_0 must be 1\n"

    def test_conflicting_bundle_specs(self, capsys):
        code, _, err = run_cli(
            capsys,
            "degree", "--base", "P1", "--roots", "1,1", "--segre", "1,2", "-d", "1",
        )
        assert code == 2
        assert "exactly one of" in err

    @pytest.mark.parametrize("argv, field", [
        (("degree", "--base", "projective", "--rank", "2", "-d", "1"), "base.dim"),
        (("degree", "--base", "torus", "--rank", "2", "-d", "1"), "base.kind"),
        (("degree", "--base", "P1", "--roots", "1,1", "--rank", "3", "-d", "1"),
         "bundle.rank"),
        (("chern-pushforward", "--base", "formal", "--base-dim", "2", "--roots", "1,1",
          "-d", "1"), "bundle.roots"),
        (("chern-pushforward", "--base", "formal", "--base-dim", "2", "--rank", "3",
          "--formal-bundle", "--family", "4", "-d", "1"), "bundle.formal"),
        (("degree", "--base", "P2", "--rank", "3", "--formal-bundle", "-d", "1"),
         "bundle.formal"),
        (("chern-pushforward", "--base", "formal", "--base-dim", "2", "--rank", "3",
          "--segre", "1,1,1", "-d", "1"), "bundle.segre"),
        # s_0 is not 1
        (("degree", "--base", "P2", "--rank", "3", "--segre", "2,1,1", "-d", "1"),
         "bundle.segre"),
        # a line bundle with these classes would need c_2 != 0
        (("degree", "--base", "P2", "--rank", "1", "--segre", "1,1,5", "-d", "1"),
         "bundle.segre"),
        (("--config", "{ini}"), "job.command"),
    ])
    def test_config_error_names_its_field(self, capsys, tmp_path, argv, field):
        ini = tmp_path / "job.ini"
        ini.write_text("[job]\ncommand = frobnicate\n")
        code, out, err = run_cli(capsys, *(a.format(ini=ini) for a in argv))
        assert code == 2
        assert out == ""
        assert err.startswith(f"config error: {field}:"), err


class TestZeroAndNegativeValues:
    """Given values are honoured or refused by name, never replaced by defaults."""

    @pytest.fixture
    def suites(self, monkeypatch):
        from plucker import verify

        calls = {}

        def recording(name):
            def suite(*args, **kwargs):
                calls[name] = (args, kwargs)
                return []
            return suite

        for name in ("run_all", "run_phi_suite", "run_identity_suite"):
            monkeypatch.setattr(verify, name, recording(name))
        return calls

    def test_verify_honours_zero_seed_and_truncation(self, capsys, suites):
        code, _, _ = run_cli(capsys, "verify", "--seed", "0", "--truncation", "0",
                             "--max-rank", "1")
        assert code == 0
        args, kwargs = suites["run_all"]
        assert args == (1, 0) and kwargs["seed"] == 0

    def test_identity_check_honours_zero_seed_and_truncation(self, capsys, suites):
        code, _, _ = run_cli(capsys, "identity-check", "--seed", "0", "--truncation", "0")
        assert code == 0
        assert suites["run_phi_suite"][1]["seed"] == 0
        identity = suites["run_identity_suite"][1]
        assert identity["seed"] == 0 and identity["cauchy_truncation"] == 0

    def test_formal_truncation_zero_honoured(self, capsys):
        code, out, _ = run_cli(capsys, "chern-pushforward", "--base", "formal",
                               "--truncation", "0", "--rank", "3", "--formal-bundle",
                               "-d", "1", "--format", "json")
        assert code == 0
        assert json.loads(out)[0]["params"]["truncation"] == 0

    @pytest.mark.parametrize("argv, field", [
        (("identity-check", "--trials", "0"), "options.trials"),
        (("verify", "--max-rank", "0"), "options.max-rank"),
        (("verify", "--truncation", "-1"), "options.truncation"),
        (("identity-check", "--truncation", "-1"), "options.truncation"),
        (("chern-pushforward", "--base", "formal", "--truncation", "-1", "--rank", "2",
          "--formal-bundle", "-d", "1"), "options.truncation"),
        (("chern-pushforward", "--base", "formal", "--families", "0", "--rank", "2",
          "--formal-bundle", "-d", "1"), "base.families"),
        (("degree", "--base", "projective", "--base-dim", "-1", "--rank", "2", "-d", "1"),
         "base.dim"),
    ])
    def test_unusable_values_refused(self, capsys, argv, field):
        code, _, err = run_cli(capsys, *argv)
        assert code == 2
        assert field in err

    @pytest.mark.parametrize("command", ["degree", "chern-pushforward"])
    @pytest.mark.parametrize("d", ["0", "4"])
    def test_corank_outside_one_to_rank_refused(self, capsys, command, d):
        code, out, err = run_cli(capsys, command, "--base", "point", "--rank", "3", "-d", d)
        assert (code, out) == (2, "")
        assert f"options.d: corank d={d} must satisfy 1 <= d <= rank=3" in err

    def test_oversized_degree_refused(self, capsys):
        code, _, err = run_cli(capsys, "degree", "--base", "point", "--rank", "2000",
                               "-d", "1000")
        assert code == 2
        assert "options.d" in err


class TestLongValues:
    """Exact values longer than the interpreter's 4300-digit limit for
    int-to-str conversion are printed in full."""

    NINES = "9" * 1500

    def expected_degree(self):
        bundle = BundleModel.from_chern_roots(projective_space(3), [int(self.NINES), 1, 1])
        degree = plucker_degree(bundle, 1).degree
        assert degree.denominator == 1 and degree.numerator > 10 ** 4400
        return Decimal(degree.numerator)

    def test_degree_text(self, capsys):
        code, out, err = run_cli(capsys, "degree", "--base", "P3",
                                 f"--roots={self.NINES},1,1", "-d", "1")
        assert code == 0, err
        last = out.splitlines()[-1]
        assert last.startswith("degree = ")
        assert Decimal(last.split(" = ")[1]) == self.expected_degree()

    def test_degree_json(self, capsys):
        code, out, err = run_cli(capsys, "degree", "--base", "P3",
                                 f"--roots={self.NINES},1,1", "-d", "1",
                                 "--format", "json")
        assert code == 0, err
        doc = json.loads(out)
        assert Decimal(doc["value"]) == self.expected_degree()
        assert max(len(c["value"]) for c in doc["degree_components"]) > 4300

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_chern_pushforward(self, capsys, fmt):
        code, out, err = run_cli(capsys, "chern-pushforward", "--base", "P3",
                                 f"--roots={self.NINES},1,1", "-d", "1", "--format", fmt)
        assert code == 0, err
        assert re.search(r"\d{4400}", out)


class TestVerifySeeds:
    """The suites pass at every seed, and no case name carries the seed."""

    def test_reduced_grid_same_bytes_at_every_seed(self, capsys):
        outputs = []
        for seed in ("0", "1", "7", "12345"):
            code, out, err = run_cli(capsys, "verify", "--max-rank", "3",
                                     "--format", "json", "--seed", seed)
            assert code == 0, err
            assert all(case["ok"] for case in json.loads(out)), seed
            outputs.append(out)
        assert len(set(outputs)) == 1


class TestDeterminism:
    def test_identical_invocations_identical_bytes(self, capsys):
        argv = ["identity-check", "--trials", "4", "--seed", "9"]
        code_a, out_a, _ = run_cli(capsys, *argv)
        code_b, out_b, _ = run_cli(capsys, *argv)
        assert code_a == code_b == 0
        assert out_a == out_b

    def test_verify_deterministic_ordering(self, capsys):
        argv = ["verify", "--max-rank", "2", "--truncation", "1"]
        _, out_a, _ = run_cli(capsys, *argv)
        _, out_b, _ = run_cli(capsys, *argv)
        assert out_a == out_b


def test_console_entry_point_installed():
    # the subprocess does not see pytest's pythonpath setting, so it gets
    # src on PYTHONPATH, as the demos do
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "plucker.cli",
         "degree", "--base", "point", "--rank", "4", "-d", "2"],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
    )
    assert proc.returncode == 0
    assert "degree = 2" in proc.stdout


class TestParserReuse:
    """``main`` builds its parser once per process, and an argparse error
    leaves it fit for the calls after it: each call prints and exits as
    it does alone in a fresh process."""

    CALLS = [
        ("degree", "--rank", "x"),
        ("degree", "--base", "point", "--rank", "4", "-d", "2"),
        ("verify", "--max-rank", "2", "--truncation", "1", "--format", "json"),
        ("identity-check", "--trials", "2", "--seed", "3"),
    ]

    def test_one_parser_same_output_as_fresh_processes(self, capsys, monkeypatch):
        import os
        from pathlib import Path

        from plucker import cli

        src = str(Path(cli.__file__).resolve().parents[1])
        monkeypatch.setenv("COLUMNS", "80")
        monkeypatch.setattr(cli, "_PARSER", None)
        built = []
        build = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
        codes = []
        for argv in self.CALLS:
            try:
                code = main(list(argv))
            except SystemExit as stop:
                code = stop.code
            captured = capsys.readouterr()
            proc = subprocess.run(
                [sys.executable, "-m", "plucker.cli", *argv],
                capture_output=True, text=True, timeout=120,
                env=dict(os.environ, COLUMNS="80", PYTHONPATH=src),
            )
            assert (code, captured.out, captured.err) == (
                proc.returncode, proc.stdout, proc.stderr), argv
            codes.append(code)
        assert codes == [2, 0, 0, 0]
        assert built == [1]


class TestOptionTable:
    """Each command takes a flag only for an option it reads, and the
    INI file may set only keys of the option table."""

    @pytest.mark.parametrize("argv", [
        ("verify", "--trials", "0"),
        ("degree", "--base", "point", "--rank", "4", "-d", "2", "--seed", "3"),
        ("degree", "--base", "point", "--rank", "4", "-d", "2", "--trials", "3"),
        ("chern-pushforward", "--base", "P1", "--roots", "1,1", "-d", "1", "--seed", "3"),
        ("chern-pushforward", "--base", "P1", "--roots", "1,1", "-d", "1", "--trials", "3"),
    ])
    def test_flag_the_command_never_reads_refused(self, capsys, argv):
        with pytest.raises(SystemExit) as info:
            main(list(argv))
        assert info.value.code == 2
        assert argv[-2] in capsys.readouterr().err

    @pytest.mark.parametrize("section, name", [
        ("bundle", "rnak"),
        ("options", "denominatr"),
        ("options", "jobs"),
        ("jbo", "command"),
        ("DEFAULT", "rank"),
    ])
    def test_unknown_key_refused(self, capsys, tmp_path, section, name):
        sections = {"job": ["command = degree"], "base": ["kind = point"],
                    "bundle": ["rank = 4"], "options": ["d = 2"]}
        sections.setdefault(section, []).append(f"{name} = 9")
        cfg = tmp_path / "job.ini"
        cfg.write_text("".join(
            f"[{head}]\n" + "".join(line + "\n" for line in lines)
            for head, lines in sections.items()
        ))
        code, out, err = run_cli(capsys, "--config", str(cfg))
        assert code == 2
        assert out == ""
        assert f"{section}.{name}: unknown key" in err

    def test_key_of_another_command_accepted(self, capsys, tmp_path):
        # one file may serve several commands
        cfg = tmp_path / "job.ini"
        cfg.write_text(
            "[base]\nkind = point\n\n[bundle]\nrank = 4\n\n"
            "[options]\nd = 2\nseed = 5\ntrials = 0\nmax-rank = 0\n"
        )
        code, out, _ = run_cli(capsys, "degree", "--config", str(cfg))
        assert code == 0
        assert "degree = 2" in out

    def test_empty_choice_means_not_given(self, capsys, tmp_path):
        cfg = tmp_path / "job.ini"
        cfg.write_text(
            "[base]\nkind = point\n\n[bundle]\nrank = 4\n\n"
            "[options]\nd = 2\nformat =\ndenominator =\n"
        )
        code, out, _ = run_cli(capsys, "degree", "--config", str(cfg))
        assert code == 0
        assert "denominator variant: proof" in out

    BUNDLE_READS = {"base.kind", "base.dim", "base.families", "options.truncation",
                    "bundle.rank", "bundle.roots", "bundle.segre", "bundle.formal",
                    "bundle.family", "options.d", "options.denominator", "options.format"}

    @pytest.mark.parametrize("command, reads", [
        ("degree", BUNDLE_READS),
        ("chern-pushforward", BUNDLE_READS),
        ("verify", {"options.format", "options.max-rank", "options.truncation",
                    "options.seed"}),
        ("identity-check", {"options.format", "options.seed", "options.trials",
                            "options.truncation"}),
    ])
    def test_commands_read_what_the_table_lists(self, monkeypatch, command, reads):
        from plucker import cli, verify

        for name in ("run_all", "run_phi_suite", "run_identity_suite"):
            monkeypatch.setattr(verify, name, lambda *args, **kwargs: [])
        seen = set()
        real_get = cli._get

        def recording(merged, key):
            seen.add(key)
            return real_get(merged, key)

        monkeypatch.setattr(cli, "_get", recording)
        merged = dict.fromkeys(cli._OPTIONS)
        if command in ("degree", "chern-pushforward"):
            # a formal bundle over a formal base reads every base and bundle
            # key; the degree command then refuses the formal base
            merged.update({"base.kind": "formal", "bundle.rank": "2",
                           "bundle.formal": "1", "options.d": "1"})
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                cli._COMMANDS[command][0](merged)
        except cli.ConfigError:
            pass
        assert seen == reads
        listed = {key for key, row in cli._OPTIONS.items() if command in row[1]}
        assert seen == listed

    def test_readme_lists_every_key(self, tmp_path):
        import os
        from pathlib import Path

        from plucker import cli

        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        path = tmp_path / "readme.ini"
        path.write_text(readme.split("```ini\n", 1)[1].split("```", 1)[0])
        config = cli.load_config(str(path))
        keys = {f"{section}.{name}" for section, values in config.items() for name in values}
        assert keys == set(cli._OPTIONS)
        # configparser keeps an inline comment as part of the value
        assert not any(";" in value for values in config.values() for value in values.values())


class TestMalformedConfig:
    """A file configparser cannot read exits 2 naming the file."""

    @pytest.mark.parametrize("content", [
        b"rank = 3\n",                                      # no section header
        b"[bundle]\nrank = 3\nrank = 4\n",                  # repeated key
        b"[bundle]\nrank = 3\nthis line has no equals\n",   # no delimiter
        b"[bundle]\nrank = \xff\xfe\n",                     # not UTF-8
        b"[bundle]\nsegre = 1, 50%\n",                      # bad interpolation
    ])
    def test_exit_2_names_the_file(self, capsys, tmp_path, content):
        cfg = tmp_path / "bad.ini"
        cfg.write_bytes(content)
        code, out, err = run_cli(capsys, "degree", "--config", str(cfg))
        assert code == 2
        assert out == ""
        assert err.startswith("config error: config: ")
        assert str(cfg) in err
