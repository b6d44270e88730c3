"""Command-line front end.

Subcommands:

* ``degree``             Pluecker degree of a Grassmann bundle, with the
                         per-exponent-vector breakdown.
* ``chern-pushforward``  the pushed-forward Chern character, all four
                         methods side by side.
* ``verify``             the agreement grid plus identity suites.
* ``identity-check``     the standalone identity suites with chosen
                         trial counts and seed.

Base and bundle may come from command-line flags, from an INI-style
configuration file (sections ``[job]``, ``[base]``, ``[bundle]``,
``[options]``; flags override the file), or both.  Rationals are read
and written as ``p/q`` strings; floating point never crosses the I/O
boundary.  Exit codes: 0 success, 1 verification failure, 2
configuration error.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .chow import FORMAL, POINT, BundleModel, formal_segre, point, projective_space
from .degree import plucker_degree
from .exact import _corank, exact_str, monomial_text
from .pushforward import (
    ALL_METHODS,
    DISPLAYED,
    PROOF,
    ch_pushforward,
)
from . import verify as verify_mod


# Largest Grassmann-bundle dimension d(r-d)+n the degree command accepts.
# Over a point the degree at this size has about 3300 digits and takes
# milliseconds; at d(r-d) = 10^6 the closed sum alone runs for minutes.
# Off a point the limit does not bound the time: the closed sum runs over
# every k with |k| = n, and sixteen roots over P16 at d = 8 (dimension 80)
# take seconds.
MAX_DEGREE_DIMENSION = 2500

_BUNDLE_COMMANDS = ("degree", "chern-pushforward")
_ALL_COMMANDS = _BUNDLE_COMMANDS + ("verify", "identity-check")

# Every option once, in --help order.  Its key, ``section.name`` in the
# INI file, maps to its flag (None: file only), the commands that read
# it, its kind (int, str, bool for a switch, or a tuple of choices), its
# default, its minimum (ints only) and its help text.
_OPTIONS = {
    "job.command": (None, (), str, None, None, None),
    "options.format": ("--format", _ALL_COMMANDS, ("text", "json"), "text", None, None),
    "options.seed": ("--seed", ("verify", "identity-check"), int, 11, None, None),
    "options.trials": ("--trials", ("identity-check",), int, 100, 1, None),
    "options.truncation": ("--truncation", _ALL_COMMANDS, int, verify_mod.DEFAULT_TRUNCATION, 0,
                           "formal-model truncation degree"),
    "base.kind": ("--base", _BUNDLE_COMMANDS, str, None, None,
                  "point, P<n>, projective, or formal"),
    "base.dim": ("--base-dim", _BUNDLE_COMMANDS, int, None, 0, None),
    "base.families": ("--families", _BUNDLE_COMMANDS, int, 1, 1, None),
    "bundle.rank": ("--rank", _BUNDLE_COMMANDS, int, None, 1, None),
    "bundle.roots": ("--roots", _BUNDLE_COMMANDS, str, None, None,
                     "comma-separated integer twists, e.g. 1,1,0"),
    "bundle.segre": ("--segre", _BUNDLE_COMMANDS, str, None, None,
                     "comma-separated rationals s_0..s_n, e.g. 1,2,3/2"),
    "bundle.formal": ("--formal-bundle", _BUNDLE_COMMANDS, bool, False, None,
                      "use the free Segre generators of a formal base"),
    "bundle.family": ("--family", _BUNDLE_COMMANDS, int, 0, None, None),
    "options.d": ("-d --d", _BUNDLE_COMMANDS, int, None, None, "corank"),
    "options.denominator": ("--denominator", _BUNDLE_COMMANDS, (PROOF, DISPLAYED), PROOF, None,
                            None),
    "options.max-rank": ("--max-rank", ("verify",), int, verify_mod.DEFAULT_MAX_RANK, 1, None),
}

# The words a switch takes and their values: configparser's
# ``ConfigParser.BOOLEAN_STATES``, in its order, written out so that only
# ``--config`` imports configparser.
_SWITCH_WORDS = {
    "1": True, "yes": True, "true": True, "on": True,
    "0": False, "no": False, "false": False, "off": False,
}


class ConfigError(Exception):
    """Malformed job configuration; the message names the offending field."""


def _parse_int(field, raw):
    try:
        return int(str(raw).strip())
    except (TypeError, ValueError):
        raise ConfigError(f"{field}: expected an integer, got {raw!r}") from None


def _get(merged, key):
    """Option ``key`` read by its kind, or its default when it is not
    given; an empty choice or switch counts as not given.  An int below
    its minimum is refused, zero included, and a switch takes only
    configparser's boolean words."""
    _, _, kind, default, minimum, _ = _OPTIONS[key]
    raw = merged.get(key)
    if raw is None:
        return default
    if kind is int:
        value = _parse_int(key, raw)
        if minimum is not None and value < minimum:
            raise ConfigError(f"{key}: must be at least {minimum}, got {value}")
        return value
    if kind is str:
        return raw
    word = str(raw).strip().lower()
    if not word:
        return default
    if kind is bool:
        if word not in _SWITCH_WORDS:
            raise ConfigError(f"{key}: expected one of {'/'.join(_SWITCH_WORDS)}, got {word!r}")
        return _SWITCH_WORDS[word]
    if word not in kind:
        raise ConfigError(f"{key}: expected {' or '.join(kind)}, got {word!r}")
    return word


def _parse_fraction(field, raw):
    try:
        return Fraction(str(raw).strip())
    except (TypeError, ValueError, ZeroDivisionError):
        raise ConfigError(f"{field}: expected a rational like 3/2, got {raw!r}") from None


def _parse_list(raw):
    return [bit.strip() for bit in str(raw).replace(";", ",").split(",") if bit.strip()]


def load_config(path: str) -> dict:
    """Read the UTF-8 INI configuration into a {section: {key: value}}
    dict, with [DEFAULT] as a section of its own."""
    import configparser

    parser = configparser.ConfigParser()
    try:
        read = parser.read(path, encoding="utf-8")
        config = {section: dict(parser.items(section)) for section in parser}
    except (configparser.Error, UnicodeDecodeError) as err:
        detail = " ".join(str(err).split())
        raise ConfigError(f"config: cannot parse file {path!r}: {detail}") from None
    if not read:
        raise ConfigError(f"config: cannot read file {path!r}")
    return config


def _merge(config: dict, args) -> dict:
    """Every option key with its flag's value when the flag is given,
    else the file's value (None when neither gives one).  A file key
    outside the option table is refused."""
    merged = dict.fromkeys(_OPTIONS)
    for section, values in config.items():
        for name, value in values.items():
            key = f"{section}.{name}"
            if key not in merged:
                raise ConfigError(f"{key}: unknown key")
            merged[key] = value
    for key, (flag, *_) in _OPTIONS.items():
        # a given flag sits under argparse's dest: its last spelling, dashes dropped
        value = flag and getattr(args, flag.split()[-1].lstrip("-").replace("-", "_"), None)
        if value is not None:
            merged[key] = value
    return merged


def build_base(merged: dict):
    kind = _get(merged, "base.kind")
    if kind is None:
        raise ConfigError("base.kind: missing (point, projective or formal)")
    kind = str(kind).strip().lower()
    if kind in ("point", "pt"):
        return point()
    if kind.startswith("p") and kind[1:].isdecimal():
        return projective_space(int(kind[1:]))
    dim = _get(merged, "base.dim")
    if kind in ("projective", "projective-space"):
        if dim is None:
            raise ConfigError("base.dim: required for a projective-space base")
        return projective_space(dim)
    if kind == "formal":
        if dim is None:
            dim = _get(merged, "options.truncation")
        return formal_segre(dim, _get(merged, "base.families"))
    raise ConfigError(f"base.kind: unknown kind {kind!r}")


def build_bundle(base, merged: dict):
    roots_raw = _get(merged, "bundle.roots")
    segre_raw = _get(merged, "bundle.segre")
    wants_formal = _get(merged, "bundle.formal")

    given = sum(bool(x) for x in (roots_raw, segre_raw, wants_formal))
    if given > 1:
        raise ConfigError("bundle: give exactly one of roots, segre, or formal")

    if roots_raw:
        roots = [_parse_int("bundle.roots", bit) for bit in _parse_list(roots_raw)]
        rank = _get(merged, "bundle.rank")
        if rank is not None and rank != len(roots):
            raise ConfigError("bundle.rank: does not match the number of roots")
        try:
            return BundleModel.from_chern_roots(
                base, roots, label=f"O{tuple(roots)} over {base!r}"
            )
        except ValueError as err:
            raise ConfigError(f"bundle.roots: {err}") from None

    rank = _get(merged, "bundle.rank")
    if rank is None:
        raise ConfigError("bundle.rank: missing")

    if wants_formal:
        if base.kind != FORMAL:
            raise ConfigError("bundle.formal: needs a formal base model")
        family = _get(merged, "bundle.family")
        try:
            return BundleModel.formal(base, rank, family)
        except ValueError as err:
            raise ConfigError(f"bundle.formal: {err}") from None

    if segre_raw:
        if base.kind == FORMAL:
            raise ConfigError("bundle.segre: explicit Segre classes need a concrete base")
        values = [_parse_fraction("bundle.segre", bit) for bit in _parse_list(segre_raw)]
        h = base.one() if base.kind == POINT else base.hyperplane()
        classes = [h ** i * q for i, q in enumerate(values)]
        try:
            return BundleModel.from_segre(
                base, rank, classes, label=f"segre {', '.join(map(str, values))} over {base!r}"
            )
        except ValueError as err:
            raise ConfigError(f"bundle.segre: {err}") from None

    return BundleModel.trivial(base, rank)


def _get_d(merged, rank):
    d = _get(merged, "options.d")
    if d is None:
        raise ConfigError("options.d: missing corank")
    try:
        _corank(d, rank)
    except ValueError as err:
        raise ConfigError(f"options.d: {err}") from None
    return d


def element_fields(elem):
    """JSON value for a graded element: monomial -> "p/q" strings."""
    names = elem.model.gen_names
    return {monomial_text(names, exps) or "1": exact_str(c) for exps, c in elem.terms.items()}


def _params_json(bundle, d, denominator):
    return {
        "base": repr(bundle.base),
        "bundle": bundle.label,
        "rank": bundle.rank,
        "d": d,
        "truncation": bundle.base.n,
        "denominator": denominator,
    }


def cmd_degree(merged) -> int:
    base = build_base(merged)
    bundle = build_bundle(base, merged)
    d = _get_d(merged, bundle.rank)
    dim = d * (bundle.rank - d) + base.n
    if dim > MAX_DEGREE_DIMENSION:
        raise ConfigError(
            f"options.d: the Grassmann bundle has dimension d(r-d)+n = {dim}, "
            f"above the limit {MAX_DEGREE_DIMENSION} of the degree command"
        )
    denominator = _get(merged, "options.denominator")
    fmt = _get(merged, "options.format")
    try:
        result = plucker_degree(bundle, d, denominator)
    except ValueError as err:
        raise ConfigError(f"degree: {err}") from None
    if fmt == "json":
        doc = {
            "params": _params_json(bundle, d, denominator),
            "method": "closed",
            "degree_components": [
                {"k": list(k), "value": exact_str(value)} for k, value in result.breakdown
            ],
            "value": exact_str(result.degree),
        }
        print(json.dumps(doc, indent=2, sort_keys=True))
        return 0
    print(f"Pluecker degree of the corank-{d} Grassmann bundle")
    print(f"  bundle: {bundle.label}")
    print(f"  base:   {base!r} (dimension {base.n})")
    print(f"  denominator variant: {denominator}")
    print("  note: assumes the Pluecker embedding hypothesis (a very ample"
          " exterior power); not checked here")
    for k, value in result.breakdown:
        print(f"  k={k}: {exact_str(value)}")
    if not result.is_integer:
        print("  warning: non-integer value; outside the embedding hypothesis"
              " or a wrong denominator variant")
    print(f"degree = {exact_str(result.degree)}")
    return 0


def cmd_chern_pushforward(merged) -> int:
    base = build_base(merged)
    bundle = build_bundle(base, merged)
    d = _get_d(merged, bundle.rank)
    denominator = _get(merged, "options.denominator")
    fmt = _get(merged, "options.format")
    series = {
        method: ch_pushforward(bundle, d, method, denominator)
        for method in ALL_METHODS
    }
    detail = verify_mod.route_disagreement(series)
    degrees = list(range(base.n + 1))
    if fmt == "json":
        docs = []
        for method in ALL_METHODS:
            docs.append(
                {
                    "params": _params_json(bundle, d, denominator),
                    "method": method,
                    "degree_components": [
                        {"degree": m, "value": element_fields(series[method].component(m))}
                        for m in degrees
                    ],
                    "value": None,
                }
            )
        print(json.dumps(docs, indent=2, sort_keys=True))
        if detail:
            print(f"methods agree: NO\n{detail}", file=sys.stderr)
        return 1 if detail else 0
    print(f"push-forward of ch(det Q) for {bundle.label}, d={d}")
    cells = {
        (m, method): repr(series[method].component(m))
        for m in degrees
        for method in ALL_METHODS
    }
    widths = {
        method: max(len(method), *(len(cells[(m, method)]) for m in degrees))
        for method in ALL_METHODS
    }
    header = "  deg | " + " | ".join(method.ljust(widths[method]) for method in ALL_METHODS)
    print(header)
    print("  " + "-" * (len(header) - 2))
    for m in degrees:
        row = " | ".join(cells[(m, method)].ljust(widths[method]) for method in ALL_METHODS)
        print(f"  {m:3d} | {row}")
    print(f"methods agree: {'NO' if detail else 'yes'}")
    if detail:
        print(detail, file=sys.stderr)
    return 1 if detail else 0


def _print_results(results, fmt) -> int:
    failures = [res for res in results if not res.ok]
    if fmt == "json":
        doc = [
            {"case": res.key, "ok": res.ok, "detail": res.detail} for res in results
        ]
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        for res in results:
            print(res.line())
        print(f"{len(results) - len(failures)}/{len(results)} checks passed")
    return 1 if failures else 0


def cmd_verify(merged) -> int:
    fmt = _get(merged, "options.format")
    max_rank = _get(merged, "options.max-rank")
    truncation = _get(merged, "options.truncation")
    seed = _get(merged, "options.seed")
    results = verify_mod.run_all(max_rank, truncation, seed=seed)
    return _print_results(results, fmt)


def cmd_identity_check(merged) -> int:
    fmt = _get(merged, "options.format")
    seed = _get(merged, "options.seed")
    trials = _get(merged, "options.trials")
    truncation = _get(merged, "options.truncation")
    results = []
    results.extend(verify_mod.run_phi_suite(seed=seed))
    results.extend(
        verify_mod.run_identity_suite(seed=seed, trials=trials, cauchy_truncation=truncation)
    )
    return _print_results(results, fmt)


_COMMANDS = {
    "degree": (cmd_degree, "Pluecker degree of a Grassmann bundle"),
    "chern-pushforward": (cmd_chern_pushforward,
                          "pushed-forward Chern character, four methods"),
    "verify": (cmd_verify, "agreement grid and identity suites"),
    "identity-check": (cmd_identity_check, "identity suites only"),
}


def build_parser():
    """One subparser per command, with a flag for each option that the
    command reads."""
    parser = argparse.ArgumentParser(
        prog="plucker",
        description="Exact push-forward and degree calculator for Grassmann bundles.",
    )
    parser.add_argument("--config", default=None, help="INI configuration file")
    sub = parser.add_subparsers(dest="command")
    for command, (_, summary) in _COMMANDS.items():
        p = sub.add_parser(command, help=summary)
        # SUPPRESS keeps a top-level --config visible when the flag is
        # repeated after the subcommand
        p.add_argument("--config", default=argparse.SUPPRESS, help="INI configuration file")
        for flag, commands, kind, _, _, text in _OPTIONS.values():
            if command not in commands:
                continue
            if kind is bool:
                extra = {"action": "store_true"}
            elif kind is int:
                extra = {"type": int}
            else:
                extra = {"choices": kind if isinstance(kind, tuple) else None}
            p.add_argument(*flag.split(), default=None, help=text, **extra)
    return parser


_PARSER = None


def main(argv=None) -> int:
    """Run one command line; the parser is built by the first call and
    reused by later ones."""
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    args = _PARSER.parse_args(argv)
    try:
        config = load_config(args.config) if args.config else {}
        merged = _merge(config, args)
        command = args.command or _get(merged, "job.command")
        if command is None:
            raise ConfigError("job.command: missing (give a subcommand or set it in the config)")
        command = str(command).strip()
        if command not in _COMMANDS:
            raise ConfigError(f"job.command: unknown command {command!r}")
        return _COMMANDS[command][0](merged)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
