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
import configparser
import json
import sys
from fractions import Fraction

from .chow import FORMAL, POINT, BundleModel, formal_segre, point, projective_space
from .degree import plucker_degree
from .exact import exact_str
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
MAX_DEGREE_DIMENSION = 2500

# Every option once: its key, ``section.name`` in the INI file, maps to
# the dest of the flag that overrides it (None: file only), then, for
# integer options, the default and the minimum that _get_int applies.
_OPTIONS = {
    "job.command": (None, None, None),
    "base.kind": ("base", None, None),
    "base.dim": ("base_dim", None, 0),
    "base.families": ("families", 1, 1),
    "bundle.rank": ("rank", None, None),
    "bundle.roots": ("roots", None, None),
    "bundle.segre": ("segre", None, None),
    "bundle.formal": ("formal_bundle", None, None),
    "bundle.family": ("family", 0, None),
    "options.d": ("d", None, None),
    "options.denominator": ("denominator", None, None),
    "options.format": ("format", None, None),
    "options.seed": ("seed", 11, None),
    "options.trials": ("trials", 100, 1),
    "options.max-rank": ("max_rank", verify_mod.DEFAULT_MAX_RANK, 1),
    "options.truncation": ("truncation", verify_mod.DEFAULT_TRUNCATION, 0),
}


class ConfigError(Exception):
    """Malformed job configuration; the message names the offending field."""


def _parse_int(field, raw):
    try:
        return int(str(raw).strip())
    except (TypeError, ValueError):
        raise ConfigError(f"{field}: expected an integer, got {raw!r}") from None


def _get_int(merged, key):
    """Integer option ``key``, or its default when it is not given; a
    given value below its minimum is refused, zero included."""
    _, default, minimum = _OPTIONS[key]
    raw = merged.get(key)
    if raw is None:
        return default
    value = _parse_int(key, raw)
    if minimum is not None and value < minimum:
        raise ConfigError(f"{key}: must be at least {minimum}, got {value}")
    return value


def _parse_fraction(field, raw):
    try:
        return Fraction(str(raw).strip())
    except (TypeError, ValueError, ZeroDivisionError):
        raise ConfigError(f"{field}: expected a rational like 3/2, got {raw!r}") from None


def _parse_list(raw):
    return [bit.strip() for bit in str(raw).replace(";", ",").split(",") if bit.strip()]


def load_config(path: str) -> dict:
    """Read the INI configuration into a {section: {key: value}} dict."""
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise ConfigError(f"config: cannot read file {path!r}")
    return {section: dict(parser.items(section)) for section in parser.sections()}


def _merge(config: dict, args) -> dict:
    """Every option key with its flag's value when the flag is given,
    else the file's value (None when neither gives one)."""
    merged = {}
    for key, (dest, _, _) in _OPTIONS.items():
        section, name = key.split(".", 1)
        value = getattr(args, dest, None) if dest else None
        merged[key] = value if value is not None else config.get(section, {}).get(name)
    return merged


def build_base(merged: dict):
    kind = merged.get("base.kind")
    if kind is None:
        raise ConfigError("base.kind: missing (point, projective or formal)")
    kind = str(kind).strip().lower()
    if kind in ("point", "pt"):
        return point()
    if kind.startswith("p") and kind[1:].isdigit():
        return projective_space(int(kind[1:]))
    dim = _get_int(merged, "base.dim")
    if kind in ("projective", "projective-space"):
        if dim is None:
            raise ConfigError("base.dim: required for a projective-space base")
        return projective_space(dim)
    if kind == "formal":
        if dim is None:
            dim = _get_int(merged, "options.truncation")
        return formal_segre(dim, _get_int(merged, "base.families"))
    raise ConfigError(f"base.kind: unknown kind {kind!r}")


def build_bundle(base, merged: dict):
    rank_raw = merged.get("bundle.rank")
    roots_raw = merged.get("bundle.roots")
    segre_raw = merged.get("bundle.segre")
    formal_raw = str(merged.get("bundle.formal") or "").strip().lower()
    wants_formal = formal_raw in ("1", "true", "yes", "on")

    given = sum(bool(x) for x in (roots_raw, segre_raw, wants_formal))
    if given > 1:
        raise ConfigError("bundle: give exactly one of roots, segre, or formal")

    if roots_raw:
        roots = [_parse_int("bundle.roots", bit) for bit in _parse_list(roots_raw)]
        if rank_raw is not None and _parse_int("bundle.rank", rank_raw) != len(roots):
            raise ConfigError("bundle.rank: does not match the number of roots")
        try:
            return BundleModel.from_chern_roots(
                base, roots, label=f"O{tuple(roots)} over {base!r}"
            )
        except ValueError as err:
            raise ConfigError(f"bundle.roots: {err}") from None

    if rank_raw is None:
        raise ConfigError("bundle.rank: missing")
    rank = _parse_int("bundle.rank", rank_raw)
    if rank < 1:
        raise ConfigError("bundle.rank: must be positive")

    if wants_formal:
        if base.kind != FORMAL:
            raise ConfigError("bundle.formal: needs a formal base model")
        family = _get_int(merged, "bundle.family")
        try:
            return BundleModel.formal(base, rank, family)
        except ValueError as err:
            raise ConfigError(f"bundle.formal: {err}") from None

    if segre_raw:
        if base.kind == FORMAL:
            raise ConfigError("bundle.segre: explicit Segre classes need a concrete base")
        values = [_parse_fraction("bundle.segre", bit) for bit in _parse_list(segre_raw)]
        if len(values) != base.n + 1:
            raise ConfigError(
                f"bundle.segre: need s_0..s_{base.n} ({base.n + 1} values), got {len(values)}"
            )
        if values[0] != 1:
            raise ConfigError("bundle.segre: s_0 must be 1")
        h = base.one() if base.kind == POINT else base.hyperplane()
        classes = [base.one()]
        for i, q in enumerate(values[1:], start=1):
            classes.append(h ** i * q)
        try:
            return BundleModel.from_segre(
                base, rank, classes, label=f"segre {', '.join(map(str, values))} over {base!r}"
            )
        except ValueError as err:
            raise ConfigError(f"bundle.segre: {err}") from None

    return BundleModel.trivial(base, rank)


def _get_d(merged, rank):
    raw = merged.get("options.d")
    if raw is None:
        raise ConfigError("options.d: missing corank")
    d = _parse_int("options.d", raw)
    if not 1 <= d <= rank:
        raise ConfigError(f"options.d: need 1 <= d <= rank={rank}, got {d}")
    return d


def _get_denominator(merged):
    raw = str(merged.get("options.denominator") or PROOF).strip().lower()
    if raw not in (PROOF, DISPLAYED):
        raise ConfigError(f"options.denominator: expected proof or displayed, got {raw!r}")
    return raw


def _get_format(merged):
    raw = str(merged.get("options.format") or "text").strip().lower()
    if raw not in ("text", "json"):
        raise ConfigError(f"options.format: expected text or json, got {raw!r}")
    return raw


def element_fields(elem):
    """JSON value for a graded element: monomial -> "p/q" strings."""
    model = elem.model
    out = {}
    for exps in sorted(elem.terms, key=lambda e: (model._degree(e), e)):
        mono = "*".join(
            name if e == 1 else f"{name}^{e}"
            for name, e in zip(model.gen_names, exps)
            if e
        )
        out[mono or "1"] = exact_str(elem.terms[exps])
    return out


def _params_json(bundle, d, extra=None):
    params = {
        "base": repr(bundle.base),
        "bundle": bundle.label,
        "rank": bundle.rank,
        "d": d,
        "truncation": bundle.base.n,
    }
    if extra:
        params.update(extra)
    return params


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
    denominator = _get_denominator(merged)
    fmt = _get_format(merged)
    try:
        result = plucker_degree(bundle, d, denominator)
    except ValueError as err:
        raise ConfigError(f"degree: {err}") from None
    if fmt == "json":
        doc = {
            "params": _params_json(bundle, d, {"denominator": denominator}),
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
    print(f"  base:   {result.base} (dimension {result.base_dim})")
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
    denominator = _get_denominator(merged)
    fmt = _get_format(merged)
    series = {
        method: ch_pushforward(bundle, d, method, denominator)
        for method in ALL_METHODS
    }
    degrees = list(range(base.n + 1))
    if fmt == "json":
        docs = []
        for method in ALL_METHODS:
            docs.append(
                {
                    "params": _params_json(bundle, d, {"denominator": denominator}),
                    "method": method,
                    "degree_components": [
                        {"degree": m, "value": element_fields(series[method].component(m))}
                        for m in degrees
                    ],
                    "value": None,
                }
            )
        print(json.dumps(docs, indent=2, sort_keys=True))
        return 0
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
    agree = True
    for m in degrees:
        row = " | ".join(cells[(m, method)].ljust(widths[method]) for method in ALL_METHODS)
        print(f"  {m:3d} | {row}")
        values = [series[method].component(m) for method in ALL_METHODS]
        agree = agree and all(v == values[0] for v in values[1:])
    print(f"methods agree: {'yes' if agree else 'NO'}")
    return 0 if agree else 1


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
    fmt = _get_format(merged)
    max_rank = _get_int(merged, "options.max-rank")
    truncation = _get_int(merged, "options.truncation")
    seed = _get_int(merged, "options.seed")
    results = verify_mod.run_all(max_rank, truncation, seed=seed)
    return _print_results(results, fmt)


def cmd_identity_check(merged) -> int:
    fmt = _get_format(merged)
    seed = _get_int(merged, "options.seed")
    trials = _get_int(merged, "options.trials")
    truncation = _get_int(merged, "options.truncation")
    results = []
    results.extend(verify_mod.run_phi_suite(seed=seed))
    results.extend(
        verify_mod.run_identity_suite(
            seed=seed,
            det_trials=trials,
            cauchy_truncation=truncation,
            gen_cauchy_trials=trials,
        )
    )
    return _print_results(results, fmt)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="plucker",
        description="Exact push-forward and degree calculator for Grassmann bundles.",
    )
    parser.add_argument("--config", default=None, help="INI configuration file")
    sub = parser.add_subparsers(dest="command")

    def common(p, with_bundle=True):
        # SUPPRESS keeps a top-level --config visible when the flag is
        # repeated after the subcommand
        p.add_argument("--config", default=argparse.SUPPRESS,
                       help="INI configuration file")
        p.add_argument("--format", choices=("text", "json"), default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--trials", type=int, default=None)
        p.add_argument("--truncation", type=int, default=None,
                       help="formal-model truncation degree")
        if with_bundle:
            p.add_argument("--base", default=None,
                           help="point, P<n>, projective, or formal")
            p.add_argument("--base-dim", type=int, default=None)
            p.add_argument("--families", type=int, default=None)
            p.add_argument("--rank", type=int, default=None)
            p.add_argument("--roots", default=None,
                           help="comma-separated integer twists, e.g. 1,1,0")
            p.add_argument("--segre", default=None,
                           help="comma-separated rationals s_0..s_n, e.g. 1,2,3/2")
            p.add_argument("--formal-bundle", action="store_true", default=None,
                           help="use the free Segre generators of a formal base")
            p.add_argument("--family", type=int, default=None)
            p.add_argument("-d", "--d", type=int, default=None, help="corank")
            p.add_argument("--denominator", choices=(PROOF, DISPLAYED), default=None)

    p_degree = sub.add_parser("degree", help="Pluecker degree of a Grassmann bundle")
    common(p_degree)
    p_ch = sub.add_parser("chern-pushforward",
                          help="pushed-forward Chern character, four methods")
    common(p_ch)
    p_verify = sub.add_parser("verify", help="agreement grid and identity suites")
    common(p_verify, with_bundle=False)
    p_verify.add_argument("--max-rank", type=int, default=None)
    p_id = sub.add_parser("identity-check", help="identity suites only")
    common(p_id, with_bundle=False)
    return parser


_COMMANDS = {
    "degree": cmd_degree,
    "chern-pushforward": cmd_chern_pushforward,
    "verify": cmd_verify,
    "identity-check": cmd_identity_check,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config_path = getattr(args, "config", None)
        config = load_config(config_path) if config_path else {}
        merged = _merge(config, args)
        command = args.command or merged.get("job.command")
        if command is None:
            raise ConfigError("job.command: missing (give a subcommand or set it in the config)")
        command = str(command).strip()
        if command not in _COMMANDS:
            raise ConfigError(f"job.command: unknown command {command!r}")
        return _COMMANDS[command](merged)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
