"""The command-line front end.

Subcommands: `eval` (invariants), `build <operation>` (constructions),
`gate` (aggregated simplicity report), `atlas verify|lookup|export`.  Each
command takes only the options it reads.  Germs are read and printed in the
surface syntax of `germcalc.syntax`, whose parser, printer and canonical
keys this module re-exports.  Exit codes: 0 success, 1 parse/validation
error (an unknown option included) or an unwritable output (`--output`, or
a closed standard output), 2 failure to stabilize (no certificate either
way by the cap), 3 internal error.  A dimension proved infinite is an
answer: `eval` prints it as `infinite` with its proof and exits 0.
The engine flag `--max-degree`, taken by every command but `atlas export`,
is the only engine setting, passed to the library as `d_max` (default
`ring.D_MAX`): it bounds the degree at which a dimension may be certified
(a codimension's certificate elimination runs c degrees above it).  Its
argument type refuses a value below 1.  `run` builds its argument parser
once per process, on first use, so a caller that runs many command lines
in one process parses each without rebuilding it.  Likewise a process
reads each `--germ` text once (`_read`, a bounded table): `eval`, `gate`
and `atlas lookup` of one text share its parse, its canonical text and
its interned germ, so every cache keyed by the germ finds it by identity.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from functools import lru_cache

from . import atlas, gates, ops, tangent
from . import germ as germ_mod
from .errors import (GermcalcError, NotCorankOneError, NotStabilizedError,
                     ProvedInfiniteError)
from .germ import MultiGerm
from .ring import D_MAX, Poly
# the whole parse/print surface, re-exported for callers of the CLI module
from .syntax import (canonical_form, canonical_match_key,  # noqa: F401
                     canonical_variable_order, format_multigerm,
                     parse_multigerm, parse_poly, render_poly)


# -- JSON helpers -------------------------------------------------------------

def _jsonable(value):
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return int(value)
        return {"num": value.numerator, "den": value.denominator}
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, MultiGerm):
        return format_multigerm(value)
    if isinstance(value, Poly):
        return render_poly(value)
    return value


def _verdict_json(verdict) -> dict:
    return {
        "kind": verdict.kind,
        "rule": verdict.rule,
        "evidence": _jsonable(dict(verdict.evidence)),
        "unverified_hypotheses": list(verdict.unverified),
    }


# -- subcommands ---------------------------------------------------------------

def _degree_cap(text: str) -> int:
    """The type of `--max-degree`: an int of at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError("d_max must be at least 1")
    return value


def _add_engine_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--max-degree", type=_degree_cap, default=D_MAX,
                     help="largest degree a dimension may be certified at "
                          f"(default {D_MAX})")
    sub.add_argument("--json", action="store_true", help="machine-readable output")


def _value_or_proof(fn, *args):
    """fn(*args), or the ProvedInfiniteError it raises."""
    try:
        return fn(*args)
    except ProvedInfiniteError as proof:
        return proof


@lru_cache(maxsize=1024)
def _read(text: str, source_dim: int | None,
          target_dim: int | None) -> tuple[MultiGerm, str]:
    """The germ of a `--germ` text in canonical variable order, interned
    (`germ.intern`), and its canonical text: one parse and one search for
    the canonical order per (text, source_dim, target_dim) and process.
    Every caller passes all three positionally, so that one key is used.
    A text that does not parse is not kept, and raises again when read
    again."""
    f, canon = canonical_form(parse_multigerm(
        text, source_dim=source_dim, target_dim=target_dim, canonical=False))
    return germ_mod.intern(f), canon


def _cmd_eval(args) -> int:
    d_max = args.max_degree
    f, text = _read(args.germ, args.source_dim, args.target_dim)
    m0 = _value_or_proof(germ_mod.multiplicity, f, d_max)
    cork = germ_mod.germ_corank(f)
    try:
        atype = list(germ_mod.recognize_type(f, d_max).ks)
    except (NotCorankOneError, ProvedInfiniteError):
        atype = None
    ae = _value_or_proof(tangent.ae_codim, f, d_max)
    a = _value_or_proof(tangent.a_codim, f, d_max)
    wilson = tangent.wilson_check(f, d_max)
    results = {"m0": m0, "aecod": ae, "acod": a}
    proofs = {name: {"reason": res.reason, **res.certificate}
              for name, res in results.items()
              if isinstance(res, ProvedInfiniteError)}
    certified = {name: res for name, res in (("aecod", ae), ("acod", a))
                 if name not in proofs}
    values = {"m0": m0, **{name: res.value for name, res in certified.items()},
              **dict.fromkeys(proofs, "infinite")}
    payload = {
        "germ": text,
        "invariants": {
            "m0": values["m0"],
            "corank": cork,
            "atype": atype,
            "aecod": values["aecod"],
            "acod": values["acod"],
            "wilson": wilson.status,
        },
        "degrees_used": {name: res.degree_used
                         for name, res in certified.items()},
        "c": {name: res.c for name, res in certified.items()},
        "curves": {name: list(res.curve) for name, res in certified.items()},
    }
    if proofs:
        payload["proofs"] = proofs
    if args.json:
        print(json.dumps(_jsonable(payload), sort_keys=True))
    else:
        print(f"germ:     {payload['germ']}")
        print(f"(n, p, r): ({f.n}, {f.p}, {f.r})")
        print(f"m0:       {values['m0']}" + (
            f"   ({proofs['m0']['reason']})" if "m0" in proofs else ""))
        print(f"corank:   {cork}")
        if atype:
            label = "A_{" + ",".join(map(str, atype)) + "}"
        else:
            label = "not finite" if "m0" in proofs else "corank >= 2"
        print(f"type:     {label}")
        for name in ("aecod", "acod"):
            res = certified.get(name)
            note = (proofs[name]["reason"] if res is None else
                    f"certified at degree {res.degree_used}, c = {res.c}")
            print(f"{name + ':':9} {values[name]}   ({note})")
        for name, res in certified.items():
            first = res.degree_used - len(res.curve) + 1
            print(f"curve:    {name} {list(res.curve)}   "
                  f"(degrees {first}..{res.degree_used})")
        print(f"wilson:   {wilson.status}")
    return 0


def _unfolding(expr: str, s: int = 1):
    return ops.normalized_unfolding(parse_multigerm(expr, canonical=False), s)


# operation: its ops function, and the inputs it takes before d_max, read
# from the options its parser declares
_BUILDS = {
    "augment": (ops.augment,
                lambda args: (_unfolding(args.germ), parse_poly(args.phi))),
    "monic": (ops.monic_concat, lambda args: (_unfolding(args.germ),)),
    "binary": (ops.binary_concat,
               lambda args: (_unfolding(args.germ), _unfolding(args.germ2))),
    "genconc": (ops.generalised_concat,
                lambda args: (_unfolding(args.germ, args.s),
                              parse_multigerm(args.gbar))),
    "augconc": (ops.sim_aug_concat,
                lambda args: (_unfolding(args.germ), parse_poly(args.phi))),
}


def _cmd_build(args) -> int:
    build, inputs = _BUILDS[args.operation]
    result = build(*inputs(args), args.max_degree,
                   check_stability=not args.unchecked)
    text = format_multigerm(result)
    if args.json:
        print(json.dumps({"germ": text}, sort_keys=True))
    else:
        print(text)
    return 0


def _cmd_gate(args) -> int:
    f, text = _read(args.germ, None, None)
    flags = frozenset(s.strip() for s in (args.asserted or "").split(",") if s.strip())
    report = gates.simplicity_report(
        f, args.max_degree, gates.ReportAssertions(flags=flags))
    payload = {
        "germ": text,
        "verdict": _verdict_json(report.verdict),
        "trace": [{"gate": name, **_verdict_json(v)} for name, v in report.trace],
    }
    if args.json:
        print(json.dumps(_jsonable(payload), sort_keys=True))
    else:
        v = report.verdict
        print(f"germ:    {payload['germ']}")
        print(f"verdict: {v.kind}" + (f"  [{v.rule}]" if v.rule else ""))
        if v.evidence:
            print(f"evidence: {_jsonable(dict(v.evidence))}")
        if v.unverified:
            print(f"unverified hypotheses: {', '.join(v.unverified)}")
        print("trace:")
        for name, tv in report.trace:
            reasons = f" ({', '.join(tv.unverified)})" if tv.unverified else ""
            print(f"  {name}: {tv.kind}{reasons}"
                  + (f" [{tv.rule}]" if tv.rule else ""))
    return 0


def _cmd_atlas_verify(args) -> int:
    report = atlas.verify_all(args.param_cap, args.max_degree)
    if args.json:
        print(json.dumps(_jsonable(report.as_dict()), sort_keys=True))
    else:
        for row in report.rows:
            status = "ok" if row.match else "MISMATCH"
            print(f"{row.name:12s} {row.params_text:18s} computed={row.computed} "
                  f"expected={row.expected} [{status}] "
                  f"degree={row.degree_used} c={row.c} {row.seconds:.2f}s"
                  f"{' ' + row.note if row.note else ''}")
        total = len(report.rows)
        good = sum(1 for row in report.rows if row.match)
        print(f"{good}/{total} rows match")
    if report.all_match:
        return 0
    # stabilization failures are reported as 2, numeric mismatches as 3
    if any(not row.match and row.computed is None for row in report.rows):
        return 2
    return 3


def _cmd_atlas_lookup(args) -> int:
    f, text = _read(args.germ, None, None)
    try:
        result = atlas.lookup(f, args.max_degree)
    except ProvedInfiniteError:
        # every catalog row has a finite codimension
        result = atlas.LookupResult(matches=(), exact=False)
    payload = {
        "germ": text,
        "exact": result.exact,
        "matches": [{"name": name, "params": _jsonable(dict(params))}
                    for name, params in result.matches],
    }
    if args.json:
        print(json.dumps(_jsonable(payload), sort_keys=True))
    elif result.matches:
        for name, params in result.matches:
            extra = f" {dict(params)}" if params else ""
            print(f"{name}{extra}" + (" (exact)" if result.exact else ""))
    else:
        print("no match")
    return 0


def _cmd_atlas_export(args) -> int:
    text = json.dumps(atlas.export_document(), indent=2, sort_keys=True)
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise ValueError(f"cannot write {args.output}: {exc.strerror}")
    else:
        print(text)
    return 0


@lru_cache(maxsize=1)
def build_arg_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and then kept: each
    parse_args call returns a fresh namespace, so runs share nothing."""
    parser = argparse.ArgumentParser(
        prog="germcalc",
        description="Exact invariants, constructions and simplicity gates "
                    "for corank-1 polynomial multigerms.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="compute invariants of a germ")
    p_eval.add_argument("--germ", required=True, help="germ expression")
    p_eval.add_argument("--source-dim", type=int, default=None)
    p_eval.add_argument("--target-dim", type=int, default=None)
    _add_engine_flags(p_eval)
    p_eval.set_defaults(func=_cmd_eval)

    p_build = sub.add_parser("build", help="run a construction")
    operations = p_build.add_subparsers(dest="operation", required=True)
    for op in _BUILDS:
        p_op = operations.add_parser(op)
        p_op.add_argument("--germ", required=True,
                          help="unfolding total (parameters last)")
        if op in ("augment", "augconc"):
            p_op.add_argument("--phi", required=True,
                              help="augmenting function")
        elif op == "binary":
            p_op.add_argument("--germ2", required=True,
                              help="second unfolding total")
        elif op == "genconc":
            p_op.add_argument("--gbar", required=True,
                              help="stable germ to adjoin")
            p_op.add_argument("--s", type=int, default=1,
                              help="parameter count of the unfolding")
        p_op.add_argument("--unchecked", action="store_true",
                          help="assert stability instead of verifying it")
        _add_engine_flags(p_op)
        p_op.set_defaults(func=_cmd_build)

    p_gate = sub.add_parser("gate", help="run the simplicity report")
    p_gate.add_argument("--germ", required=True)
    p_gate.add_argument("--assert", dest="asserted", default="",
                        help="comma-separated hypothesis flags: "
                        + ", ".join(gates.REPORT_FLAGS))
    _add_engine_flags(p_gate)
    p_gate.set_defaults(func=_cmd_gate)

    p_atlas = sub.add_parser("atlas", help="atlas verification and lookup")
    actions = p_atlas.add_subparsers(dest="action", required=True)
    p_verify = actions.add_parser("verify", help="re-verify the catalog")
    p_verify.add_argument("--param-cap", type=int, default=3,
                          help="verify parameters up to this value")
    _add_engine_flags(p_verify)
    p_verify.set_defaults(func=_cmd_atlas_verify)
    p_lookup = actions.add_parser("lookup", help="classify a germ")
    p_lookup.add_argument("--germ", required=True, help="germ expression")
    _add_engine_flags(p_lookup)
    p_lookup.set_defaults(func=_cmd_atlas_lookup)
    p_export = actions.add_parser("export", help="dump the catalog as JSON")
    p_export.add_argument("--output", default=None,
                          help="file path (default: standard output)")
    p_export.set_defaults(func=_cmd_atlas_export)
    return parser


def run(argv: list[str]) -> int:
    """Run one command line; returns the exit code."""
    parser = build_arg_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except NotStabilizedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (GermcalcError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:  # standard output's reader has gone
        return 1
    except Exception as exc:  # internal invariant violation
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 3


def main() -> None:
    code = run(sys.argv[1:])
    try:
        sys.stdout.flush()
    except BrokenPipeError:
        # send what is still buffered to devnull, so that the flush at exit
        # does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    main()
