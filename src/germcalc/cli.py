"""The command-line front end.

Subcommands: `eval` (invariants), `build` (constructions), `gate`
(aggregated simplicity report), `atlas verify|lookup|export`.  Germs are
read and printed in the surface syntax of `germcalc.syntax`, whose parser,
printer and canonical keys this module re-exports.  Exit codes: 0 success,
1 parse/validation error or an unwritable `--output`, 2 failure to
stabilize (no certificate either way by the cap), 3 internal error.  A
dimension proved infinite is an answer: `eval` prints it as `infinite`
with its proof and exits 0.
The engine flag `--max-degree` is the only engine setting, passed to the
library as `d_max` (default `ring.D_MAX`): it bounds the degree at which a
dimension may be certified (a codimension's certificate elimination runs c
degrees above it).  A value below 1 exits 1 before any subcommand runs.
`run` builds its argument parser once per process, on first use, so a
caller that runs many command lines in one process parses each without
rebuilding it.
"""

from __future__ import annotations

import argparse
import json
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

def _add_engine_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--max-degree", type=int, default=D_MAX,
                     help="largest degree a dimension may be certified at "
                          f"(default {D_MAX})")
    sub.add_argument("--json", action="store_true", help="machine-readable output")


def _value_or_proof(fn, *args):
    """fn(*args), or the ProvedInfiniteError it raises."""
    try:
        return fn(*args)
    except ProvedInfiniteError as proof:
        return proof


def _cmd_eval(args) -> int:
    d_max = args.max_degree
    f, text = canonical_form(parse_multigerm(
        args.germ, source_dim=args.source_dim, target_dim=args.target_dim,
        canonical=False))
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


def _unfolding_from_expr(expr: str, s: int):
    total = parse_multigerm(expr, canonical=False)
    return ops.normalized_unfolding(total, s)


def _cmd_build(args) -> int:
    d_max = args.max_degree
    check = not args.unchecked
    op = args.operation
    if op in ("augment", "augconc") and not args.phi:
        raise ValueError(f"{op} needs --phi")
    if op == "genconc" and not args.gbar:
        raise ValueError("genconc needs --gbar")
    if op == "augment":
        u = _unfolding_from_expr(args.germ, 1)
        phi = parse_poly(args.phi)
        result = ops.augment(u, phi, d_max, check_stability=check)
    elif op == "monic":
        u = _unfolding_from_expr(args.germ, 1)
        result = ops.monic_concat(u, d_max, check_stability=check)
    elif op == "binary":
        if not args.germ2:
            raise ValueError("binary concatenation needs --germ2")
        u = _unfolding_from_expr(args.germ, 1)
        v = _unfolding_from_expr(args.germ2, 1)
        result = ops.binary_concat(u, v, d_max, check_stability=check)
    elif op == "genconc":
        u = _unfolding_from_expr(args.germ, args.s)
        gbar = parse_multigerm(args.gbar)
        result = ops.generalised_concat(u, gbar, d_max, check_stability=check)
    elif op == "augconc":
        u = _unfolding_from_expr(args.germ, 1)
        phi = parse_poly(args.phi)
        result = ops.sim_aug_concat(u, phi, d_max, check_stability=check)
    else:  # pragma: no cover - argparse restricts choices
        raise ValueError(f"unknown build operation {op!r}")
    text = format_multigerm(result)
    if args.json:
        print(json.dumps({"germ": text}, sort_keys=True))
    else:
        print(text)
    return 0


def _cmd_gate(args) -> int:
    f, text = canonical_form(parse_multigerm(args.germ, canonical=False))
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


def _cmd_atlas(args) -> int:
    action = args.action
    if action == "verify":
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
    if action == "lookup":
        if not args.germ:
            raise ValueError("lookup needs --germ")
        f, text = canonical_form(parse_multigerm(args.germ, canonical=False))
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
    if action == "export":
        doc = atlas.export_document()
        text = json.dumps(doc, indent=2, sort_keys=True)
        if args.output:
            try:
                with open(args.output, "w", encoding="utf-8") as fh:
                    fh.write(text + "\n")
            except OSError as exc:
                raise ValueError(f"cannot write {args.output}: {exc.strerror}")
        else:
            print(text)
        return 0
    raise ValueError(f"unknown atlas action {action!r}")  # pragma: no cover


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
    p_build.add_argument("operation",
                         choices=["augment", "monic", "binary", "genconc", "augconc"])
    p_build.add_argument("--germ", required=True,
                         help="unfolding total (parameters last)")
    p_build.add_argument("--phi", default=None, help="augmenting function")
    p_build.add_argument("--germ2", default=None,
                         help="second unfolding total (binary)")
    p_build.add_argument("--gbar", default=None,
                         help="stable germ to adjoin (genconc)")
    p_build.add_argument("--s", type=int, default=1,
                         help="parameter count (genconc)")
    p_build.add_argument("--unchecked", action="store_true",
                         help="assert stability instead of verifying it")
    _add_engine_flags(p_build)
    p_build.set_defaults(func=_cmd_build)

    p_gate = sub.add_parser("gate", help="run the simplicity report")
    p_gate.add_argument("--germ", required=True)
    p_gate.add_argument("--assert", dest="asserted", default="",
                        help="comma-separated hypothesis flags: "
                        + ", ".join(gates.FLAGS))
    _add_engine_flags(p_gate)
    p_gate.set_defaults(func=_cmd_gate)

    p_atlas = sub.add_parser("atlas", help="atlas verification and lookup")
    p_atlas.add_argument("action", choices=["verify", "lookup", "export"])
    p_atlas.add_argument("--param-cap", type=int, default=3,
                         help="verify parameters up to this value")
    p_atlas.add_argument("--germ", default=None, help="germ expression (lookup)")
    p_atlas.add_argument("--output", default=None, help="export file path")
    _add_engine_flags(p_atlas)
    p_atlas.set_defaults(func=_cmd_atlas)
    return parser


def run(argv: list[str]) -> int:
    """Run one command line; returns the exit code."""
    parser = build_arg_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    if args.max_degree < 1:
        print("error: d_max must be at least 1", file=sys.stderr)
        return 1
    try:
        return args.func(args)
    except NotStabilizedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (GermcalcError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # internal invariant violation
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
