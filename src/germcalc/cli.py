"""Command-line front end and the germ-expression surface syntax.

Grammar (whitespace insignificant):

    multigerm := branch | "{" branch (";" branch)* "}"
    branch    := "(" poly ("," poly)* ")"
    poly      := ["+"|"-"] term (("+"|"-") term)*
    term      := integer | [integer "*"] factor ("*" factor)*
    factor    := var ["^" natural]
    var       := lowercase letter followed by letters/digits/underscores

Coefficients in the surface syntax are integers; the internal arithmetic
is rational.  Parsing orders variables by first appearance and then
canonicalizes: among all reindexings of the variables, the one whose
rendering is lexicographically smallest is chosen, which makes
parse(format(f)) the identity on parser output and printing insensitive
to the variable order the caller happened to build a germ in.

Subcommands: `eval` (invariants), `build` (constructions), `gate`
(aggregated simplicity report), `atlas verify|lookup|export`.  Exit codes:
0 success, 1 parse/validation error, 2 failure to stabilize, 3 internal
error.  GERMCALC_MAX_DEGREE overrides the default truncation cap.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
from fractions import Fraction
from functools import lru_cache

from . import germ as germ_mod
from . import tangent
from .errors import GermcalcError, GermSyntaxError, NotCorankOneError, NotStabilizedError
from .germ import Branch, MultiGerm
from .ring import Poly, StabilizationPolicy

_DEFAULT_NAMES = ("x", "y", "z", "w", "u", "v")


def variable_names(n: int) -> tuple[str, ...]:
    if n <= len(_DEFAULT_NAMES):
        return _DEFAULT_NAMES[:n]
    return tuple(f"x{i + 1}" for i in range(n))


# -- tokenizer / parser ------------------------------------------------------

_PUNCT = {"{", "}", "(", ")", ";", ",", "+", "-", "*", "^"}


def _line_col(text: str, offset: int) -> str:
    line = text.count("\n", 0, offset) + 1
    col = offset - (text.rfind("\n", 0, offset) + 1) + 1
    return f"line {line}, column {col}"


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens: list[tuple[str, str, int]] = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _PUNCT:
            tokens.append(("punct", ch, i))
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append(("int", text[i:j], i))
            i = j
            continue
        if ch.isalpha() and ch.islower():
            j = i + 1
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("var", text[i:j], i))
            i = j
            continue
        raise GermSyntaxError(
            f"unexpected character {ch!r} at {_line_col(text, i)}", i)
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.var_order: list[str] = []

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.pos]

    def take(self, kind: str, value: str | None = None) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        if tok[0] != kind or (value is not None and tok[1] != value):
            want = value if value is not None else kind
            raise GermSyntaxError(
                f"expected {want!r} at {_line_col(self.text, tok[2])}, "
                f"found {tok[1]!r}", tok[2])
        self.pos += 1
        return tok

    def at_punct(self, value: str) -> bool:
        tok = self.peek()
        return tok[0] == "punct" and tok[1] == value

    def _var_index(self, name: str) -> int:
        if name not in self.var_order:
            self.var_order.append(name)
        return self.var_order.index(name)

    def parse_multigerm(self) -> list[list[list[tuple[int, dict[int, int]]]]]:
        branches = []
        if self.at_punct("{"):
            self.take("punct", "{")
            branches.append(self.parse_branch())
            while self.at_punct(";"):
                self.take("punct", ";")
                branches.append(self.parse_branch())
            self.take("punct", "}")
        else:
            branches.append(self.parse_branch())
        self.take("end")
        return branches

    def parse_branch(self) -> list[list[tuple[int, dict[int, int]]]]:
        self.take("punct", "(")
        comps = [self.parse_poly()]
        while self.at_punct(","):
            self.take("punct", ",")
            comps.append(self.parse_poly())
        self.take("punct", ")")
        return comps

    def parse_poly(self) -> list[tuple[int, dict[int, int]]]:
        terms = []
        sign = 1
        if self.at_punct("+") or self.at_punct("-"):
            if self.take("punct")[1] == "-":
                sign = -1
        terms.append(self.parse_term(sign))
        while self.at_punct("+") or self.at_punct("-"):
            sign = 1 if self.take("punct")[1] == "+" else -1
            terms.append(self.parse_term(sign))
        return terms

    def parse_term(self, sign: int) -> tuple[int, dict[int, int]]:
        coef = sign
        exps: dict[int, int] = {}
        tok = self.peek()
        if tok[0] == "int":
            coef = sign * int(self.take("int")[1])
            if not self.at_punct("*"):
                return (coef, exps)
            self.take("punct", "*")
        self._parse_factor(exps)
        while self.at_punct("*"):
            self.take("punct", "*")
            self._parse_factor(exps)
        return (coef, exps)

    def _parse_factor(self, exps: dict[int, int]) -> None:
        name = self.take("var")[1]
        idx = self._var_index(name)
        exp = 1
        if self.at_punct("^"):
            self.take("punct", "^")
            exp = int(self.take("int")[1])
        exps[idx] = exps.get(idx, 0) + exp


def parse_poly(text: str, nvars: int | None = None,
               names: tuple[str, ...] | None = None) -> Poly:
    """Parse a single polynomial.

    Variables are indexed by first appearance, or resolved against the
    explicit `names` tuple when given (unknown names are then an error).
    """
    parser = _Parser(text)
    terms = parser.parse_poly()
    parser.take("end")
    if names is not None:
        index = {}
        for var in parser.var_order:
            if var not in names:
                raise GermSyntaxError(f"unknown variable {var!r}; expected "
                                      f"one of {names}")
            index[parser.var_order.index(var)] = names.index(var)
        n = len(names)
    else:
        index = {i: i for i in range(len(parser.var_order))}
        n = len(parser.var_order) if nvars is None else nvars
        if n < len(parser.var_order):
            raise GermSyntaxError(
                f"{len(parser.var_order)} variables appear but only {n} declared")
    out: dict[tuple[int, ...], int] = {}
    for coef, exps in terms:
        mono = [0] * n
        for i, e in exps.items():
            mono[index[i]] += e
        key = tuple(mono)
        out[key] = out.get(key, 0) + coef
    return Poly(n, out)


def parse_multigerm(text: str, source_dim: int | None = None,
                    target_dim: int | None = None,
                    canonical: bool = True) -> MultiGerm:
    """Parse a germ expression into a canonical MultiGerm.

    The source dimension is the number of distinct variables (the
    source_dim override may declare unused extra variables); the target
    dimension is the shared component count.  Raises GermSyntaxError on
    malformed input, inconsistent branch arities or a nonzero constant
    term.  canonical=False keeps variables in first-appearance order,
    which callers that attach meaning to variable positions (unfolding
    parameters) rely on.
    """
    parser = _Parser(text)
    raw = parser.parse_multigerm()
    n = len(parser.var_order)
    if source_dim is not None:
        if source_dim < n:
            raise GermSyntaxError(
                f"source-dim {source_dim} is less than the {n} variables appearing")
        n = source_dim
    p = len(raw[0])
    branches = []
    for bi, comps in enumerate(raw):
        if len(comps) != p:
            raise GermSyntaxError(
                f"branch arity mismatch: branch 1 has {p} components, "
                f"branch {bi + 1} has {len(comps)}")
        polys = []
        for terms in comps:
            out: dict[tuple[int, ...], int] = {}
            for coef, exps in terms:
                mono = tuple(exps.get(i, 0) for i in range(n))
                out[mono] = out.get(mono, 0) + coef
            poly = Poly(n, out)
            if poly.constant_term() != 0:
                raise GermSyntaxError(
                    "branch components must have zero constant term")
            polys.append(poly)
        branches.append(Branch(tuple(polys)))
    if target_dim is not None and target_dim != p:
        raise GermSyntaxError(
            f"target-dim {target_dim} disagrees with the {p} components")
    result = MultiGerm(tuple(branches))
    return canonical_variable_order(result) if canonical else result


# -- printer ----------------------------------------------------------------

def _render_term(mono: tuple[int, ...], coef: Fraction,
                 names: tuple[str, ...]) -> str:
    if coef.denominator != 1:
        raise ValueError(
            "the surface syntax is integral; cannot print coefficient "
            f"{coef}")
    c = abs(coef.numerator)
    factors = []
    for i, e in enumerate(mono):
        if e == 1:
            factors.append(names[i])
        elif e > 1:
            factors.append(f"{names[i]}^{e}")
    if not factors:
        return str(c)
    body = "*".join(factors)
    return body if c == 1 else f"{c}*{body}"


def render_poly(poly: Poly, names: tuple[str, ...] | None = None) -> str:
    if names is None:
        names = variable_names(poly.nvars)
    if poly.is_zero():
        return "0"
    bits = []
    for mono, coef in poly.sorted_terms():
        rendered = _render_term(mono, coef, names)
        if not bits:
            bits.append(f"-{rendered}" if coef < 0 else rendered)
        else:
            bits.append(("-" if coef < 0 else "+") + rendered)
    return "".join(bits)


def _render_multigerm(f: MultiGerm) -> str:
    names = variable_names(f.n)
    rendered = []
    for branch in f.branches:
        comps = ", ".join(render_poly(c, names) for c in branch.components)
        rendered.append(f"({comps})")
    if len(rendered) == 1:
        return rendered[0]
    return "{" + "; ".join(rendered) + "}"


def canonical_variable_order(f: MultiGerm) -> MultiGerm:
    """Reindex variables to minimize the rendered text.

    Invariants are insensitive to this permutation; it pins down one
    representative per variable ordering so parse and format round-trip.
    Germs in more than 6 variables are returned unchanged.
    """
    n = f.n
    if n > 6:
        return f
    best_text = None
    best = f
    for perm in itertools.permutations(range(n)):
        candidate = MultiGerm(tuple(
            Branch(tuple(c.remap_variables(n, perm) for c in b.components))
            for b in f.branches))
        text = _render_multigerm(candidate)
        if best_text is None or text < best_text:
            best_text, best = text, candidate
    return best


def format_multigerm(f: MultiGerm) -> str:
    """Deterministic canonical rendering; parse(format(f)) == f for any f
    produced by the parser (and any canonical f)."""
    return _render_multigerm(canonical_variable_order(f))


@lru_cache(maxsize=None)
def canonical_text_modulo_branches(f: MultiGerm) -> str:
    """Canonical text insensitive to branch order, for structural matching."""
    best = None
    for perm in itertools.permutations(range(f.r)):
        text = format_multigerm(MultiGerm(tuple(f.branches[i] for i in perm)))
        if best is None or text < best:
            best = text
    return best


@lru_cache(maxsize=None)
def canonical_match_key(f: MultiGerm) -> str:
    """Canonical text additionally insensitive to the target-component order.

    Branch order, source-variable reindexing and target-component
    reindexing are all changes of coordinates, so two germs with equal keys
    are equivalent; the converse fails, which is why lookups fall back to
    invariant matching.
    """
    best = None
    for perm in itertools.permutations(range(f.p)):
        permuted = MultiGerm(tuple(
            Branch(tuple(b.components[i] for i in perm))
            for b in f.branches))
        text = canonical_text_modulo_branches(permuted)
        if best is None or text < best:
            best = text
    return best


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

def _policy_from_args(args) -> StabilizationPolicy:
    d_max = args.max_degree
    if d_max is None:
        d_max = int(os.environ.get("GERMCALC_MAX_DEGREE", "16"))
    return StabilizationPolicy(d0=args.d0, window=args.window, d_max=d_max)


def _add_engine_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--max-degree", type=int, default=None,
                     help="truncation-degree cap (default 16 or "
                          "GERMCALC_MAX_DEGREE)")
    sub.add_argument("--window", type=int, default=2,
                     help="consecutive equal values required to stabilize")
    sub.add_argument("--d0", type=int, default=None,
                     help="starting truncation degree (default: automatic)")
    sub.add_argument("--json", action="store_true", help="machine-readable output")


def _cmd_eval(args) -> int:
    policy = _policy_from_args(args)
    f = parse_multigerm(args.germ, source_dim=args.source_dim,
                        target_dim=args.target_dim)
    m0 = germ_mod.multiplicity(f, policy)
    cork = germ_mod.germ_corank(f)
    try:
        atype = list(germ_mod.recognize_type(f, policy).ks)
    except NotCorankOneError:
        atype = None
    ae = tangent.ae_codim(f, policy)
    a = tangent.a_codim(f, policy)
    wilson = tangent.wilson_check(f, policy)
    payload = {
        "germ": format_multigerm(f),
        "invariants": {
            "m0": m0,
            "corank": cork,
            "atype": atype,
            "aecod": ae.value,
            "acod": a.value,
            "wilson": wilson.status,
        },
        "degrees_used": {"aecod": ae.degree_used, "acod": a.degree_used},
        "curves": {"aecod": list(ae.curve), "acod": list(a.curve)},
    }
    if args.json:
        print(json.dumps(_jsonable(payload), sort_keys=True))
    else:
        print(f"germ:     {payload['germ']}")
        print(f"(n, p, r): ({f.n}, {f.p}, {f.r})")
        print(f"m0:       {m0}")
        print(f"corank:   {cork}")
        label = "A_{" + ",".join(map(str, atype)) + "}" if atype else "corank >= 2"
        print(f"type:     {label}")
        print(f"aecod:    {ae.value}   (degree {ae.degree_used})")
        print(f"acod:     {a.value}   (degree {a.degree_used})")
        for name, res in (("aecod", ae), ("acod", a)):
            first = res.degree_used - len(res.curve) + 1
            print(f"curve:    {name} {list(res.curve)}   "
                  f"(degrees {first}..{res.degree_used})")
        print(f"wilson:   {wilson.status}")
    return 0


def _unfolding_from_expr(expr: str, s: int):
    from . import ops
    total = parse_multigerm(expr, canonical=False)
    return ops.normalized_unfolding(total, s)


def _cmd_build(args) -> int:
    from . import ops
    policy = _policy_from_args(args)
    check = not args.unchecked
    op = args.operation
    if op in ("augment", "augconc") and not args.phi:
        raise ValueError(f"{op} needs --phi")
    if op == "genconc" and not args.gbar:
        raise ValueError("genconc needs --gbar")
    if op == "augment":
        u = _unfolding_from_expr(args.germ, 1)
        phi = parse_poly(args.phi)
        result = ops.augment(u, phi, policy, check_stability=check)
    elif op == "monic":
        u = _unfolding_from_expr(args.germ, 1)
        result = ops.monic_concat(u, policy, check_stability=check)
    elif op == "binary":
        if not args.germ2:
            raise ValueError("binary concatenation needs --germ2")
        u = _unfolding_from_expr(args.germ, 1)
        v = _unfolding_from_expr(args.germ2, 1)
        result = ops.binary_concat(u, v, policy, check_stability=check)
    elif op == "genconc":
        u = _unfolding_from_expr(args.germ, args.s)
        gbar = parse_multigerm(args.gbar)
        result = ops.generalised_concat(u, gbar, policy, check_stability=check)
    elif op == "augconc":
        u = _unfolding_from_expr(args.germ, 1)
        phi = parse_poly(args.phi)
        result = ops.sim_aug_concat(u, phi, policy, check_stability=check)
    else:  # pragma: no cover - argparse restricts choices
        raise ValueError(f"unknown build operation {op!r}")
    text = format_multigerm(result)
    if args.json:
        print(json.dumps({"germ": text}, sort_keys=True))
    else:
        print(text)
    return 0


def _cmd_gate(args) -> int:
    from . import gates
    policy = _policy_from_args(args)
    f = parse_multigerm(args.germ)
    flags = frozenset(s.strip() for s in (args.asserted or "").split(",") if s.strip())
    report = gates.simplicity_report(
        f, policy, gates.ReportAssertions(flags=flags))
    payload = {
        "germ": format_multigerm(f),
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
            print(f"  {name}: {tv.kind}" + (f" [{tv.rule}]" if tv.rule else ""))
    return 0


def _cmd_atlas(args) -> int:
    from . import atlas
    policy = _policy_from_args(args)
    action = args.action
    if action == "verify":
        report = atlas.verify_all(args.param_cap, policy)
        if args.json:
            print(json.dumps(_jsonable(report.as_dict()), sort_keys=True))
        else:
            for row in report.rows:
                status = "ok" if row.match else "MISMATCH"
                print(f"{row.name:12s} {row.params_text:18s} computed={row.computed} "
                      f"expected={row.expected} [{status}] "
                      f"degree={row.degree_used} {row.seconds:.2f}s{' ' + row.note if row.note else ''}")
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
        f = parse_multigerm(args.germ)
        result = atlas.lookup(f, policy)
        payload = {
            "germ": format_multigerm(f),
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
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        else:
            print(text)
        return 0
    raise ValueError(f"unknown atlas action {action!r}")  # pragma: no cover


def build_arg_parser() -> argparse.ArgumentParser:
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
                        help="comma-separated hypothesis flags")
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
    try:
        return args.func(args)
    except NotStabilizedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (GermSyntaxError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except GermcalcError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # internal invariant violation
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
