"""The germ-expression surface syntax: parser, printer and canonical keys.

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
to the variable order the caller happened to build a germ in.  The
canonical order is defined for at most 6 variables; canonicalizing a
germ in more raises ValueError instead of breaking the round trip.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from .errors import GermSyntaxError
from .germ import Branch, MultiGerm
from .ring import Poly

_DEFAULT_NAMES = ("x", "y", "z", "w", "u", "v")


def variable_names(n: int) -> tuple[str, ...]:
    if n <= len(_DEFAULT_NAMES):
        return _DEFAULT_NAMES[:n]
    return tuple(f"x{i + 1}" for i in range(n))


# -- tokenizer / parser ------------------------------------------------------

_PUNCT = {"{", "}", "(", ")", ";", ",", "+", "-", "*", "^"}

Term = tuple[int, dict[int, int]]  # (coefficient, variable index -> exponent)


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

    def parse_multigerm(self) -> list[list[list[Term]]]:
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

    def parse_branch(self) -> list[list[Term]]:
        self.take("punct", "(")
        comps = [self.parse_poly()]
        while self.at_punct(","):
            self.take("punct", ",")
            comps.append(self.parse_poly())
        self.take("punct", ")")
        return comps

    def parse_poly(self) -> list[Term]:
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

    def parse_term(self, sign: int) -> Term:
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


def _terms_to_poly(terms: list[Term], n: int, index: Sequence[int]) -> Poly:
    """Collect parsed terms into a Poly in n variables; parser variable i
    becomes variable index[i]."""
    out: dict[tuple[int, ...], int] = {}
    for coef, exps in terms:
        mono = [0] * n
        for i, e in exps.items():
            mono[index[i]] += e
        key = tuple(mono)
        out[key] = out.get(key, 0) + coef
    return Poly(n, out)


def parse_poly(text: str, names: tuple[str, ...] | None = None) -> Poly:
    """Parse a single polynomial.

    Variables are indexed by first appearance, or resolved against the
    explicit `names` tuple when given (unknown names are then an error).
    """
    parser = _Parser(text)
    terms = parser.parse_poly()
    parser.take("end")
    if names is None:
        return _terms_to_poly(terms, len(parser.var_order),
                              range(len(parser.var_order)))
    for var in parser.var_order:
        if var not in names:
            raise GermSyntaxError(f"unknown variable {var!r}; expected "
                                  f"one of {names}")
    return _terms_to_poly(terms, len(names),
                          [names.index(var) for var in parser.var_order])


def parse_multigerm(text: str, source_dim: int | None = None,
                    target_dim: int | None = None,
                    canonical: bool = True) -> MultiGerm:
    """Parse a germ expression into a canonical MultiGerm.

    The source dimension is the number of distinct variables (the
    source_dim override may declare unused extra variables); the target
    dimension is the shared component count.  Raises GermSyntaxError on
    malformed input, inconsistent branch arities or a nonzero constant
    term, and ValueError when canonicalizing more than 6 variables.
    canonical=False keeps variables in first-appearance order, which
    callers that attach meaning to variable positions (unfolding
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
            poly = _terms_to_poly(terms, n, range(n))
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
    text = "".join(("-" if coef < 0 else "+") + _render_term(mono, coef, names)
                   for mono, coef in poly.sorted_terms())
    return text.removeprefix("+") or "0"


def _join_branches(texts: Sequence[str]) -> str:
    """The multigerm text of the given branch texts, in order."""
    return texts[0] if len(texts) == 1 else "{" + "; ".join(texts) + "}"


def _render_multigerm(f: MultiGerm) -> str:
    names = variable_names(f.n)
    return _join_branches([
        "(" + ", ".join(render_poly(c, names) for c in branch.components) + ")"
        for branch in f.branches])


def _require_named(n: int) -> None:
    if n > len(_DEFAULT_NAMES):
        raise ValueError(
            f"the canonical variable order is defined for at most "
            f"{len(_DEFAULT_NAMES)} variables; this germ has {n}")


def canonical_variable_order(f: MultiGerm) -> MultiGerm:
    """Reindex variables to minimize the rendered text.

    Invariants are insensitive to this permutation; it pins down one
    representative per variable ordering so parse and format round-trip.
    Raises ValueError for germs in more than 6 variables, where neither
    the names nor the permutation search are defined.
    """
    n = f.n
    _require_named(n)
    candidates = (MultiGerm(tuple(
        Branch(tuple(c.remap_variables(n, perm) for c in b.components))
        for b in f.branches)) for perm in itertools.permutations(range(n)))
    return min(candidates, key=_render_multigerm)


def format_multigerm(f: MultiGerm) -> str:
    """Deterministic canonical rendering; parse(format(f)) == f for any f
    produced by the parser (and any canonical f)."""
    return _render_multigerm(canonical_variable_order(f))


@lru_cache(maxsize=1024)
def canonical_match_key(f: MultiGerm) -> str:
    """The least rendering of f over all variable orders, branch orders and
    target-component orders.

    Branch order, source-variable reindexing and target-component
    reindexing are all changes of coordinates, so two germs with equal keys
    are equivalent; the converse fails, which is why lookups fall back to
    invariant matching.

    A branch text ends at its first ")", so no branch text is a prefix of
    another and the least concatenation of the branches is the sorted one:
    each branch is rendered once per variable order instead of once per
    branch order.
    """
    n = f.n
    _require_named(n)
    names = variable_names(n)
    target_orders = list(itertools.permutations(range(f.p)))
    best = None
    for perm in itertools.permutations(range(n)):
        texts = [[render_poly(c.remap_variables(n, perm), names)
                  for c in b.components] for b in f.branches]
        for order in target_orders:
            text = _join_branches(sorted(
                "(" + ", ".join(t[i] for i in order) + ")" for t in texts))
            if best is None or text < best:
                best = text
    return best
