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

The least rendering is found piece by piece, not by rendering every
reindexing.  A rendering is a sequence of pieces, each one component's
text with its separator (", " or ")"); the search renders one piece at a
time and keeps only the candidates whose piece is least, ties included,
so its result is exactly the least full text.  The match key used by
atlas lookups runs the same search with the target-component and branch
orders left free as well.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Sequence

from .errors import GermSyntaxError
from .germ import Branch, MultiGerm, intern, remembered
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
    The germ returned is interned (`germ.intern`), branches included, so
    equal results in one process are one object; only the returned germ
    is, not the one in first-appearance order that the canonical order
    is searched from.
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
    return intern(canonical_variable_order(result) if canonical else result)


# -- printer ----------------------------------------------------------------

def _integer(coef: Fraction) -> int:
    if coef.denominator != 1:
        raise ValueError(
            "the surface syntax is integral; cannot print coefficient "
            f"{coef}")
    return coef.numerator


def _term_text(c: int, mono: Sequence[int], names: tuple[str, ...]) -> str:
    """One term with its sign, such as "+x*y^2", "-3*z" or "+5"."""
    sign = "-" if c < 0 else "+"
    body = "*".join(names[i] if e == 1 else f"{names[i]}^{e}"
                    for i, e in enumerate(mono) if e)
    if not body:
        return f"{sign}{abs(c)}"
    return sign + body if abs(c) == 1 else f"{sign}{abs(c)}*{body}"


# A component as the printer reads it: its terms in print order, each as
# (degree, [(variable, exponent)], coefficient), and the variables it uses.
_Component = tuple[list[tuple[int, list[tuple[int, int]], int]], list[int]]


def _component(poly: Poly) -> _Component:
    terms = [(sum(mono), [(v, e) for v, e in enumerate(mono) if e],
              _integer(coef)) for mono, coef in poly.sorted_terms()]
    return terms, sorted({v for _, pairs, _ in terms for v, _ in pairs})


def _render_placed(comp: _Component, place: tuple[int, ...],
                   names: tuple[str, ...]) -> str:
    """The text of the component with variable v renamed to variable
    place[v]; every variable the component uses must be placed."""
    n = len(place)
    moved = []
    for deg, pairs, c in comp[0]:
        mono = [0] * n
        for v, e in pairs:
            mono[place[v]] = e
        moved.append((deg, mono, c))
    moved.sort(reverse=True)  # descending graded-lex, as Poly.sorted_terms
    text = "".join(_term_text(c, mono, names) for _, mono, c in moved)
    return text.removeprefix("+") or "0"


def render_poly(poly: Poly, names: tuple[str, ...] | None = None) -> str:
    if names is None:
        names = variable_names(poly.nvars)
    return _render_placed(_component(poly), tuple(range(poly.nvars)), names)


def _join_branches(texts: Sequence[str]) -> str:
    """The multigerm text of the given branch texts, in order."""
    return texts[0] if len(texts) == 1 else "{" + "; ".join(texts) + "}"


def _require_named(n: int) -> None:
    if n > len(_DEFAULT_NAMES):
        raise ValueError(
            f"the canonical variable order is defined for at most "
            f"{len(_DEFAULT_NAMES)} variables; this germ has {n}")


# -- least rendering --------------------------------------------------------

def _placements(place: tuple[int, ...],
                variables: list[int]) -> list[tuple[int, ...]]:
    """Every extension of the partial variable map `place` (-1 marks an
    unplaced variable) that places each of `variables`."""
    out = [place]
    for v in variables:
        if place[v] < 0:
            out = [q[:v] + (j,) + q[v + 1:]
                   for q in out for j in range(len(q)) if j not in q]
    return out


def _first_of_each_kind(choices: range, taken: tuple[int, ...],
                        kinds: Sequence) -> list[int]:
    """The choices not yet taken, keeping only the first of each kind."""
    free = [x for x in choices if x not in taken]
    return [x for x in free
            if all(kinds[y] != kinds[x] for y in free if y < x)]


def _least_rendering(f: MultiGerm,
                     arrange: bool) -> tuple[str, tuple[int, ...]]:
    """The least rendering of f over every variable order and, with
    `arrange`, every target-component order and branch order too; with a
    variable order that gives it (old variable v becomes variable
    order[v]).

    A rendering is a fixed sequence of pieces, one per (branch slot,
    component slot): the component's text and its separator, ", " or ")".
    No component text contains "," or ")", so no piece is a proper prefix
    of another piece in the same place, and the least text is the one whose
    pieces are least one by one.  The search therefore renders one piece
    at a time and keeps only the candidates whose piece is least; ties are
    all kept, so the result is exact.  A candidate places only the
    variables its pieces use so far and picks a target or a branch at the
    first piece that needs it.  Two targets with equal components in every
    branch, or two equal branches, give the same texts when swapped, so
    only the first free one of each kind is tried.  The separator is part
    of every comparison: "x" < "x*y" but "x, " > "x*y, ".  Raises
    ValueError above 6 variables and, before the search starts, for any
    non-integral coefficient.
    """
    n, p, r = f.n, f.p, f.r
    _require_named(n)
    names = variable_names(n)
    comps = [[_component(c) for c in b.components] for b in f.branches]
    # the terms of each branch and of each target, to find equal ones
    rows = [[comp[0] for comp in row] for row in comps]
    columns = [[row[t] for row in rows] for t in range(p)]
    rendered: dict[tuple, str] = {}
    # a candidate: (variable placement, target order so far, branch order
    # so far); without `arrange` both orders are fixed from the start
    states = [((-1,) * n, () if arrange else tuple(range(p)),
               () if arrange else tuple(range(r)))]
    slots = []
    for s in range(r):
        pieces = []
        for i in range(p):
            sep = ")" if i == p - 1 else ", "
            best, kept = None, []
            for place, targets, branches in states:
                bs = ([branches[s]] if s < len(branches) else
                      _first_of_each_kind(range(r), branches, rows))
                ts = ([targets[i]] if i < len(targets) else
                      _first_of_each_kind(range(p), targets, columns))
                for b, t in itertools.product(bs, ts):
                    comp = comps[b][t]
                    grown = (targets if i < len(targets) else targets + (t,),
                             branches if s < len(branches) else branches + (b,))
                    for q in _placements(place, comp[1]):
                        key = (b, t, tuple(q[v] for v in comp[1]))
                        text = rendered.get(key)
                        if text is None:
                            text = rendered[key] = _render_placed(comp, q, names)
                        piece = text + sep
                        if best is None or piece < best:
                            best, kept = piece, []
                        if piece == best:
                            kept.append((q, *grown))
            states = kept
            pieces.append(best)
        slots.append("(" + "".join(pieces))
    place = states[0][0]  # unused variables take the positions left over
    unused = iter(j for j in range(n) if j not in place)
    return (_join_branches(slots),
            tuple(j if j >= 0 else next(unused) for j in place))


def canonical_form(f: MultiGerm) -> tuple[MultiGerm, str]:
    """f in canonical variable order and its text (`format_multigerm`),
    read off one search."""
    text, order = _least_rendering(f, arrange=False)
    if order != tuple(range(f.n)):
        f = MultiGerm(tuple(
            Branch(tuple(c.remap_variables(f.n, order) for c in b.components))
            for b in f.branches))
    return f, text


def canonical_variable_order(f: MultiGerm) -> MultiGerm:
    """Reindex variables to minimize the rendered text.

    Invariants are insensitive to this permutation; it pins down one
    representative per variable ordering so parse and format round-trip.
    Raises ValueError for germs in more than 6 variables, where neither
    the names nor the search are defined.
    """
    return canonical_form(f)[0]


def format_multigerm(f: MultiGerm) -> str:
    """Deterministic canonical rendering; parse(format(f)) == f for any f
    produced by the parser (and any canonical f)."""
    return _least_rendering(f, arrange=False)[0]


@remembered
def canonical_match_key(f: MultiGerm) -> str:
    """The least rendering of f over all variable orders, branch orders and
    target-component orders.

    Branch order, source-variable reindexing and target-component
    reindexing are all changes of coordinates, so two germs with equal keys
    are equivalent; the converse fails, which is why lookups fall back to
    invariant matching.

    The least text is found piece by piece, each piece a component's text
    with its separator (`_least_rendering`), and is exact: it equals the
    least of the n! * p! * r! full renderings.  A branch text ends at its
    first ")", so for any one variable and target order the least branch
    arrangement is the sorted one.
    """
    return _least_rendering(f, arrange=True)[0]
