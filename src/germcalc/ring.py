"""Exact sparse polynomial arithmetic and local-algebra dimensions.

A polynomial is stored sparsely as a mapping from exponent tuples to nonzero
rational coefficients:

    x^2*y + 3   (2 variables)  ->  {(2, 1): Fraction(1), (0, 0): Fraction(3)}

All arithmetic is exact; no floating point enters anywhere.  Monomials are
plain exponent tuples, one entry per variable of the ambient ring.  The
canonical monomial order used throughout is graded lexicographic: compare
total degree first, then the exponent tuple itself.

The module also provides the graded-quotient engine behind every dimension:
the dimension of K[[x]]/I is read as the dimension of (monomials of degree
<= d) modulo (generator multiples of degree <= d) for increasing d, until
the value first repeats, which proves it exact.  One elimination at a top
degree D, pivoting on the lowest-degree term, gives that value at every d
<= D at once; the tangent-space engine uses the same elimination and the
same search (`stabilize_curve`), which stops only on a Nakayama
certificate, with its own certificate rows.  The search tries no degree
past `d_max`, an int that every dimension function takes and that
defaults to `D_MAX`; it is the engines' only setting.  Both engines
build their rows on monomial index tables (`MonomialTables`): a monomial
is its position in the graded order, x_v times it is a lookup in a step
table, and a product with a fixed monomial is a shift table composed from
the steps, so no row is built by multiplying exponent tuples.  Each
elimination builds the multiples of each generator in one pass at its
top (`multiples`): the rows of one |a| read their columns off one shift
table per term, and no row is kept for the next elimination.  Many
generator rows are unit vectors or become unit vectors once other unit
columns are stripped.  A row that is a unit vector as built (every
multiple x^a * g of a one-term generator g, such as a monomial in an
ideal or a one-term partial derivative in the tangent space) is handed
to the elimination as a killed column, never built; the elimination
peels the rest of those rows (a singleton presolve) and runs the echelon
on what remains.  The pivot set, hence every value and basis,
is the same as without either step, because an echelon basis's lead
columns are unique.  Milnor and Tjurina numbers of function germs are
thin wrappers around it.
"""

from __future__ import annotations

import itertools
from array import array
from bisect import bisect_left, bisect_right
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from operator import add
from typing import Iterable, Sequence

from .errors import NotStabilizedError
from ._echelon import RowSpan

Monomial = tuple[int, ...]

Coefficient = int | Fraction


def monomial_mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(x + y for x, y in zip(a, b))


def grlex_key(mono: Monomial) -> tuple[int, Monomial]:
    """Sort key for graded lexicographic order (ascending)."""
    return (sum(mono), mono)


def monomials_up_to(nvars: int, degree: int) -> tuple[Monomial, ...]:
    """All exponent tuples of total degree <= degree, in graded-lex order."""
    if nvars == 0:
        return ((),) if degree >= 0 else ()
    out: list[Monomial] = []
    for d in range(degree + 1):
        # weak compositions of d into nvars parts
        for bars in itertools.combinations(range(d + nvars - 1), nvars - 1):
            prev = -1
            mono = []
            for b in bars:
                mono.append(b - prev - 1)
                prev = b
            mono.append(d + nvars - 2 - prev)
            out.append(tuple(mono))
    out.sort(key=grlex_key)
    return tuple(out)


class Poly:
    """An immutable sparse polynomial with exact rational coefficients."""

    __slots__ = ("nvars", "_terms", "_key", "_hash")

    def __init__(self, nvars: int, terms: dict[Monomial, Coefficient] | None = None):
        if nvars < 0:
            raise ValueError("nvars must be non-negative")
        clean: dict[Monomial, Fraction] = {}
        for mono, coef in (terms or {}).items():
            if len(mono) != nvars:
                raise ValueError(
                    f"monomial {mono} has {len(mono)} exponents, expected {nvars}")
            if any(e < 0 for e in mono):
                raise ValueError(f"negative exponent in monomial {mono}")
            if type(coef) is not Fraction:
                coef = Fraction(coef)
            if coef:
                clean[mono] = coef
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "_terms", clean)
        object.__setattr__(self, "_key", None)
        object.__setattr__(self, "_hash", None)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(nvars: int) -> Poly:
        return Poly(nvars, {})

    @staticmethod
    def const(nvars: int, value: Coefficient) -> Poly:
        return Poly(nvars, {(0,) * nvars: Fraction(value)})

    @staticmethod
    def variable(nvars: int, index: int) -> Poly:
        if not 0 <= index < nvars:
            raise ValueError(f"variable index {index} out of range for {nvars} variables")
        exps = [0] * nvars
        exps[index] = 1
        return Poly(nvars, {tuple(exps): Fraction(1)})

    @staticmethod
    def monomial(nvars: int, mono: Monomial, coef: Coefficient = 1) -> Poly:
        return Poly(nvars, {tuple(mono): Fraction(coef)})

    # -- basic queries -----------------------------------------------------

    @property
    def terms(self) -> dict[Monomial, Fraction]:
        return dict(self._terms)

    def items(self):
        return self._terms.items()

    def is_zero(self) -> bool:
        return not self._terms

    def degree(self) -> int:
        """Total degree; the zero polynomial has degree -1 by convention."""
        if not self._terms:
            return -1
        return max(sum(m) for m in self._terms)

    def order(self) -> int:
        """Minimal total degree of a term; -1 for the zero polynomial."""
        if not self._terms:
            return -1
        return min(sum(m) for m in self._terms)

    def constant_term(self) -> Fraction:
        return self._terms.get((0,) * self.nvars, Fraction(0))

    def coefficient(self, mono: Monomial) -> Fraction:
        return self._terms.get(tuple(mono), Fraction(0))

    def sorted_terms(self) -> list[tuple[Monomial, Fraction]]:
        """Terms in descending graded-lex order."""
        return sorted(self._terms.items(), key=lambda kv: grlex_key(kv[0]),
                      reverse=True)

    def linear_part(self) -> list[Fraction]:
        """Coefficients of the degree-1 terms, one per variable."""
        out = [Fraction(0)] * self.nvars
        for mono, coef in self._terms.items():
            if sum(mono) == 1:
                out[mono.index(1)] = coef
        return out

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other) -> Poly | None:
        if isinstance(other, Poly):
            return other if other.nvars == self.nvars else None
        if isinstance(other, (int, Fraction)):
            return Poly.const(self.nvars, other)
        return None

    def __add__(self, other) -> Poly:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        out = dict(self._terms)
        for mono, coef in rhs._terms.items():
            out[mono] = out.get(mono, Fraction(0)) + coef
        return Poly(self.nvars, out)

    __radd__ = __add__

    def __sub__(self, other) -> Poly:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        out = dict(self._terms)
        for mono, coef in rhs._terms.items():
            out[mono] = out.get(mono, Fraction(0)) - coef
        return Poly(self.nvars, out)

    def __rsub__(self, other) -> Poly:
        return (-self).__add__(other)

    def __neg__(self) -> Poly:
        return Poly(self.nvars, {m: -c for m, c in self._terms.items()})

    def __mul__(self, other) -> Poly:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        out: dict[Monomial, Fraction] = {}
        for ma, ca in self._terms.items():
            for mb, cb in rhs._terms.items():
                mono = monomial_mul(ma, mb)
                out[mono] = out.get(mono, Fraction(0)) + ca * cb
        return Poly(self.nvars, out)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> Poly:
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("exponent must be a non-negative integer")
        result = Poly.const(self.nvars, 1)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

    def diff(self, index: int) -> Poly:
        """Partial derivative with respect to variable `index`."""
        if not 0 <= index < self.nvars:
            raise ValueError(f"variable index {index} out of range")
        out: dict[Monomial, Fraction] = {}
        for mono, coef in self._terms.items():
            e = mono[index]
            if e == 0:
                continue
            new = list(mono)
            new[index] = e - 1
            key = tuple(new)
            out[key] = out.get(key, Fraction(0)) + coef * e
        return Poly(self.nvars, out)

    def truncate(self, degree: int) -> Poly:
        """Drop every term of total degree greater than `degree`."""
        return Poly(self.nvars,
                    {m: c for m, c in self._terms.items() if sum(m) <= degree})

    def remap_variables(self, new_nvars: int, mapping: Sequence[int]) -> Poly:
        """Reindex variables: old variable i becomes new variable mapping[i]."""
        if len(mapping) != self.nvars:
            raise ValueError("mapping length must equal nvars")
        out: dict[Monomial, Fraction] = {}
        for mono, coef in self._terms.items():
            new = [0] * new_nvars
            for i, e in enumerate(mono):
                if e:
                    new[mapping[i]] += e
            key = tuple(new)
            out[key] = out.get(key, Fraction(0)) + coef
        return Poly(new_nvars, out)

    # -- canonical identity --------------------------------------------------

    def _canonical_key(self):
        key = self._key
        if key is None:
            key = (self.nvars, tuple(sorted(self._terms.items())))
            object.__setattr__(self, "_key", key)
        return key

    def __eq__(self, other) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return self._canonical_key() == other._canonical_key()

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash(self._canonical_key())
            object.__setattr__(self, "_hash", h)
        return h

    def __repr__(self) -> str:
        if not self._terms:
            return f"Poly({self.nvars}, 0)"
        bits = []
        for mono, coef in self.sorted_terms():
            factors = "*".join(
                f"v{i}^{e}" if e > 1 else f"v{i}"
                for i, e in enumerate(mono) if e)
            if not factors:
                bits.append(str(coef))
            elif coef == 1:
                bits.append(factors)
            else:
                bits.append(f"{coef}*{factors}")
        return f"Poly({self.nvars}, {' + '.join(bits)})"


def _integral(coef: Fraction) -> Coefficient:
    return coef.numerator if coef.denominator == 1 else coef


def _times(a: dict, b: dict) -> dict:
    """The product of two polynomials given as {monomial: coefficient}."""
    out: dict = {}
    get = out.get
    for ma, ca in a.items():
        for mb, cb in b.items():
            mono = tuple(map(add, ma, mb))
            out[mono] = get(mono, 0) + ca * cb
    return out


def substitute(f: Poly, assignment: Sequence[Poly]) -> Poly:
    """Compose f with the given assignment, one polynomial per variable.

    All polynomials in the assignment must live in one common ambient ring;
    the result lives there too.  Raises ValueError on an arity mismatch.
    The composition runs in one pass over plain {monomial: coefficient}
    dicts, integral coefficients kept as int: each power of an assigned
    polynomial is the one below it times the polynomial, grown only as far
    as f needs it, and the result becomes a `Poly` once, at the end.
    """
    if len(assignment) != f.nvars:
        raise ValueError(
            f"arity mismatch: f has {f.nvars} variables, assignment has "
            f"{len(assignment)}")
    if not assignment:
        return Poly.const(0, f.constant_term())
    ambient = assignment[0].nvars
    for g in assignment:
        if g.nvars != ambient:
            raise ValueError("assignment polynomials must share one ambient ring")
    # powers[i][e - 1] is assignment[i] ** e
    powers = [[{m: _integral(c) for m, c in g.items()}] for g in assignment]
    one = (0,) * ambient
    result: dict = {}
    get = result.get
    for mono, coef in f.items():
        term = None
        for i, e in enumerate(mono):
            if e:
                grown = powers[i]
                while len(grown) < e:
                    grown.append(_times(grown[-1], grown[0]))
                term = (grown[e - 1] if term is None
                        else _times(term, grown[e - 1]))
        coef = _integral(coef)
        if term is None:
            result[one] = get(one, 0) + coef
            continue
        for m, c in term.items():
            result[m] = get(m, 0) + coef * c
    return Poly(ambient, result)


# the default degree cap `d_max` of every dimension engine
D_MAX = 16


class MonomialTables:
    """Index tables of the monomials of degree <= top in n variables.

    Monomials are numbered by their position in `monomials_up_to(n, top)`;
    the order is graded, so the monomials of degree < d are the first
    `start[d]` for every d <= top + 1.  `step[v][i]` is the index of
    x_v * mono_i for every i of degree < top, and `parent[k]` is one pair
    (v, i) with step[v][i] == k, for every k > 0.  A product x^m * x^a is
    then a shift table composed from the step tables (`shift`), so the row
    builders never touch an exponent tuple in their inner loops.

    Three kinds of table are built on the first call and kept, so each
    is built once for every caller at this (n, top): the shift table of a
    monomial (`shift`, in `shifts`), the column ids of one block of a
    blocked column numbering (`columns`, in `blocks`), and a recursion
    over the monomials for one variable order (`recursion`, in
    `recursions`).  Each is no longer than the monomial list, and there
    is at most one per monomial, per block (K, q) and per order of the n
    variables; the column ids and recursions are kept as arrays of
    machine ints.  They live only as long as the tables object itself:
    `monomial_tables` keeps 64 of them.
    """

    __slots__ = ("top", "monos", "index", "start", "deg", "step", "parent",
                 "shifts", "blocks", "recursions")

    def __init__(self, nvars: int, top: int):
        monos = monomials_up_to(nvars, top)
        index = {m: i for i, m in enumerate(monos)}
        deg = [sum(m) for m in monos]
        start = [0] * (top + 2)
        for d in deg:
            start[d + 1] += 1
        start = list(itertools.accumulate(start))
        step = [[index[m[:v] + (m[v] + 1,) + m[v + 1:]]
                 for m in monos[:start[top]]] for v in range(nvars)]
        parent: list[tuple[int, int] | None] = [None] * len(monos)
        for i in range(start[top]):
            for v in range(nvars):
                k = step[v][i]
                if parent[k] is None:
                    parent[k] = (v, i)
        self.top, self.monos, self.index = top, monos, index
        self.start, self.deg, self.step, self.parent = start, deg, step, parent
        self.shifts: dict[int, list[int]] = {}
        self.blocks: dict[tuple[int, int], array] = {}
        self.recursions: dict[tuple[int, ...], tuple[array, array]] = {}

    def terms(self, poly: Poly) -> list[tuple[int, Coefficient]]:
        """(index, coefficient) of every term of degree <= top; integral
        coefficients come back as int."""
        index = self.index
        out = []
        for mono, coef in poly.items():
            k = index.get(mono)
            if k is not None:  # None: the term lies above top
                out.append((k, coef.numerator if coef.denominator == 1 else coef))
        return out

    def shift(self, k: int) -> list[int]:
        """Indices of mono_k * mono_i for every i of degree <= top - deg k,
        composed on the first call and kept in `shifts`; the caller must
        not change the list."""
        got = self.shifts.get(k)
        if got is None:
            if k == 0:
                got = list(range(len(self.monos)))
            else:
                v, prev = self.parent[k]
                step, fits = self.step[v], self.start[self.top - self.deg[k] + 1]
                got = [step[i] for i in self.shift(prev)[:fits]]
            self.shifts[k] = got
        return got

    def columns(self, kept: int, q: int) -> array:
        """The column id of mono_i in the q-th of `kept` blocks, for every
        i: position K start[d] + q width_d + i - start[d] of the degree-d
        blocks (d = deg i, width_d monomials of degree d, K = kept) carries
        the id -position (see `eliminate_graded`).  No id depends on top,
        so the ids at a lower top are a prefix.  Built on the first call
        and kept in `blocks`."""
        got = self.blocks.get((kept, q))
        if got is None:
            start = self.start
            offset = [-(kept - 1) * start[d] - q * (start[d + 1] - start[d])
                      for d in range(self.top + 1)]
            got = array("l", [offset[d] - i for i, d in enumerate(self.deg)])
            self.blocks[kept, q] = got
        return got

    def recursion(self, order: tuple[int, ...]) -> tuple[array, array]:
        """For every monomial mono_k with k > 0, the first variable v of
        `order` that divides it and the index of mono_k / x_v: entry k of
        the two arrays (entry 0 is unused).  Built on the first call and
        kept in `recursions`."""
        got = self.recursions.get(order)
        if got is None:
            size, below = len(self.monos), self.start[self.top]
            var, prev = array("b", [-1]) * size, array("l", [0]) * size
            for v in order:
                for i, k in enumerate(self.step[v][:below]):
                    if var[k] < 0:
                        var[k], prev[k] = v, i
            got = self.recursions[order] = (var, prev)
        return got

    def multiply(self, a: dict[int, Coefficient],
                 terms) -> dict[int, Coefficient]:
        """The product, truncated at top, of a polynomial {index:
        coefficient} with the (index, coefficient) terms of another."""
        out: dict[int, Coefficient] = {}
        for k, c in terms:
            shift = self.shift(k)
            fits = len(shift)
            for i, v in a.items():
                if i < fits:
                    j = shift[i]
                    out[j] = out.get(j, 0) + v * c
        return {j: v for j, v in out.items() if v}


@lru_cache(maxsize=64)
def monomial_tables(nvars: int, top: int) -> MonomialTables:
    return MonomialTables(nvars, top)


def multiples(tables: MonomialTables, terms, low: int, rows: list[dict],
              killed: set[int]) -> None:
    """Hand the rows x^a * g for every |a| >= low of one generator g,
    truncated at the top of `tables`, to an elimination: those of two or
    more entries into `rows`, in the order of |a| and then of a, and the
    column of each one-entry row into `killed` (see `eliminate_graded`).

    `terms` holds the (monomial index, coefficient, column map) triples of
    every term of g of degree <= top, the column map taking a monomial
    index to the column id of that term's component.  Distinct terms must
    land in distinct columns, as they do for the terms of one polynomial
    or of distinct components, so every row is filled directly.  The row
    of x^a holds one entry per term of degree <= top - |a|, in the column
    that term's product with x^a lands in; the terms go in ascending by
    degree."""
    products = sorted(((tables.deg[k], c, k, colmap) for k, c, colmap in terms),
                      key=lambda t: t[0])
    if not products:
        return
    degrees = [t[0] for t in products]
    coefs = [t[1] for t in products]
    top, start, shift = tables.top, tables.start, tables.shift
    for e in range(low, top - degrees[0] + 1):
        active = bisect_right(degrees, top - e)
        lo, hi = start[e], start[e + 1]
        columns = [[colmap[i] for i in shift(k)[lo:hi]]
                   for _, _, k, colmap in products[:active]]
        if active == 1:
            killed.update(columns[0])
        else:
            rows.extend(dict(zip(ids, coefs)) for ids in zip(*columns))


def eliminate_graded(widths: Sequence[int],
                     *phases: tuple[list[dict], set[int]]
                     ) -> list[tuple[list[int], list[int]]]:
    """Eliminate once at top degree D and read the quotient at every degree,
    after each of one or more phases of rows.

    The columns are numbered by position, ascending by degree: `widths[d]`
    of them have degree d, for d = 0..D.  Position i carries the column id
    -i, so the lowest position gets the largest id; RowSpan pivots on the
    largest id, so every pivot row leads with its lowest-degree term (a
    local order).  The id of a column does not depend on D, so the ids at
    a lower top are a prefix of those at a higher one.  Each phase is a
    pair (rows, killed): `rows` are generator rows at D, keyed by
    column id and holding nonzero entries only; `killed` holds the columns
    of further generator rows with a single entry, which the builders hand
    over as columns instead of building them (`multiples`).  Each phase
    adds its generators to those of the phases before it.  The first
    phase's killed set is extended in place; no list or row is changed.

    Before the echelon, a singleton presolve (the singleton step of LP
    presolve) peels the first phase's unit rows until nothing changes:
    killed columns are stripped from every row, a row left with one entry
    kills its column in turn, and a row left empty is dropped.  The killed
    set it reaches is the least set closed under that step, so it does not
    depend on whether a unit row arrives as a row or as a killed column.
    Only the remaining rows go through RowSpan.  This is exact: for a fixed
    column order the set of lead columns of an echelon basis of a row space
    is unique, and the unit vectors of the killed columns together with an
    echelon basis of the stripped rows are such a basis.  So the pivots are
    the killed columns plus the pivots of the residual span, the same set a
    plain RowSpan fed every row would give.

    A later phase goes into the same RowSpan: its rows are stripped of the
    columns the first phase killed, and each of its own killed columns
    goes in as a unit row.  This is exact by the same argument: a row and
    its stripped copy differ by a combination of the unit vectors of the
    killed columns, so those unit vectors and the RowSpan's rows still
    span every generator so far; the RowSpan's rows have no entry in a
    killed column, since they only ever combine stripped rows, so with the
    unit vectors they form an echelon basis, whose leads are the killed
    columns plus the RowSpan's pivots.  A phase only adds rows, so it only
    adds leads: the non-pivot columns after it are those after the phase
    before less the new leads.

    The rows at a degree d <= D are the degree-<=d truncations of the rows
    at D, and projecting an echelon basis with lowest-term leads onto the
    columns of degree <= d keeps exactly the pivots that lead there, still
    independent.  So the quotient dimension at d is the number of non-pivot
    columns of degree <= d.  Returns, after each phase, those dimensions
    for d = 0..D and the non-pivot positions (the standard monomials of the
    local order) in ascending order; the first (value at d) of them are a
    basis of the quotient at d.
    """
    (rows, killed), *later = phases
    # singleton presolve: strip every column killed so far, and let a row
    # left with one entry kill its column; sweep until a sweep kills nothing.
    # A row wholly inside the killed columns is dropped without a copy.
    grew = True
    while grew:
        grew = False
        kept = []
        for r in rows:
            if not killed.isdisjoint(r):
                if killed.issuperset(r):
                    continue
                r = {c: v for c, v in r.items() if c not in killed}
            if len(r) == 1:
                killed.update(r)
                grew = True
            elif r:
                kept.append(r)
        rows = kept
    rows.sort(key=lambda r: (len(r), max(r)))
    span = RowSpan()
    for row in rows:
        span.insert(row)
    ends = list(itertools.accumulate(widths))
    pivots = span.pivots  # a live view: later phases read their pivots too
    free = [-c for c in range(0, -ends[-1], -1)
            if c not in killed and c not in pivots]
    out = [([bisect_left(free, end) for end in ends], free)]
    for rows, units in later:
        rows = [{c: v for c, v in r.items() if c not in killed} for r in rows]
        rows += [{c: 1} for c in units if c not in killed]
        rows = [r for r in rows if r]
        rows.sort(key=lambda r: (len(r), max(r)))
        for row in rows:
            span.insert(row)
        free = [i for i in free if -i not in pivots]
        out.append(([bisect_left(free, end) for end in ends], free))
    return out


def stabilize_curve(eliminate, k0: int, c: int, step, d_max: int,
                    what: str, last_resort=None) -> tuple[tuple[int, ...], int, list]:
    """The truncation-degree search shared by every graded quotient.

    `eliminate(k, top)` is one elimination at top degree `top` = k + c,
    with the caller's certificate rows for the candidate degree k added,
    returning the values at degrees 0..top and the free slots (positions
    for `quotient_curve`, which reads only the values), as
    `eliminate_graded` does.  The candidate k passes when
    `values[k + c] == values[k]`, that is, when every slot of degree
    k+1..k+c is a pivot.  The caller's certificate makes a pass a proof
    that the value at k is exact, leaves the values at degrees <= k+1 the
    engine's own, and makes passing monotone in k; so any passing k gives
    the exact value, and a failure at k = d_max proves that no k <= d_max
    passes.  The candidates start at k0 and go to `step(k, values)` after
    a failure, both capped at d_max.

    `last_resort`, when given, is called with no arguments once, just
    before the elimination at k = d_max, the one that either certifies or
    fails the search.  It may raise ProvedInfiniteError to end the search
    with a proof that the dimension is infinite, so that elimination is
    never run; if it returns, the search goes on as without it.

    In the library this is the one place that checks d_max: it raises
    ValueError when d_max < 1.  A call that never runs the search, such as
    a quotient by an ideal with a unit, does not look at d_max.

    Returns the values at degrees 0..k for the certified k, k itself, and
    the free slots of degree at most k.  Raises NotStabilizedError, with
    the values of the last elimination from the first candidate to d_max,
    when k = d_max fails.
    """
    if d_max < 1:
        raise ValueError("d_max must be at least 1")
    first = k = min(k0, d_max)
    tried = []
    while True:
        if k == d_max and last_resort is not None:
            last_resort()
        tried.append(k)
        values, free = eliminate(k, k + c)
        if values[k + c] == values[k]:
            return tuple(values[:k + 1]), k, free[:values[k]]
        if k == d_max:
            break
        k = min(step(k, values), d_max)
    history = tuple(values[first:k + 1])
    raise NotStabilizedError(
        f"{what} did not stabilize by degree {d_max}: no certificate "
        f"passed at degrees {tried}, from the start degree {k0} "
        f"(values {list(history)})",
        d_max=d_max, history=history)


def _graded_ideal(generators: Sequence[Poly], nvars: int,
                  top: int) -> tuple[list[int], list[int]]:
    """One elimination of the generator multiples of degree <= top; the
    position of a monomial's column is its index in the tables."""
    tables = monomial_tables(nvars, top)
    colmap = list(range(0, -len(tables.monos), -1))
    rows: list[dict] = []
    killed: set[int] = set()
    for g in generators:
        multiples(tables, [(k, c, colmap) for k, c in tables.terms(g)], 0,
                  rows, killed)
    start = tables.start
    (values, free), = eliminate_graded(
        [start[d + 1] - start[d] for d in range(top + 1)], (rows, killed))
    return values, free


def quotient_curve(generators: Iterable[Poly], nvars: int,
                   d_max: int = D_MAX, last_resort=None) -> tuple[int, ...]:
    """The truncated values v(d) = dim K[x]/(I + m^{d+1}) of the ideal I of
    the generators, from degree 0 up to the degree that certifies the last
    one as dim K[[x_1..x_n]]/I.

    The candidate degrees run from 2 up by one, and the first one whose
    next value repeats it passes: v(d+1) = v(d) means m^{d+1} lies in
    I + m^{d+2}, hence in I by Nakayama, so every later value equals v(d).
    This is `stabilize_curve` with c = 1 and no extra rows.  For the same
    reason the first d >= 1 with v(d) = v(d-1) is the least d with m^d
    inside I, and it lies at most one degree past the end of the curve.

    Zero generators are skipped.  A generator with a nonzero constant term
    makes the ideal the whole ring, whose curve is (0,).  In no variables
    the ring is K, whose maximal ideal is 0, so an empty effective
    generator list gives the curve (1,); in one or more variables it cannot
    have a finite quotient and raises NotStabilizedError immediately, as
    does failure to stabilize by d_max.
    `last_resort` is handed to `stabilize_curve`, which may end the search
    with its proof that the quotient is infinite.
    """
    gens = []
    for g in generators:
        if g.nvars != nvars:
            raise ValueError("generator lives in the wrong ambient ring")
        if g.is_zero():
            continue
        if g.constant_term() != 0:
            return (0,)
        gens.append(g)
    if not gens and not nvars:
        return (1,)
    if not gens:
        raise NotStabilizedError(
            "empty generator list: quotient is the full local ring",
            d_max=d_max)
    curve, _, _ = stabilize_curve(
        lambda k, top: _graded_ideal(gens, nvars, top), 2, 1,
        lambda k, values: k + 1, d_max, "quotient dimension", last_resort)
    return curve


def quotient_dim(generators: Iterable[Poly], nvars: int,
                 d_max: int = D_MAX) -> int:
    """Dimension of the local algebra K[[x_1..x_n]] / (generators): the
    last value of `quotient_curve`, which it fails as."""
    return quotient_curve(generators, nvars, d_max)[-1]


def milnor(p: Poly, d_max: int = D_MAX) -> int:
    """Milnor number: dimension of the Jacobian algebra of a function germ."""
    if p.constant_term() != 0:
        raise ValueError("function germ must vanish at the origin")
    return quotient_dim([p.diff(i) for i in range(p.nvars)], p.nvars, d_max)


def tjurina(p: Poly, d_max: int = D_MAX) -> int:
    """Tjurina number: dimension of K[[x]]/(p, all first partials of p)."""
    if p.constant_term() != 0:
        raise ValueError("function germ must vanish at the origin")
    gens = [p] + [p.diff(i) for i in range(p.nvars)]
    return quotient_dim(gens, p.nvars, d_max)


# -- quasi-homogeneity ------------------------------------------------------

def primitive_scale(values: Sequence[Fraction]) -> Fraction:
    """The factor den / num that scales `values` to integers without a
    common factor: den is their least common denominator and num the gcd
    of their numerators over den; 1 when every value is 0."""
    den = lcm(*(v.denominator for v in values))
    num = gcd(*(v.numerator * (den // v.denominator) for v in values))
    return Fraction(den, num) if num else Fraction(1)


def _positive_point(constraints: list[list[Fraction]]) -> list[Fraction] | None:
    """A point t with c . t > 0 for every constraint c, or None when there
    is none: Fourier-Motzkin elimination, then back substitution.

    Eliminating t_j pairs each constraint with a positive coefficient at j
    with each with a negative one; a constraint with no variable left
    reads 0 > 0, so any such constraint proves infeasibility.  Back
    substitution picks t_j, with the later t fixed, strictly inside the
    bounds that the constraints of the j-th stage put on it."""
    size = len(constraints[0]) if constraints else 0
    stages = []
    work = constraints
    for j in range(size):
        stages.append(work)
        pos = [c for c in work if c[j] > 0]
        neg = [c for c in work if c[j] < 0]
        new = {tuple(c) for c in work if c[j] == 0}
        for cp in pos:
            for cn in neg:
                combined = [-cn[j] * a + cp[j] * b for a, b in zip(cp, cn)]
                # scaled to primitive integers, so equal constraints merge
                scale = primitive_scale(combined)
                new.add(tuple(v * scale for v in combined))
        work = [list(c) for c in new]
    if work:  # every variable eliminated: each is 0 > 0
        return None
    t = [Fraction(0)] * size
    for j in reversed(range(size)):
        low = high = None
        for c in stages[j]:
            if c[j]:
                bound = -sum(c[i] * t[i] for i in range(j + 1, size)) / c[j]
                if c[j] > 0:
                    low = bound if low is None else max(low, bound)
                else:
                    high = bound if high is None else min(high, bound)
        # a value strictly between the bounds, 1 where 1 is one
        if (low is None or low < 1) and (high is None or high > 1):
            t[j] = Fraction(1)
        elif low is None:
            t[j] = high - 1
        elif high is None:
            t[j] = low + 1
        else:
            t[j] = (low + high) / 2
    return t


def positive_kernel_vector(rows: list[dict[int, Coefficient]],
                           size: int) -> tuple[Fraction, ...] | None:
    """A vector w in Q^size with w_i > 0 for every i and row . w = 0 for
    every row ({index: coefficient}), scaled to primitive integers; None
    when there is none.

    The rows are reduced to pivot form, so each pivot entry is a linear
    form in the free entries; the free entries and those forms must all be
    positive, which `_positive_point` decides and solves exactly."""
    span = RowSpan()
    for row in rows:
        if row:
            span.insert(dict(row))
    pivots = span.reduced_pivots()
    free = [i for i in range(size) if i not in pivots]
    if not free:
        return None
    # w_lead = -sum over free c of (row[c] / row[lead]) w_c
    forms = {i: [Fraction(int(i == c)) for c in free] for i in free}
    for lead, row in pivots.items():
        forms[lead] = [Fraction(-row.get(c, 0), row[lead]) for c in free]
    t = _positive_point([forms[i] for i in range(size)])
    if t is None:
        return None
    w = [sum(a * b for a, b in zip(forms[i], t)) for i in range(size)]
    scale = primitive_scale(w)
    return tuple(v * scale for v in w)


def is_quasi_homogeneous(p: Poly) -> bool:
    """Exact weight fit: positive rational weights giving all terms weight 1.

    A function germ is quasi-homogeneous here when there are weights
    w_i > 0 with sum_i w_i * e_i = 1 for the exponent tuple e of every term.
    The zero polynomial and germs with a constant term are not.  Scaling
    turns the fit into a positive vector (w, d) with e . w - d = 0 for
    every term (`positive_kernel_vector`).
    """
    if p.is_zero() or p.constant_term() != 0:
        return False
    n = p.nvars
    rows = [{**{i: e for i, e in enumerate(m) if e}, n: -1}
            for m in p._terms]
    return positive_kernel_vector(rows, n + 1) is not None
