"""The multigerm data model and its first-order invariants.

A branch is a p-tuple of polynomials in n source variables, all vanishing
at the origin: branches are stored already translated so that the source
point is 0 and the shared target point is 0.  A multigerm is a non-empty
list of branches sharing the same source and target dimensions; each branch
carries its own copy of the source coordinates.

Invariants provided here: corank of a branch, multiplicity of a multigerm
(the dimension of its local algebra, summed over branches), recognition of
the corank-1 label A_{k_1,...,k_r}, and the dimension of the analytic
stratum of a stable label in the equidimensional and (n, n+1) ranges.
Next to the multiplicity comes the least power of the maximal ideal that
lies in every branch ideal, which sizes the codimension engine's
certificate.
It also provides the linear prenormal form, the sparse representative of
a germ's orbit under linear changes of coordinates that the codimension
engine eliminates on, and the weight fit that makes a whole multigerm
weighted homogeneous (`weights`).  Besides making the linear components
coordinates, the form shifts a branch's one free source coordinate by the
others (a Tschirnhaus shift), which clears the terms next to its lowest
pure power; the shift is a linear change of coordinates too, so every
truncated value of the form is that of the germ.
The linear prenormal form is computed once per germ and cached by the
value of the germ.  The multiplicity, the least power and the type label
all read the branch values of `BranchMultiplicities`, which searches the
branches of that form, not the germ as given: the values are invariant
under its linear change, and a moved germ's dense branches cost far more
to search.  The searches are cached by the values (branch, d_max), a
failed search remembered like a value (`errors.remember_failures`), and
the corank by the branch: the gates and the CLI ask for it many times
per germ.
Branches and multigerms keep their hash once computed, and `intern`
makes equal germs, and equal branches, one object in a process (a
bounded table keyed by value): every germ the parser returns is
interned, so a cache keyed by a germ or a branch finds it by identity.
When n <= p, a branch whose search reaches its last candidate is first
tested for a line through 0 on which it vanishes; such a branch is not
finite, so its multiplicity is proved infinite (`ProvedInfiniteError`)
instead of failing at the cap, with the line mapped back to the
coordinates of the germ as given.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial
from math import prod

from . import ring
from .errors import (NotCorankOneError, NotStableTypeError,
                     ProvedInfiniteError, remember_failures)
from ._echelon import RowSpan, matrix_rank
from .ring import D_MAX, Poly, _integral, substitute

Matrix = tuple[tuple[Fraction, ...], ...]


@dataclass(frozen=True)
class Branch:
    """One branch of a multigerm: p components in n source variables.

    Equal by value, and hashed once: the hash is computed on first use and
    kept, since every cache keyed by a branch hashes it at each lookup."""

    components: tuple[Poly, ...]

    def __post_init__(self):
        if not self.components:
            raise ValueError("a branch needs at least one component")
        n = self.components[0].nvars
        for comp in self.components:
            if comp.nvars != n:
                raise ValueError("branch components must share one source ring")
            if comp.constant_term() != 0:
                raise ValueError(
                    "branch components must vanish at the origin; translate "
                    "the germ before constructing it")

    @property
    def n(self) -> int:
        return self.components[0].nvars

    @property
    def p(self) -> int:
        return len(self.components)

    def jacobian_at_origin(self) -> list[list[Fraction]]:
        """The p x n matrix of linear parts."""
        return [comp.linear_part() for comp in self.components]

    # the dataclass hash, computed on first use; with no annotation it is
    # not a field, so ==, repr, fields and asdict do not see it
    _hash = None

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.components,))
            object.__setattr__(self, "_hash", h)
        return h


@dataclass(frozen=True)
class MultiGerm:
    """A multigerm f = {f_1, ..., f_r}: (K^n, S) -> (K^p, 0).

    Equal by value and hashed once, like `Branch`; `intern` gives the one
    object of its value, which `syntax.parse_multigerm` returns."""

    branches: tuple[Branch, ...]

    def __post_init__(self):
        if not self.branches:
            raise ValueError("a multigerm needs at least one branch")
        n, p = self.branches[0].n, self.branches[0].p
        for b in self.branches:
            if (b.n, b.p) != (n, p):
                raise ValueError("all branches must share source and target dimensions")
        if n < p - 1:
            raise ValueError(
                f"unsupported dimensions (n, p) = ({n}, {p}): need n >= p - 1")

    @property
    def n(self) -> int:
        return self.branches[0].n

    @property
    def p(self) -> int:
        return self.branches[0].p

    @property
    def r(self) -> int:
        return len(self.branches)

    _hash = None  # as Branch._hash

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.branches,))
            object.__setattr__(self, "_hash", h)
        return h


@dataclass(frozen=True)
class AType:
    """The label A_{k_1,...,k_r} of a corank-1 multigerm, sorted descending."""

    ks: tuple[int, ...]

    def __post_init__(self):
        if not self.ks:
            raise ValueError("a type label needs at least one entry")
        if any(k < 0 for k in self.ks):
            raise ValueError("type entries must be non-negative")
        object.__setattr__(self, "ks", tuple(sorted(self.ks, reverse=True)))

    @property
    def r(self) -> int:
        return len(self.ks)

    def __str__(self) -> str:
        if len(self.ks) == 1:
            return f"A_{self.ks[0]}"
        return "A_{" + ",".join(str(k) for k in self.ks) + "}"


@lru_cache(maxsize=1024)
def _interned(value: Branch | MultiGerm) -> Branch | MultiGerm:
    """The first object stored with value's value (an identity memo)."""
    return value


def intern(f: MultiGerm) -> MultiGerm:
    """The one object of f's value in this process, its branches the one
    object of theirs, while the table (`_interned`, bounded) keeps them.

    Every cache keyed by a germ or a branch then finds an equal key by
    identity instead of comparing it term by term.  Two threads that
    intern equal values at once may each get their own object back; each
    is equal to its input."""
    branches = tuple(_interned(b) for b in f.branches)
    if any(b is not c for b, c in zip(branches, f.branches)):
        f = MultiGerm(branches)
    return _interned(f)


@lru_cache(maxsize=1024)
def corank(branch: Branch) -> int:
    """min(n, p) minus the rank of the linear part at the origin."""
    return min(branch.n, branch.p) - matrix_rank(branch.jacobian_at_origin())


def germ_corank(f: MultiGerm) -> int:
    """The largest branch corank."""
    return max(corank(b) for b in f.branches)


def _vanishing_line(branch: Branch) -> tuple[Fraction, ...] | None:
    """A direction, in the branch's own coordinates, of a line through 0
    on which every component vanishes, or None when none is found.

    The test is exact and looks at coordinate axes only: the axis of x_j
    lies in the zero set when no term of any component is a power of x_j
    alone.  It runs on the branch and on its linear prenormal form, whose
    axis u_j is the line through column j of the source change."""
    g, _, (source,) = linear_prenormal_form(MultiGerm((branch,)))
    for moved, change in ((branch, _identity(branch.n)),
                          (g.branches[0], source)):
        for j in range(branch.n):
            if all(any(e for i, e in enumerate(mono) if i != j)
                   for comp in moved.components for mono, _ in comp.items()):
                return tuple(row[j] for row in change)
    return None


def _not_finite(line: tuple[Fraction, ...]) -> ProvedInfiniteError:
    """The proof that a branch vanishing on the line through 0 and `line`
    is not finite: its zero set is not the point 0, so O_n / I is
    infinite."""
    reason = ("not finite: a branch vanishes on the line through 0 "
              f"and ({', '.join(map(str, line))})")
    return ProvedInfiniteError(f"multiplicity is infinite ({reason})",
                               reason, {"line": line})


def _prove_not_finite(branch: Branch) -> None:
    """Raise ProvedInfiniteError when the branch vanishes on a line."""
    line = _vanishing_line(branch)
    if line is not None:
        raise _not_finite(line)


@remember_failures(maxsize=1024)
def _branch_multiplicity(branch: Branch, d_max: int) -> tuple[int, int]:
    """The dimension of the branch's local algebra O_n / I, with I the
    ideal of its components, and the least d with m^d inside I: the first
    d >= 1 where the truncated values of I repeat, read off the same
    curve (see `ring.quotient_curve`).  When n <= p, a line on which the
    branch vanishes, found before the search's last candidate, proves the
    dimension infinite (ProvedInfiniteError), the line stated in the
    coordinates of the branch given.  Only then does that proof make both
    codimensions infinite too: a stable germ with n <= p is finite, while
    for n > p no map is finite and a submersion is stable, so there the
    search fails at the cap as before.  The answer, or that failure, is
    cached by the values (branch, d_max) (`errors.remember_failures`)."""
    curve = ring.quotient_curve(
        list(branch.components), branch.n, d_max,
        partial(_prove_not_finite, branch) if branch.n <= branch.p else None)
    power = next((d for d in range(1, len(curve))
                  if curve[d] == curve[d - 1]), len(curve))
    return curve[-1], power


class BranchMultiplicities(Sequence):
    """(multiplicity, least c with m^c inside I_b) of each branch b of f,
    in branch order, with I_b = f_b^*(m_p) O_n; a branch is searched when
    its value is first read, so a caller that stops early, or skips a
    branch, searches no more than it reads.

    Both values are read off branch b of the linear prenormal form g of f
    (`linear_prenormal_form`), since g_b(u) = T . f_b(S_b u) makes the
    ideal of g_b the pull-back S_b^* of I_b: the dense branches of a moved
    germ are never searched.  Reading a branch raises NotStabilizedError
    when its search fails by d_max, or ProvedInfiniteError when it is
    proved not finite, the line mapped back to f's coordinates
    (line_f = S_b . line_g)."""

    __slots__ = ("f", "d_max", "_form")

    def __init__(self, f: MultiGerm, d_max: int = D_MAX):
        self.f, self.d_max = f, d_max
        # False until the first read looks the form up
        self._form: tuple[MultiGerm, Matrix,
                          tuple[Matrix, ...]] | None | bool = False

    def __len__(self) -> int:
        return self.f.r

    def __getitem__(self, b: int) -> tuple[int, int]:
        if self._form is False:
            self._form = _prenormal_form(self.f)
        if self._form is None:
            return _branch_multiplicity(self.f.branches[b], self.d_max)
        g, _, sources = self._form
        try:
            return _branch_multiplicity(g.branches[b], self.d_max)
        except ProvedInfiniteError as proof:
            line = proof.certificate["line"]
            raise _not_finite(tuple(sum(s * v for s, v in zip(row, line))
                                    for row in sources[b])) from None


def multiplicity_and_power(f: MultiGerm,
                           d_max: int = D_MAX) -> tuple[int, int]:
    """The multiplicity of f and the least c with m^c inside the ideal
    I_b = f_b^*(m_p) O_n of every branch b (the largest of the branch
    values), both read off the linear prenormal form of f
    (`BranchMultiplicities`).  Both are invariant under changes of
    coordinates.  Raises the first failure in branch order:
    ProvedInfiniteError when a branch is proved not finite, and
    NotStabilizedError when a branch's search fails by d_max."""
    pairs = list(BranchMultiplicities(f, d_max))
    return sum(m for m, _ in pairs), max(c for _, c in pairs)


def multiplicity(f: MultiGerm, d_max: int = D_MAX) -> int:
    """dim of the local algebra of f: branch-wise quotient dimensions, summed."""
    return multiplicity_and_power(f, d_max)[0]


def branch_labels(f: MultiGerm, d_max: int = D_MAX) -> tuple[int, ...]:
    """k_b = multiplicity - 1 of each branch b of f, in branch order
    (`BranchMultiplicities`).

    Raises NotCorankOneError at the first branch of corank 2 or more, and
    propagates NotStabilizedError and ProvedInfiniteError from the search
    of an earlier branch.
    """
    values = BranchMultiplicities(f, d_max)
    ks = []
    for b, branch in enumerate(f.branches):
        c = corank(branch)
        if c > 1:
            raise NotCorankOneError(
                f"branch has corank {c}; only corank <= 1 is supported")
        ks.append(values[b][0] - 1)
    return tuple(ks)


def recognize_type(f: MultiGerm, d_max: int = D_MAX) -> AType:
    """The label A_{k_1,...,k_r} of the branch labels of f
    (`branch_labels`), with the errors that they raise."""
    return AType(branch_labels(f, d_max))


def _branch_stratum_codim(k: int, n: int, p: int) -> int:
    if n == p:
        return k
    # p == n + 1: an immersion is trivial along its image; a singular branch
    # of label A_k contributes codimension 2k + 1
    return 1 if k == 0 else 2 * k + 1


def stratum_dim(t: AType, n: int, p: int) -> int:
    """Dimension of the analytic stratum of the stable multigerm of label t.

    Supported ranges: n == p and p == n + 1.  Raises NotStableTypeError when
    no stable multigerm of that label exists in the given dimensions (the
    branch codimensions add up to more than p).
    """
    if not (n == p or p == n + 1):
        raise ValueError(
            f"stratum dimension is only defined here for n = p or p = n + 1, "
            f"got (n, p) = ({n}, {p})")
    if n == p and any(k > n for k in t.ks):
        raise NotStableTypeError(f"{t} has a branch label exceeding n = {n}")
    total = sum(_branch_stratum_codim(k, n, p) for k in t.ks)
    if total > p:
        raise NotStableTypeError(
            f"{t} is not a stable label in dimensions ({n}, {p}): "
            f"stratum codimensions sum to {total} > {p}")
    return p - total


# -- linear prenormal form ----------------------------------------------------

def _identity(size: int) -> Matrix:
    return tuple(tuple(Fraction(int(i == j)) for j in range(size))
                 for i in range(size))


def _term_count(f: MultiGerm) -> int:
    return sum(len(c.items()) for b in f.branches for c in b.components)


def _source_change(forms: list[dict[int, int]],
                   n: int) -> tuple[Matrix, list[int]]:
    """S with x = S u, where u makes each independent linear form a
    coordinate, and the free coordinates, those of u that no form becomes.

    The forms (variable index -> coefficient) are taken in order; each one
    that is independent of the earlier ones becomes the coordinate at the
    lead of its residual, and every other coordinate stays a variable.
    """
    k = len(forms)
    # columns: the form tags 0..k-1, unit tags k..k+n-1, variables after
    # them; the row of a tag t reads (form t)(x) - u_t = 0
    span = RowSpan()
    coord: dict[int, int] = {}
    for t, form in enumerate(forms):
        row = {k + n + j: c for j, c in form.items()}
        row[t] = -1
        residual = span.reduce(row)
        # a form dependent on the earlier ones leaves only tags
        if max(residual) >= k + n:
            span.insert(residual)
            coord[t] = max(residual) - k - n
    free = [j for j in range(n) if k + n + j not in span.pivots]
    for j in free:
        span.insert({k + n + j: 1, k + j: -1})
        coord[k + j] = j
    rows = [[Fraction(0)] * n for _ in range(n)]
    for lead, row in span.reduced_pivots().items():
        # d x_j + sum_t c_t u_coord[t] = 0
        j = lead - k - n
        for t, c in row.items():
            if t != lead:
                rows[j][coord[t]] = Fraction(-c, row[lead])
    return tuple(map(tuple, rows)), free


def _shifted(source: Matrix, free: list[int], comps: list[Poly]) -> Matrix:
    """S with the Tschirnhaus shift of its branch folded in, or `source`
    itself when that shift is trivial.

    `comps` are the branch's components in x, and under x = S u the
    coordinates `free` of u are those no linear component becomes.  When
    exactly one u_z is free, let c u_z^m be the lowest pure power of u_z
    in the components substituted (the first component in order that
    reaches it).  Then u_z -> u_z - sum_k L_k u_k with L_k = (coefficient
    of u_z^{m-1} u_k) / (m c) removes those terms from that component, and
    leaves every coordinate component as it is, since none depends on
    u_z.  The shift is column_k -= L_k column_z of S; c and the
    coefficients are read off the degree-m part h of the component along
    column z: c = h(column z), and the coefficient of u_z^{m-1} u_k is
    grad h(column z) . column k.
    """
    if len(free) != 1:
        return source
    (z,) = free
    # integral entries as int: the shift is exact either way, and plain
    # ints keep the common case, a branch it leaves alone, cheap
    column = [_integral(row[z]) for row in source]
    # a monomial in a variable that column z does not move is 0 along it
    still = [j for j, v in enumerate(column) if not v]

    def at(mono):
        return prod(v ** e for v, e in zip(column, mono) if e)

    least = None
    for comp in comps:
        values: dict[int, int | Fraction] = {}
        for mono, c in comp.items():
            if not any(map(mono.__getitem__, still)):
                d = sum(mono)
                values[d] = values.get(d, 0) + _integral(c) * at(mono)
        m = min((d for d, v in values.items() if v), default=None)
        if m is not None and (least is None or m < least[0]):
            least = (m, values[m], comp)
    if least is None:
        return source
    m, value, comp = least
    gradient = [0] * len(column)
    for mono, c in comp.items():
        if sum(mono) == m:
            for j, e in enumerate(mono):
                lower = mono[:j] + (e - 1,) + mono[j + 1:]
                if e and not any(map(lower.__getitem__, still)):
                    gradient[j] += _integral(c) * e * at(lower)
    # m c L_k for every k
    shift = [sum(g * row[k] for g, row in zip(gradient, source)
                 if g and row[k])
             if k != z else 0 for k in range(len(column))]
    if not any(shift):
        return source
    return tuple(tuple(v - Fraction(l, m * value) * row[z]
                       for v, l in zip(row, shift)) for row in source)


def linear_prenormal_form(f: MultiGerm) -> tuple[MultiGerm, Matrix,
                                                tuple[Matrix, ...]]:
    """A germ linearly equivalent to f with fewer terms, when one is found.

    Returns (g, T, S) with g_b(u) = T . f_b(S_b u) on every branch b: one
    target change T shared by all branches and one source change S_b per
    branch, both invertible, so g has the A_e- and A-codimensions of f.
    T row-reduces the p x (branch, monomial) coefficient matrix with the
    nonlinear columns first, highest degree first, so as many components
    as possible become linear; S_b turns the components that are linear
    on branch b into coordinates.  When one source coordinate u_z of a
    branch is left free, S_b also carries a Tschirnhaus shift of u_z
    (`_shifted`), which clears the terms u_z^{m-1} u_k next to the lowest
    pure power u_z^m: moved coordinates leave the nonlinear components
    dense in u_z, and this undoes the part of the move that lies along
    u_z.  Every step is a linear change of coordinates, so every truncated
    value of g is that of f, and the dense components of f are substituted
    once, under the final S_b.  Each component of g is then scaled by one
    factor, shared by all branches, to primitive integer coefficients.
    When T is a monomial matrix and every linear component a single
    variable, f's own components are kept (T = 1 up to that scaling) and
    only the shift can change a branch.  g is f itself, with identity
    transforms, when no branch changes that way or when the candidate does
    not have strictly fewer terms than f.

    The form is computed once per germ: it is cached by the value f, at
    most 1024 germs (`_prenormal_form`), and every reader (the branch
    multiplicities and their proof, both codimension searches and the
    stability test) reads that cache.
    """
    form = _prenormal_form(f)
    if form is None:
        return f, _identity(f.p), (_identity(f.n),) * f.r
    return form


def prenormal_germ(f: MultiGerm) -> MultiGerm:
    """The germ g of `linear_prenormal_form(f)`, read from the same cache
    without building the identity transforms of a germ already
    prenormal."""
    form = _prenormal_form(f)
    return f if form is None else form[0]


@lru_cache(maxsize=1024)
def _prenormal_form(f: MultiGerm) -> tuple[MultiGerm, Matrix,
                                           tuple[Matrix, ...]] | None:
    """`linear_prenormal_form(f)`, or None when g is f itself: so a cache
    hit never hands a caller another germ equal to its own, and the entry
    of a germ already prenormal holds nothing."""
    n, p, r = f.n, f.p, f.r
    columns = sorted({(sum(mono), b, mono)
                      for b, branch in enumerate(f.branches)
                      for comp in branch.components for mono, _ in comp.items()})
    # the tag of component l is column l; monomial columns follow, so a
    # pivot leads on the highest-degree monomial it contains
    col = {(b, mono): p + i for i, (_, b, mono) in enumerate(columns)}
    span = RowSpan()
    for l in range(p):
        row: dict[int, int | Fraction] = {l: 1}
        for b, branch in enumerate(f.branches):
            for mono, c in branch.components[l].items():
                row[col[(b, mono)]] = c.numerator if c.denominator == 1 else c
        span.insert(row)
    # the tags are independent, so there are exactly p pivots
    reduced = span.reduced_pivots()
    comps = [reduced[lead] for lead in sorted(reduced)]
    target = [{c: v for c, v in row.items() if c < p} for row in comps]
    terms = [[{} for _ in range(r)] for _ in comps]
    for i, row in enumerate(comps):
        for c, v in row.items():
            if c >= p:
                _, b, mono = columns[c - p]
                terms[i][b][mono] = v
    forms = [[{mono.index(1): v for mono, v in terms[i][b].items()}
              for i in range(p)
              if terms[i][b] and all(sum(mono) == 1 for mono in terms[i][b])]
             for b in range(r)]
    unit = _identity(n)
    if (all(len(t) == 1 for t in target)
            and all(len(form) <= 1 for branch in forms for form in branch)):
        # f is prenormal but for the shift: keep its own components, whose
        # linear ones are the forms up to order and scale
        target = [{i: 1} for i in range(p)]
        polys = [list(branch.components) for branch in f.branches]
        changes = [(unit, [j for j in range(n)
                           if all(j not in form for form in forms[b])])
                   for b in range(r)]
    else:
        polys = [[Poly(n, terms[i][b]) for i in range(p)] for b in range(r)]
        changes = [_source_change(forms[b], n) for b in range(r)]
    sources = tuple(_shifted(source, free, polys[b])
                    for b, (source, free) in enumerate(changes))
    if all(source is unit for source in sources):
        return None

    units = [tuple(int(k == j) for k in range(n)) for j in range(n)]
    moved = []
    for b, source in enumerate(sources):
        if source is unit:
            moved.append(polys[b])
            continue
        x = [Poly(n, dict(zip(units, row))) for row in source]
        moved.append([substitute(comp, x) for comp in polys[b]])
    # one factor per component, shared by the branches: scaling a
    # component on one branch alone is not a change of coordinates
    scale = []
    for i in range(p):
        scale.append(ring.primitive_scale(
            [c for b in range(r) for _, c in moved[b][i].items()]))
    g = MultiGerm(tuple(
        Branch(tuple(moved[b][i] * scale[i] for i in range(p)))
        for b in range(r)))
    if _term_count(g) >= _term_count(f):
        return None
    target_change = tuple(tuple(scale[i] * target[i].get(l, 0)
                                for l in range(p)) for i in range(p))
    return g, target_change, sources


# -- weights ------------------------------------------------------------------

def weights(f: MultiGerm) -> tuple[tuple[tuple[Fraction, ...], ...],
                                   tuple[Fraction, ...]] | None:
    """Positive weights that make f weighted homogeneous, or None.

    Returns (source weights w_b of each branch b, target weights v): all
    positive, scaled together to primitive integers, with w_b . a = v_l
    for every term x^a of every component f_{b,l}.  Then
    f_b(t^w_b x) = t^v f_b(x) for every t, with one v for all branches.
    A zero component constrains nothing.  The fit is the one linear
    program of `ring.is_quasi_homogeneous`, over all branches at once
    (`ring.positive_kernel_vector`).
    """
    n, p, r = f.n, f.p, f.r
    rows = []
    for b, branch in enumerate(f.branches):
        for l, comp in enumerate(branch.components):
            for mono, _ in comp.items():
                row: dict[int, int] = {b * n + j: e
                                       for j, e in enumerate(mono) if e}
                row[r * n + l] = -1
                rows.append(row)
    w = ring.positive_kernel_vector(rows, r * n + p)
    if w is None:
        return None
    return tuple(w[b * n:(b + 1) * n] for b in range(r)), w[r * n:]
