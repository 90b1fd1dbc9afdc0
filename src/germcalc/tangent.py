"""Codimension of a multigerm by exact linear algebra on truncated jets.

The module computes the dimension of sections-of-the-pullback modulo the
tangent space to the equivalence orbit.  At truncation degree d the ambient
space is spanned by unit sections (branch, component, source monomial of
degree <= d); the tangent space is spanned by two generator families:

  * derivative rows: for each branch i, source variable j and source
    monomial a with |a| <= d, the section placing (df_i/dx_j) * x^a in
    branch i and zero elsewhere;
  * target rows: for each target component l and target monomial y^b with
    |b| <= d, the section whose branch-i entry is (y^b composed with f_i)
    in component l -- the same vector field acting on every branch at once,
    which is what distinguishes the multigerm computation from running the
    branches separately.

The reported value at degree d is dim of the ambient modulo these rows,
i.e. the codimension of the tangent space after adding all sections of
component degree > d.  The value is non-decreasing in d and reaches the
true codimension once d passes the (unknown) determinacy degree.  The
engine stops only where a Nakayama certificate proves that it has (the
Mather-Gaffney route to finite determinacy; Bruce, du Plessis and Wall,
"Determinacy and unipotency", Invent. Math. 88, 1987; Wall, "Finite
determinacy of smooth map-germs", Bull. LMS 13, 1981):

  * T, the tangent space (TA_e f, or tf(m_n theta_n) + wf(m_p theta_p)
    for the non-extended variant), is an O_p-module through f^*.  Because
    f is finite, theta(f) and M_k = m^{k+1} theta(f) are finitely
    generated O_p-modules.
  * If M_k lies in T + f^*(m_p) M_k, Nakayama's lemma gives M_k inside T,
    so the truncated value at k is the codimension.
  * f^*(m_p) M_k is the sum over branches b of I_b M_{k,b}, with
    I_b = f_b^*(m_p) O_n, and it contains m^{k+1+c} theta(f) for
    c = max over b of the least d with m^d inside I_b
    (`germ.multiplicity_and_power`).  So the test is finite: at top degree
    k + c, add the certificate rows f_{b,i} x^a e_{b,l'} for |a| >= k+1,
    for every component i and the kept components l' (the substitution
    below maps I_b M_{k,b} onto its image in the reduced module).  The
    test passes when every slot of degree k+1..k+c is a pivot, which is
    `values[k + c] == values[k]`.
  * The certificate rows have order >= k+2, so the values and free slots
    at degrees <= k+1 are the engine's own, and the basis at the certified
    degree keeps its meaning.
  * Passing is monotone: M_k inside T gives M_k' inside T for every
    k' >= k.  So any passing k gives the exact value, and a failure at
    k = d_max proves that no k <= d_max passes.
  * A target row (y^beta o f) e_l with |beta| >= k+2 already lies in
    f^*(m_p) M_k (write y^beta = y_i y^gamma with |gamma| >= k+1), so with
    the certificate rows only the target rows of |beta| <= k+1 are built.
  * A one-term component u x^m of branch b gives certificate rows
    x^a u x^m of one entry each, so every column of
    J_b = {x^m x^a : |a| >= k+1, degree <= k + c}, over the one-term
    components, is killed in every kept block of b before the presolve
    runs (`ring.eliminate_graded`).  J_b is closed under multiplication
    by monomials, so the rows of branch b can be built modulo J_b: an
    entry outside J_b is exact, and one inside it would be stripped in
    the presolve's first sweep anyway, so the killed set, the residual
    rows and every pivot are those of the rows built in full.  Without a
    candidate (k = top) J_b is empty.

The first candidate is k = m + 3 - c, m the multiplicity of f, so the
first elimination is at top m + 3; after a failure k moves to
max(k + 2, v(k+1) + 1), v(k+1) being the exact value at degree k+1 that
the failed elimination gave, and k never passes `d_max` (see
`ring.stabilize_curve`).  Every value is invariant under linear changes
of coordinates, so the engine works on the linear prenormal form of the
germ (`germ.linear_prenormal_form`), which is the germ itself unless a
linear change makes it strictly sparser; both variants read it from the
one `_shared(f, d_max)` entry, so it is computed once per germ and cap.

The rows are built in a reduced module, without the coordinate components
of each branch (the unfolding reduction of Marar and Mond).  A component
f_{b,l} = c * x_j, a single degree-1 term, is a coordinate of branch b, at
most one component per variable j; every other component is kept.  Put

    pi(e_{b,l}) = -(1/c) * sum over kept l' of (df_{b,l'}/dx_j) e_{b,l'}

for a coordinate l and pi(e_{b,l}) = e_{b,l} for a kept l.  pi is
O_n-linear and onto the sections theta' of the kept components.  Its
kernel is spanned by the multiples x^a * tf(d/dx_j) on branch b for the
coordinate variables j, since tf(d/dx_j) = c e_{b,l} + sum over kept l'
of (df_{b,l'}/dx_j) e_{b,l'}; so the kernel lies in the tangent space, and
inside m * theta it lies in tf(m theta_n), the non-extended one.  pi never
lowers the degree of a term and maps m^{d+1} theta onto m^{d+1} theta'
(and m * theta onto m * theta').  So pi identifies the quotient at every
truncation degree with theta' modulo pi(tangent space) + m^{d+1} theta',
and every truncated value, extended or not, is unchanged.  In theta' the
derivative rows of the coordinate variables vanish; the others keep their
kept components; a target row (y^beta o f_b) e_{b,l} of a coordinate l
becomes -(1/c) * sum over kept l' of (y^beta o f_b)(df_{b,l'}/dx_j)
e_{b,l'}.  Each target row is scaled by one integer so that its
coefficients stay those of the germ times integers.  A branch without a
coordinate component (a curve, say) is built in full.

The engine eliminates once per candidate k, at the top degree D = k + c,
in a local order, and reads the value at every d <= D from the pivots
(see `ring.eliminate_graded`); that one elimination serves both variants
(below).  Each elimination builds all of its rows in one pass at its top
(`_SearchRows`), and none is kept for the next candidate: the derivative
and certificate rows are multiples of one generator each
(`ring.multiples`), and the target rows are read off the products
(y^beta o f_b) * g, which are built at its top (`_compositions`) and freed
before it runs.  The products are built modulo J_b (see above): a step
by a one-term u x^m keeps only its products with the monomials of
degree <= k, and only the nonempty products are kept, so a target row is
visited only at the betas where one of its products is nonempty.  The
derivative and certificate multiples are built in full; those that lie
wholly in J_b are dropped by the presolve's first sweep.  The rows come
from the monomial index tables of `ring`: a slot's column id
depends on (degree, branch, kept component, monomial) and not on D, and
is read off the column ids of its kept component's block
(`ring.MonomialTables.columns`); a derivative row x^a * df_b/dx_j is one
shift table per term of the partial (`ring.MonomialTables.shift`).  The
products, for g = 1 and for each partial a substituted target row
needs, follow one recursion over beta,
indexed by beta and by source monomial, which is a table of the betas
(`ring.MonomialTables.recursion`).  Each of these tables is built once
and kept on its monomial tables, so every search at the same n (or p)
and top reads the same ones.  Rows with a single entry reach the
elimination as killed columns.  The quotient basis is returned as the
free slots of the certified elimination, the standard monomials of the
local order: the unit section at a slot places one source monomial in
one kept component of one branch and zero elsewhere; pi fixes it, so
these sections are a basis of the quotient of the full module too.

The extended variant allows constant vector fields on both sides; the
non-extended variant restricts the ambient to sections without constant
term and the generators to multiples by variables.  So its rows are the
extended rows without the derivative rows of |a| = 0 and the target rows
of beta = 0, and none of them has an entry of degree 0: y^beta o f_b has
order >= |beta| since f(0) = 0, and a certificate row has order >= k + 2.
The rows are built once, in the extended module (`_SearchRows`), and
eliminated in two phases: the non-extended rows first, whose free slots
of degree >= 1 are the non-extended ones (no row touches the degree-0
slots, which the non-extended module lacks), then the two extra families
in the same span, whose new leads leave the extended free slots.  For a
fixed column order the lead columns of a row space are unique, so each
phase gives exactly what an elimination of its rows alone would.  The
searches of both variants of one germ and cap share what this gives
through `_shared(f, d_max)`: one row builder, which no elimination
changes, and one table of the eliminations run so far, keyed by
(candidate, top), each holding the free slots of both variants.  A search
reads the table at every candidate and eliminates only where no search
has; an entry is written once and never removed, so no answer depends on
the order in which the two searches run, or how their threads interleave.
The two searches start at the same candidate and part only after a
failure, where the next candidate depends on the value.

`ae_codim`, `a_codim` and `is_stable` are each one cache keyed by the
values (f, d_max), so every spelling of d_max computes once; a failure is
remembered like a value, as for the branch multiplicities of `germ`
(`errors.remember_failures`).

Stability takes one elimination (`is_stable`).  If f is stable, its
tangent space is theta(f), so every candidate passes with value 0; so a
finite f is stable exactly when its first candidate passes with value 0,
and that candidate need not be capped by d_max.

Infinite codimension is proved, not only failed to certify, where this
certificate applies (`unstable_point`).  It rests on the Mather-Gaffney
criterion: a finite f has finite A_e-codimension exactly when it is
stable off 0, that is, when for a representative the multigerm of f at
the fibre over every y != 0 near 0 is stable (Wall, "Finite determinacy of
smooth map-germs", Bull. LMS 13, 1981; Mond and Nuno-Ballesteros,
"Singularities of Mappings", Springer 2020).  The certificate is sound by
three facts:

  * Weights.  Suppose f has positive weights: source weights w_b for each
    branch and target weights v shared by all of them, with
    f_b(t^w_b x) = t^v f_b(x) (`germ.weights`).  The scalings x -> t^w_b x
    and y -> t^v y are diffeomorphisms for t != 0, so the multigerm of f
    over t^v y is A-equivalent to the one over y, and t^v y tends to 0 with
    t, as do the fibre points t^w_b x.  So one y != 0 over which f is
    unstable gives unstable points of f arbitrarily near 0.
  * Sub-multigerms.  A sub-multigerm of a stable multigerm is stable:
    projecting theta(f) = tf(theta_S) + wf(theta_p) onto the sections of
    some of the branches gives the same equation for the sub-multigerm.
    So it is enough that the multigerm at some of the points over y is
    unstable: irrational or uncomputed fibre points are left out, and for
    n = p so are the points where a branch is a local diffeomorphism, which
    never change stability.
  * Finiteness.  The certificate is asked for only by a search, after
    `germ.multiplicity_and_power` has certified that f is finite.

The candidate points y are the images f_b(x*) != 0 of the points x* in
{0,1}^n minus 0 of each branch.  The fibre of y on a branch is read off
its coordinate components, which fix every variable but at most one, and
the rational roots of a component in the remaining one.  Each sub-multigerm
is translated to the origin and tested with `is_stable`.

A search asks for the certificate once, just before the elimination of
its last candidate k = d_max (`ring.stabilize_curve`), so it costs nothing
where a search certifies earlier; when it finds a proof, that elimination
never runs and ProvedInfiniteError is raised.  A-finiteness depends on
neither the variant nor the search, so both variants of one germ and cap
share the certificate (`_Shared.proof`, stored only once computed): once
one search has proved f not A-finite the other raises the proof before
its first candidate, and a search that reaches its last candidate while
the other is still computing the certificate computes it too.  A germ
with n <= p that is not finite raises the proof of `germ`'s multiplicity
search instead: such a germ is unstable at every point of its zero set,
since there its differential has rank below p, so neither codimension is
finite.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left, bisect_right
from dataclasses import asdict, dataclass
from fractions import Fraction
from functools import lru_cache
from math import isqrt, lcm, prod

from .errors import NotStabilizedError, ProvedInfiniteError, remember_failures
from .germ import (Branch, MultiGerm, corank, linear_prenormal_form,
                   multiplicity_and_power, weights)
from .ring import (D_MAX, MonomialTables, Poly, eliminate_graded,
                   monomial_tables, multiples, stabilize_curve, substitute)

Slot = tuple[int, int, tuple[int, ...]]  # (branch, component, source monomial)


@dataclass(frozen=True)
class CodimResult:
    """A certified codimension value with the witnessing quotient basis.

    `degree_used` is the degree k whose Nakayama certificate passed, and
    `c` the power of the maximal ideal that certificate reached past it
    (its elimination ran at top degree k + c).  `curve` holds the exact
    truncated values from the first candidate degree up to `degree_used`;
    its last entry is `value`.  `basis` holds the free slots
    (branch, component, source monomial), lowest degree first, whose unit
    sections form a basis of the quotient at `degree_used`; the slots refer
    to the linear prenormal form of the germ and lie in the components the
    engine keeps, never in a coordinate component of a branch.
    """

    value: int
    degree_used: int
    c: int
    curve: tuple[int, ...]
    basis: tuple[Slot, ...]

    def __post_init__(self):
        if len(self.basis) != self.value:
            raise ValueError("basis length must equal the codimension value")
        if not self.curve or self.curve[-1] != self.value:
            raise ValueError("the curve must end at the codimension value")


def _coordinates(branch: Branch) -> dict[int, tuple[int, Fraction]]:
    """The coordinate components of a branch: l -> (j, c) for each
    component c * x_j, the first such component for each variable j."""
    found: dict[int, tuple[int, Fraction]] = {}
    for l, comp in enumerate(branch.components):
        terms = list(comp.items())
        if len(terms) == 1 and sum(terms[0][0]) == 1:
            (mono, c), = terms
            j = mono.index(1)
            if all(j != taken for taken, _ in found.values()):
                found[l] = (j, c)
    return found


class _Branch:
    """The recursion over beta shared by the products of one branch b:
    the product of beta is that of beta / y_v times f_{b,v}, for the first
    v in `order` that beta contains, the components with the fewest terms
    in f_b first (for a coordinate, one shift).  The recursion itself is
    a table of the betas (`ring.MonomialTables.recursion`), kept there
    for every search with the same order; the factors f_{b,v} at one top
    are handed out by `factors` and not kept."""

    __slots__ = ("components", "order")

    def __init__(self, branch: Branch):
        self.components = branch.components
        # a zero component is taken off with the one-term ones: its
        # products are empty whatever the order
        self.order = tuple(sorted(
            range(len(branch.components)),
            key=lambda v: max(len(branch.components[v].items()), 1)))

    def factors(self, tables: MonomialTables, certify: int) -> list:
        """The terms of each f_{b,v} up to the top of `tables`, and for a
        one-term c x^m, which the products apply inline to save a call per
        beta, its shift table, c and how many monomials the step keeps:
        those of degree <= `certify`, the candidate degree k, that the
        table covers.  The product of x^m with a monomial x^a of degree
        >= k + 1 lies in J_b, the columns of branch b that the certificate
        rows x^a * c x^m kill (see the module docstring)."""
        factors = []
        fits = tables.start[certify + 1]
        for comp in self.components:
            terms = tables.terms(comp)
            one = None
            if len(terms) == 1:
                (k, c), = terms
                shift = tables.shift(k)
                one = (shift, c, min(len(shift), fits))
            factors.append((terms, one))
        return factors


def _compositions(g: Poly, factor: int, recursion: tuple, factors: list,
                  tables: MonomialTables) -> dict[int, dict]:
    """The products factor * (y^beta o f_b) * g up to the top of `tables`,
    as {beta: {source monomial index: coefficient}}, for the betas of the
    `recursion` of branch b (`ring.MonomialTables.recursion`), built with
    its `factors` (`_Branch.factors`) modulo J_b: a step by a one-term
    u x^m drops its products x^m x^a with |a| >= k + 1, which lie in J_b,
    and since J_b is closed under multiplication by monomials, every
    later step is still exact outside J_b.  An entry inside J_b may be
    missing or wrong; the elimination kills its column before it reads
    it.  Only beta = 0 and the nonempty products are keys: a missing beta
    has no entry outside J_b, and nor has any beta built from it."""
    table = {0: {k: factor * c for k, c in tables.terms(g)}}
    var, prevs = recursion
    for beta, (v, p) in enumerate(zip(var[1:], prevs[1:]), 1):
        prev = table.get(p)
        if prev is None:
            continue
        terms, one = factors[v]
        if one is None:
            product = tables.multiply(prev, terms)
        else:
            shift, c, fits = one
            product = {shift[i]: x * c for i, x in prev.items() if i < fits}
        if product:
            table[beta] = product
    return table


def _hand_over(row: dict, rows: list[dict], killed: set[int]) -> None:
    """A row of two or more entries into `rows`, and the column of a row of
    one into `killed` (see `eliminate_graded`)."""
    if len(row) > 1:
        rows.append(row)
    else:
        killed.update(row)


class _SearchRows:
    """What the rows of one germ's codimension searches are built from: the
    kept blocks, the generators of the derivative and certificate rows, and
    the families and parts of the target rows, each row family keyed by
    the block index q of its kept component.  Every elimination builds its
    rows from these in one pass (`_rows`), and none changes them, so the
    searches of both variants share one builder (`_Shared.rows`).

    Every row lies in the reduced module of the extended variant, keyed by
    column id, where the slot of mono_k in the q-th kept component (in
    (branch, component) order, K of them) carries the id
    `ring.MonomialTables.columns(K, q)[k]`: the positions ascend by
    degree, then by kept component, then by monomial, and no id depends
    on the top degree.  The rows of the non-extended variant are the rows
    of the extended one without the derivative rows of |a| = 0 and the
    target rows of beta = 0, and none of them has an entry of degree 0;
    so one elimination serves both, the non-extended rows in its first
    phase and those two families in its second.  The column ids of block q
    are read from the monomial tables of each top
    (`ring.MonomialTables.columns`).  The products (y^beta o f_b) * g that the
    target rows are read off are built modulo J_b at each elimination
    (`_compositions`) and freed before it runs; the shift tables they are
    built with, and the recursion over beta of each branch
    (`ring.MonomialTables.recursion`, on the tables of the betas), stay on
    the monomial tables."""

    def __init__(self, f: MultiGerm):
        self.f = f
        coordinates = [_coordinates(branch) for branch in f.branches]
        self.blocks = [(b, l) for b, coords in enumerate(coordinates)
                       for l in range(f.p) if l not in coords]
        # kept[b][l]: the block index q of kept component l of branch b
        kept: list[dict[int, int]] = [{} for _ in f.branches]
        for q, (b, l) in enumerate(self.blocks):
            kept[b][l] = q

        # derivative rows x^a * df_b/dx_j for the variables j that are no
        # coordinate of branch b, over its kept components
        self.derivatives = []
        for b, branch in enumerate(f.branches):
            variables = {j for j, _ in coordinates[b].values()}
            for j in range(f.n):
                if j not in variables:
                    self.derivatives.append(
                        [(branch.components[l].diff(j), q)
                         for l, q in kept[b].items()])

        # target rows: the row of (l, beta) has a part per branch b, the
        # composition y^beta o f_b in component l when l is kept on b, and
        # else, for each kept l', the product (y^beta o f_b) * g in l' with
        # g = -(scale / c) * df_{b,l'}/dx_j.  A one-term g is one more
        # shift, applied to the column ids; a longer g starts the
        # recursion of the compositions from g.  The rows of component l
        # are scaled by the least common multiple of the numerators of its
        # coordinate coefficients c, so every -scale / c is an integer.
        scale = [lcm(*(abs(coords[l][1].numerator)
                       for coords in coordinates if l in coords))
                 for l in range(f.p)]
        self.branches = [_Branch(branch) for branch in f.branches]
        # families: the (g, factor, branch) of each set of products
        self.families: list[tuple[Poly, int, int]] = []
        # parts[l]: (family, block index, scale, and for a one-term g of
        # positive degree its source monomial, by which the block's column
        # ids are moved at each top)
        self.parts: list[list] = [[] for _ in range(f.p)]
        for b, branch in enumerate(f.branches):
            compositions = len(self.families)
            self.families.append((Poly.const(f.n, 1), 1, b))
            for l in range(f.p):
                if l in kept[b]:
                    self.parts[l].append((compositions, kept[b][l],
                                          scale[l], None))
                    continue
                j, c = coordinates[b][l]
                factor = int(-scale[l] / c)
                for l2, q in kept[b].items():
                    g = branch.components[l2].diff(j)
                    if len(g.items()) == 1:
                        (mono, coef), = g.items()
                        if coef.denominator == 1:
                            coef = coef.numerator
                        # a constant g moves no column
                        self.parts[l].append((compositions, q, factor * coef,
                                              mono if any(mono) else None))
                    elif not g.is_zero():
                        self.parts[l].append((len(self.families), q, 1, None))
                        self.families.append((g, factor, b))
        # certificate rows x^a * f_{b,i} in each kept component of branch b
        self.certificates = [
            (comp, q) for branch, blocks in zip(f.branches, kept)
            for comp in branch.components for q in blocks.values()]

    def _rows(self, top: int,
              certify: int) -> tuple[MonomialTables, tuple, tuple]:
        """Build the rows of one elimination at `top` with the
        certificate of the candidate degree `certify`, for each of its two
        phases: those of two or more entries, and the columns of those of
        one (see `eliminate_graded`).  The first phase holds the rows of
        the non-extended variant, in the order derivative rows of |a| >= 1,
        target rows of beta != 0, certificate rows of |a| >= certify + 1;
        the second the derivative rows of |a| = 0 and the target rows of
        beta = 0.  The target rows of each branch b are built modulo J_b,
        the columns its one-term certificate rows kill (see the module
        docstring), so the first phase leaves out target rows and entries
        that its presolve would strip; the other rows are built in full.
        The target rows are read off products built here; the products and
        the lists of column ids die on return, before the elimination
        runs, so no call changes the builder, and the shift tables, column
        ids and recursions stay on the monomial tables for the next call at
        this top."""
        f = self.f
        tables = monomial_tables(f.n, top)
        kept = len(self.blocks)
        # as lists, whose reads return the stored ids instead of boxing
        # a new int at each read of an array
        columns = [tables.columns(kept, q).tolist() for q in range(kept)]

        rows: list[dict] = []
        killed: set[int] = set()
        extra: list[dict] = []
        extra_killed: set[int] = set()
        for spec in self.derivatives:
            terms = [(k, c, columns[q]) for g, q in spec
                     for k, c in tables.terms(g)]
            multiples(tables, terms, 1, rows, killed)
            # the partial itself, the row of a = 0; distinct terms land in
            # distinct columns (see `ring.multiples`)
            _hand_over({cm[k]: c for k, c, cm in terms}, extra, extra_killed)

        # with a candidate degree k the target rows stop at |beta| = k + 1
        # (see the module docstring)
        betas = monomial_tables(f.p, min(top, certify + 1))
        recursions = [betas.recursion(branch.order)
                      for branch in self.branches]
        factors = [branch.factors(tables, certify)
                   for branch in self.branches]
        products = [_compositions(g, factor, recursions[b], factors[b],
                                  tables)
                    for g, factor, b in self.families]

        for parts in self.parts:
            # (products, column ids, scale, the monomials the ids cover)
            read, families = [], set()
            for family, q, s, mono in parts:
                cm = columns[q]
                if mono is not None:
                    k = tables.index.get(mono)
                    if k is None:  # the term of g lies above top
                        continue
                    cm = [cm[i] for i in tables.shift(k)]
                read.append((products[family], cm, s, len(cm)))
                families.add(family)
            _hand_over({cm[i]: s * c for table, cm, s, fits in read
                        for i, c in table[0].items() if i < fits},
                       extra, extra_killed)
            # a beta whose every product is empty has no row
            for beta in sorted(set().union(*(products[family]
                                             for family in families)) - {0}):
                row = {cm[i]: s * c for table, cm, s, fits in read
                       if beta in table
                       for i, c in table[beta].items() if i < fits}
                if len(row) > 1:
                    rows.append(row)
                else:
                    killed.update(row)
        for comp, q in self.certificates:
            multiples(tables,
                      [(k, c, columns[q]) for k, c in tables.terms(comp)],
                      certify + 1, rows, killed)
        return tables, (rows, killed), (extra, extra_killed)

    def eliminate(self, certify: int,
                  top: int) -> tuple[list[int], list[int]]:
        """One elimination at top degree `top`: the free positions in
        ascending order, of the non-extended variant and of the extended
        one.  The rows are those of the certificate of the candidate degree
        `certify`, and the free positions are the engine's own at degrees
        <= certify + 1 only; `certify` = `top` adds no certificate row
        (each has degree >= certify + 2)."""
        tables, rows, extra = self._rows(top, certify)
        start, kept = tables.start, len(self.blocks)
        (_, free), (_, extended) = eliminate_graded(
            [kept * (start[d + 1] - start[d]) for d in range(top + 1)],
            rows, extra)
        # no non-extended row has an entry of degree 0, so the first phase
        # leaves the degree-0 block, the first K positions, free; the
        # non-extended module has no such block
        return free[kept:], extended

    def read(self, top: int,
             free: list[int]) -> tuple[list[int], list[Slot]]:
        """The value at every degree 0..top of an elimination at top `top`
        with these free positions, and the slot at each of them."""
        tables = monomial_tables(self.f.n, top)
        start = tables.start
        # where each degree block begins, and the last one ends
        bounds = [len(self.blocks) * s for s in start]
        slots = []
        for position in free:
            d = bisect_right(bounds, position) - 1
            q, i = divmod(position - bounds[d], start[d + 1] - start[d])
            slots.append((*self.blocks[q], tables.monos[start[d] + i]))
        return [bisect_left(free, end) for end in bounds[1:]], slots


def _graded_tangent(f: MultiGerm, top: int, extended: bool,
                    certify: int | None = None) -> tuple[list[int], list[Slot]]:
    """One elimination at top degree `top` of a new `_SearchRows`
    (`_SearchRows.eliminate`), shared with no search; without a candidate
    degree `certify`, the engine's own rows at `top`."""
    rows = _SearchRows(f)
    return rows.read(top, rows.eliminate(
        top if certify is None else certify, top)[extended])


def _stabilized_codim(f: MultiGerm, d_max: int, extended: bool) -> CodimResult:
    """One codimension search.  Each elimination serves both variants
    (`_SearchRows.eliminate`): the search reads the free positions of its
    variant from `_Shared.eliminations` of `_shared(f, d_max)`, and
    eliminates with the shared rows only at a (candidate, top) that no
    search of f has run."""
    shared = _shared(f, d_max)
    m, c = multiplicity_and_power(f, d_max)
    start = m + 3 - c
    rows, eliminations = shared.rows, shared.eliminations

    def eliminate(certify: int, top: int) -> tuple[list[int], list[Slot]]:
        both = eliminations.get((certify, top))
        if both is None:
            both = eliminations.setdefault((certify, top),
                                           rows.eliminate(certify, top))
        return rows.read(top, both[extended])

    values, degree, free = stabilize_curve(
        eliminate, start, c,
        lambda k, values: max(k + 2, values[k + 1] + 1),
        d_max, "codimension", shared.prove)
    # the first candidate was min(start, d_max), which is at most degree
    return CodimResult(value=values[-1], degree_used=degree, c=c,
                       curve=values[min(start, degree):],
                       basis=tuple(free))


@dataclass(frozen=True)
class UnstablePoint:
    """A certificate that a finite, weighted homogeneous f is not A-finite.

    `point` is a target point y != 0; `fibre` holds (branch, source point)
    pairs of rational points with f_b(x) = y, whose multigerm, each branch
    translated to its point and y to 0, is not stable; `source_weights`
    (one tuple per branch) and `target_weights` are positive integers with
    f_b(t^w_b x) = t^v f_b(x) (`germ.weights`).
    """

    point: tuple[Fraction, ...]
    fibre: tuple[tuple[int, tuple[Fraction, ...]], ...]
    source_weights: tuple[tuple[Fraction, ...], ...]
    target_weights: tuple[Fraction, ...]

    @property
    def reason(self) -> str:
        return (f"not A-finite: unstable at y = {_text(self.point)}, "
                f"weights {_text(self.target_weights)}")

    def error(self) -> ProvedInfiniteError:
        return ProvedInfiniteError(f"codimension is infinite ({self.reason})",
                                   self.reason, asdict(self))


def _text(values) -> str:
    return f"({', '.join(map(str, values))})"


def _evaluate(poly: Poly, x) -> Fraction:
    return sum((c * prod(v ** e for v, e in zip(x, mono) if e)
                for mono, c in poly.items()), Fraction(0))


def _rational_roots(coefs: dict[int, Fraction]) -> list[Fraction]:
    """The rational roots of sum of c_e t^e, not every c_e zero, by the
    rational root theorem; only 0 is tried when the outer coefficients
    are too large to factor by trial division."""
    low = min(e for e, c in coefs.items() if c)
    roots = [Fraction(0)] if low else []
    den = lcm(*(Fraction(c).denominator for c in coefs.values()))
    ints = {e - low: int(c * den) for e, c in coefs.items() if c}
    top = max(ints)
    if not top or max(abs(ints[0]), abs(ints[top])) > 10 ** 6:
        return roots

    def divisors(a: int) -> set[int]:
        a = abs(a)
        return {d for i in range(1, isqrt(a) + 1) if a % i == 0
                for d in (i, a // i)}

    for t in sorted({Fraction(sign * a, b) for a in divisors(ints[0])
                     for b in divisors(ints[top]) for sign in (1, -1)}):
        if sum(c * t ** e for e, c in ints.items()) == 0:
            roots.append(t)
    return roots


def _rational_fibre(branch: Branch, y) -> list[tuple[Fraction, ...]]:
    """Rational points x with f_b(x) = y, all of those the coordinate
    components pin down: they fix every variable but at most one, and the
    rational roots of a component that still depends on the free variable
    give its values.  With two or more free variables, or no such
    component, no point is returned."""
    fixed = {j: y[l] / c for l, (j, c) in _coordinates(branch).items()}
    free = [j for j in range(branch.n) if j not in fixed]
    if not free:
        candidates = [tuple(fixed[j] for j in range(branch.n))]
    elif len(free) > 1:
        return []
    else:
        (j,) = free
        candidates = []
        for l, comp in enumerate(branch.components):
            coefs = {0: -y[l]}
            for mono, c in comp.items():
                coefs[mono[j]] = coefs.get(mono[j], 0) + c * prod(
                    fixed[i] ** e for i, e in enumerate(mono) if i != j and e)
            if any(coefs.values()):
                candidates = [tuple(fixed.get(i, t) for i in range(branch.n))
                              for t in _rational_roots(coefs)]
                break
    return [x for x in candidates
            if all(_evaluate(comp, x) == v
                   for comp, v in zip(branch.components, y))]


def _translated(branch: Branch, x, y) -> Branch:
    """The branch at its point x, moved so that x and y = f_b(x) are 0."""
    n = branch.n
    shifted = [Poly.variable(n, i) + v for i, v in enumerate(x)]
    return Branch(tuple(substitute(comp, shifted) - v
                        for comp, v in zip(branch.components, y)))


def unstable_point(f: MultiGerm, d_max: int = D_MAX) -> UnstablePoint | None:
    """A certificate that f, a finite germ, is not A-finite, or None.

    The candidate points are y = f_b(x*) != 0 for x* in {0,1}^n minus 0,
    branch by branch, each y once.  At each y the rational fibre points of
    every branch (`_rational_fibre`) are collected, less the points where
    a branch is a local diffeomorphism when n = p; the multigerm at the
    rest, translated to the origin, is tested by `is_stable`.  The first
    unstable one is returned, when f has positive weights
    (`germ.weights`); see the module docstring for why that proves f is
    not A-finite.  A y whose test cannot be certified by d_max is passed
    over.  None means no proof was found, not that f is A-finite.
    """
    fitted = weights(f)
    if fitted is None:
        return None
    seen = set()
    for branch in f.branches:
        for x in itertools.product((0, 1), repeat=f.n):
            y = tuple(_evaluate(comp, x) for comp in branch.components)
            if not any(y) or y in seen:
                continue
            seen.add(y)
            fibre, parts = [], []
            for b, other in enumerate(f.branches):
                for point in _rational_fibre(other, y):
                    part = _translated(other, point, y)
                    if f.n != f.p or corank(part):
                        fibre.append((b, point))
                        parts.append(part)
            if not parts:
                continue
            try:
                stable = is_stable(MultiGerm(tuple(parts)), d_max)
            except NotStabilizedError:
                continue
            if not stable:
                return UnstablePoint(y, tuple(fibre), *fitted)
    return None


class _Shared:
    """What the codimension searches of one germ under one cap share.

    `prenormal` is the germ the searches eliminate on: the linear
    prenormal form of f, computed once for both variants.  The value at
    every degree is invariant under linear changes of coordinates, and
    the sparser form costs far less fill-in.  `proof` is the certificate
    `unstable_point`, which serves both variants, since A-finiteness
    depends on neither: None while not sought, False when none was found,
    or the UnstablePoint.  It is written once, after `unstable_point`
    returns, so a search that reaches its last candidate while the other
    is still proving computes the same answer itself.  `rows` is the row
    builder of the prenormal form, which no elimination changes, and
    `eliminations` maps each (candidate degree, top degree) that a search
    has eliminated at to the pair of free-position lists that
    `_SearchRows.eliminate` gave, for both variants.  An entry is written
    once (`dict.setdefault`) and never removed, so two searches that run
    the same candidate at once read the same answer: both may eliminate,
    and both read the entry stored first."""

    __slots__ = ("f", "d_max", "prenormal", "rows", "eliminations", "proof")

    def __init__(self, f: MultiGerm, d_max: int):
        self.f, self.d_max = f, d_max
        self.prenormal = linear_prenormal_form(f)[0]
        self.rows = _SearchRows(self.prenormal)
        self.eliminations: dict[tuple[int, int],
                                tuple[list[int], list[int]]] = {}
        self.proof: UnstablePoint | bool | None = None

    def prove(self) -> None:
        """Raise ProvedInfiniteError when the certificate proves f is not
        A-finite, computing it unless a search has already stored it."""
        if self.proof is None:
            self.proof = unstable_point(self.f, self.d_max) or False
        self.proved()

    def proved(self) -> None:
        """Raise ProvedInfiniteError when a search has already proved f
        not A-finite; never compute the certificate."""
        if self.proof:
            raise self.proof.error()


@lru_cache(maxsize=1024)
def _shared(f: MultiGerm, d_max: int) -> _Shared:
    return _Shared(f, d_max)


@remember_failures(maxsize=1024)
def ae_codim(f: MultiGerm, d_max: int = D_MAX) -> CodimResult:
    """Codimension of the extended tangent space; 0 exactly for stable germs.

    Raises ProvedInfiniteError when f is proved not finite or not A-finite,
    and NotStabilizedError when no candidate degree up to d_max passes its
    certificate and no such proof is found; either afresh but without
    computing again when repeated."""
    _shared(f, d_max).proved()
    return _stabilized_codim(f, d_max, True)


@remember_failures(maxsize=1024)
def a_codim(f: MultiGerm, d_max: int = D_MAX) -> CodimResult:
    """Codimension of the non-extended tangent space inside sections without
    constant term; fails as `ae_codim` does.  After either search of f has
    proved it not A-finite, the other raises the same proof without an
    elimination."""
    _shared(f, d_max).proved()
    return _stabilized_codim(f, d_max, False)


@dataclass(frozen=True)
class WilsonReport:
    """Outcome of the arithmetic cross-check between the two codimensions.

    For a simple germ of nonzero extended codimension the two engines must
    satisfy  extended = non-extended + r(p - n) - p.
    """

    status: str  # "consistent" | "inconsistent" | "not_applicable"
    extended: int | None = None
    non_extended: int | None = None
    expected_extended: int | None = None

    CONSISTENT = "consistent"
    INCONSISTENT = "inconsistent"
    NOT_APPLICABLE = "not_applicable"


def wilson_check(f: MultiGerm, d_max: int = D_MAX) -> WilsonReport:
    """Compare the two codimension engines through the codimension relation.

    Not applicable for stable germs (extended codimension 0), nor for
    germs proved not A-finite.
    """
    try:
        ae = ae_codim(f, d_max).value
    except ProvedInfiniteError:
        return WilsonReport(status=WilsonReport.NOT_APPLICABLE)
    if ae == 0:
        return WilsonReport(status=WilsonReport.NOT_APPLICABLE, extended=0)
    a = a_codim(f, d_max).value
    expected = a + f.r * (f.p - f.n) - f.p
    status = WilsonReport.CONSISTENT if ae == expected else WilsonReport.INCONSISTENT
    return WilsonReport(status=status, extended=ae, non_extended=a,
                        expected_extended=expected)


@remember_failures(maxsize=1024)
def is_stable(f: MultiGerm, d_max: int = D_MAX) -> bool:
    """True exactly when f is stable, decided by one elimination.

    If f is stable, its tangent space is all of theta(f), so every
    candidate degree passes with value 0.  So a finite f is stable exactly
    when its first candidate, k = m + 3 - c, passes with value 0, that is,
    when the value at k + c is 0 (the values never fall with the degree).
    That candidate is not capped by d_max, and the answer does not depend
    on it; d_max bounds only the multiplicity search.  A germ proved not
    finite is not stable.  Raises NotStabilizedError only when a branch's
    multiplicity is neither certified nor proved infinite by d_max.  The
    answer, or that failure, is cached by the values (f, d_max) however
    they are spelled (`errors.remember_failures`): the parts that
    `gates.gate_tau_pairing` asks about recur across germs."""
    try:
        m, c = multiplicity_and_power(f, d_max)
    except ProvedInfiniteError:
        return False
    g, _, _ = linear_prenormal_form(f)
    k = m + 3 - c
    values, _ = _graded_tangent(g, k + c, True, k)
    return values[k + c] == 0
