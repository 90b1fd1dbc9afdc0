"""The linear prenormal form the codimension engine eliminates on.

The truncated value at degree d, dim theta(f) / (T A_e f + m^{d+1} theta(f)),
is invariant under linear changes of source and target coordinates, so
the engine may eliminate on any linearly equivalent germ.  These tests
check that the form it picks gives the raw engine's whole truncation
curve, that its transforms are what they claim, and that it leaves every
catalog normal form alone.
"""

from __future__ import annotations

from fractions import Fraction

from germcalc import atlas, syntax
from germcalc.germ import Branch, MultiGerm, linear_prenormal_form
from germcalc.ring import Poly, substitute
from germcalc.tangent import _graded_tangent, a_codim, ae_codim

P = syntax.parse_multigerm


def linear_forms(n, matrix):
    return [sum((Poly.const(n, c) * Poly.variable(n, j)
                 for j, c in enumerate(row)), Poly.zero(n))
            for row in matrix]


def move(f: MultiGerm, sources, target) -> MultiGerm:
    """T . f_b(S_b x) on every branch b, one source matrix per branch."""
    branches = []
    for branch, source in zip(f.branches, sources):
        pulled = [substitute(c, linear_forms(f.n, source))
                  for c in branch.components]
        branches.append(Branch(tuple(
            sum((Poly.const(f.n, c) * q for c, q in zip(row, pulled)),
                Poly.zero(f.n))
            for row in target)))
    return MultiGerm(tuple(branches))


def mild_move(f: MultiGerm) -> MultiGerm:
    # x_i -> x_i + x_{i+1} in the source, y_{i+1} -> y_{i+1} - y_i in the
    # target: every branch gets the same change
    S = [[int(j in (i, i + 1)) for j in range(f.n)] for i in range(f.n)]
    T = [[1 if j == i else -1 if j == i - 1 else 0 for j in range(f.p)]
         for i in range(f.p)]
    return move(f, [S] * f.r, T)


def identity(size):
    return tuple(tuple(Fraction(int(i == j)) for j in range(size))
                 for i in range(size))


def term_count(f):
    return sum(len(c.items()) for b in f.branches for c in b.components)


def moved_germs():
    for entry in atlas.entries():
        for params in atlas._parameter_sweep(entry, 2):
            yield f"{entry.name} {params}", mild_move(
                atlas.instantiate(entry.name, params))
    t = Poly.variable(1, 0)
    curve = MultiGerm((Branch((t ** 3, t ** 4 + t ** 5)),))
    yield "curve (1, 2)", move(curve, [[[-1]]], [[1, 2], [1, 3]])
    yield "germ (2, 3)", move(P("(x, y^2, y^3+x^2*y)"), [[[1, 1], [0, 1]]],
                              [[1, 0, 0], [1, 1, 0], [0, 1, 1]])


# the two dense inputs of the benchmark: 5_1 and A1A2-a k=2 moved by the
# third coordinate-change draw of acceptance criterion 5
DENSE = [
    (P("(x,y,z^5+x*z+y*z^2)"),
     [[1, 2, 0], [-2, -3, 0], [2, 1, 1]],
     [[-1, -2, 1], [-2, -1, 3], [4, 3, -6]]),
    (P("{(x^3+y*x,y,z);(x,y^2+z^2,z)}"),
     [[1, 12, 0], [0, 16, 3], [0, 5, 1]],
     [[1, 0, 2], [0, 1, 5], [2, -1, 0]]),
]

# 5_1 with z -> z + x + 2y: the dense component w^5 + x*w + y*w^2, w =
# z + x + 2y, has 32 terms next to two coordinates, so only the shift of
# the free coordinate z can make it sparse
SHIFTED = (P("(x,y,z^5+x*z+y*z^2)"),
           [[1, 0, 0], [0, 1, 0], [1, 2, 1]],
           [[1, 0, 0], [0, 1, 0], [0, 0, 1]])


def test_curves_match_the_raw_engine():
    changed = 0
    for name, f in moved_germs():
        g, _, _ = linear_prenormal_form(f)
        changed += g != f
        for extended in (True, False):
            raw, _ = _graded_tangent(f, 7, extended)
            pre, _ = _graded_tangent(g, 7, extended)
            assert raw == pre, (name, extended)
    assert changed >= 30


def test_identity_on_the_catalog():
    rows = 0
    for entry in atlas.entries():
        for params in atlas._parameter_sweep(entry, 8):
            f = atlas.instantiate(entry.name, params)
            g, T, S = linear_prenormal_form(f)
            assert g is f, f"{entry.name} {params}"
            assert T == identity(f.p)
            assert S == (identity(f.n),) * f.r
            rows += 1
    assert rows == 165


def test_transforms_rebuild_the_form():
    for base, source, target in DENSE + [SHIFTED]:
        f = move(base, [source] * base.r, target)
        g, T, S = linear_prenormal_form(f)
        assert term_count(g) < term_count(f)
        for branch, rebuilt_source, out in zip(f.branches, S, g.branches):
            pulled = [substitute(c, linear_forms(f.n, rebuilt_source))
                      for c in branch.components]
            rebuilt = tuple(
                sum((Poly.const(f.n, c) * q for c, q in zip(row, pulled)),
                    Poly.zero(f.n))
                for row in T)
            assert rebuilt == out.components
        assert all(c.denominator == 1 for b in g.branches
                   for comp in b.components for _, c in comp.items())


def test_denominators_differ_between_branches():
    # each target component is scaled by one factor on every branch;
    # scaling it per branch is not a change of coordinates when r >= 2
    base = P("{(x^3+y*x,y,z);(x,y^2+z^2,z)}")
    f = move(base, [[[1, 1, 0], [0, 2, 1], [1, 0, 1]],
                    [[3, 0, 1], [1, 1, 0], [0, 1, 1]]],
             [[1, 1, 0], [0, 1, 1], [1, 0, 2]])
    g, _, S = linear_prenormal_form(f)
    assert g != f
    dens = [{c.denominator for row in s for c in row} for s in S]
    assert dens[0] != dens[1]
    assert all(c.denominator == 1 for b in g.branches
               for comp in b.components for _, c in comp.items())
    assert ae_codim(f).value == ae_codim(base).value == 1
    assert a_codim(f).value == a_codim(base).value


def test_dense_germs_come_back_sparse():
    for (base, source, target), most in zip(DENSE + [SHIFTED], (7, 9, 7)):
        f = move(base, [source] * base.r, target)
        g, _, _ = linear_prenormal_form(f)
        assert term_count(g) <= most < term_count(f)
        for codim in (ae_codim, a_codim):
            got, normal = codim(f), codim(base)
            assert (got.value, got.degree_used, got.curve) == \
                (normal.value, normal.degree_used, normal.curve)


def shift_leftovers(g: MultiGerm) -> list:
    """The terms u_z^{m-1} u_k, k != z, of the first component of each
    branch of g that reaches the lowest pure power u_z^m of the branch's
    one free coordinate u_z (one that no linear component contains)."""
    left = []
    for b, branch in enumerate(g.branches):
        bound = {mono.index(1) for comp in branch.components
                 if all(sum(mono) == 1 for mono, _ in comp.items())
                 for mono, _ in comp.items()}
        free = [j for j in range(g.n) if j not in bound]
        if len(free) != 1:
            continue
        (z,) = free
        powers = [(mono[z], l) for l, comp in enumerate(branch.components)
                  for mono, _ in comp.items() if sum(mono) == mono[z] > 0]
        if not powers:
            continue
        m, l = min(powers)
        left += [(b, l, mono) for mono, _ in branch.components[l].items()
                 if sum(mono) == m and mono[z] == m - 1]
    return left


def test_no_shifted_branch_keeps_a_term_next_to_its_lowest_power():
    dense = [(name, move(base, [source] * base.r, target))
             for name, (base, source, target) in
             zip(("5_1", "A1A2-a", "shifted 5_1"), DENSE + [SHIFTED])]
    shifted = 0
    for name, f in list(moved_germs()) + dense:
        g, _, _ = linear_prenormal_form(f)
        if g is not f:
            assert not shift_leftovers(g), name
            shifted += 1
    assert shifted >= 40
