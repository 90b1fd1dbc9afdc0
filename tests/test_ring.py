"""Polynomial arithmetic, quotient dimensions, Milnor and Tjurina numbers."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from germcalc.errors import NotStabilizedError
from germcalc.germ import Branch, MultiGerm
from germcalc.ring import (MonomialTables, Poly, _graded_ideal,
                           is_quasi_homogeneous, milnor, monomial_mul,
                           monomials_up_to, multiples, quotient_curve,
                           quotient_dim, substitute, tjurina)
from germcalc.tangent import ae_codim


def V(n, i):
    return Poly.variable(n, i)


class TestPoly:
    def test_canonical_no_zero_terms(self):
        p = Poly(2, {(1, 0): 1, (0, 1): 0})
        assert p.terms == {(1, 0): Fraction(1)}

    def test_arithmetic(self):
        x, y = V(2, 0), V(2, 1)
        assert (x + y) * (x - y) == x * x - y * y
        assert (x + y) ** 2 == x * x + 2 * x * y + y * y
        assert (x - x).is_zero()

    def test_diff(self):
        x, y = V(2, 0), V(2, 1)
        p = x ** 3 * y + 2 * y ** 2
        assert p.diff(0) == 3 * x * x * y
        assert p.diff(1) == x ** 3 + 4 * y

    def test_truncate_and_order(self):
        x = V(1, 0)
        p = x + x ** 5
        assert p.truncate(3) == x
        assert p.order() == 1 and p.degree() == 5

    def test_monomial_length_checked(self):
        with pytest.raises(ValueError):
            Poly(2, {(1,): 1})


class TestSubstitute:
    def test_inner_augmentation_step(self):
        # x^3 + l*x with l -> z^4 (x -> x) gives x^3 + z^4*x
        f = V(2, 0) ** 3 + V(2, 1) * V(2, 0)
        x, z = V(2, 0), V(2, 1)
        assert substitute(f, [x, z ** 4]) == x ** 3 + z ** 4 * x

    def test_identity(self):
        f = V(1, 0)
        assert substitute(f, [V(1, 0)]) == f

    def test_binomial_expansion(self):
        f = V(2, 0) ** 2 + V(2, 1)
        u, v = V(2, 0), V(2, 1)
        assert substitute(f, [u + v, Poly.zero(2)]) == u * u + 2 * u * v + v * v

    def test_arity_mismatch(self):
        with pytest.raises(ValueError, match="arity"):
            substitute(V(2, 0), [V(1, 0)])


def reference_substitute(f: Poly, assignment: list[Poly], ambient: int) -> Poly:
    """The composition Poly by Poly: each term of f a product of powers of
    the assigned polynomials, summed."""
    result = Poly.zero(ambient)
    for mono, coef in f.items():
        term = Poly.const(ambient, coef)
        for g, e in zip(assignment, mono):
            term = term * g ** e
        result = result + term
    return result


coefficients = st.one_of(
    st.integers(-6, 6),
    st.fractions(min_value=-3, max_value=3, max_denominator=5))


def polys(nvars: int, top: int):
    """Polynomials in nvars variables with exponents up to top, the zero
    polynomial and constant terms included."""
    monos = st.tuples(*[st.integers(0, top)] * nvars)
    return st.dictionaries(monos, coefficients, max_size=4).map(
        lambda terms: Poly(nvars, terms))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_substitute_matches_the_poly_by_poly_composition(data):
    nvars = data.draw(st.integers(0, 4))
    ambient = data.draw(st.integers(0, 4)) if nvars else 0
    f = data.draw(polys(nvars, 3))
    assignment = [data.draw(polys(ambient, 2)) for _ in range(nvars)]
    got = substitute(f, assignment)
    assert got.nvars == ambient
    assert got == reference_substitute(f, assignment, ambient)
    assert all(type(c) is Fraction for _, c in got.items())


class TestQuotientDim:
    def test_maximal_ideal(self):
        gens = [V(3, 0), V(3, 1), V(3, 2)]
        assert quotient_dim(gens, 3) == 1

    def test_single_power(self):
        assert quotient_dim([V(1, 0) ** 3], 1) == 3

    def test_cusp_curve_jacobian(self):
        x, y = V(2, 0), V(2, 1)
        assert quotient_dim([3 * x * x, 2 * y], 2) == 2

    def test_zero_generators_skipped(self):
        assert quotient_dim([Poly.zero(1), V(1, 0) ** 2], 1) == 2

    def test_unit_ideal(self):
        assert quotient_dim([Poly.const(1, 1) + V(1, 0)], 1) == 0

    def test_empty_generators_not_stabilized(self):
        with pytest.raises(NotStabilizedError):
            quotient_dim([], 2)

    def test_ring_in_no_variables_is_the_field(self):
        assert quotient_dim([], 0) == 1

    def test_non_finite_not_stabilized(self):
        # (x) in two variables has an infinite-dimensional quotient
        with pytest.raises(NotStabilizedError):
            quotient_dim([V(2, 0)], 2)

    def test_truncated_sequence_non_decreasing(self):
        cases = [
            ([V(1, 0) ** 4], 1),
            ([V(2, 0) ** 2, V(2, 1) ** 3], 2),
            ([V(3, 0) * V(3, 1), V(3, 1) ** 2, V(3, 2) ** 3, V(3, 0) ** 2], 3),
        ]
        for gens, n in cases:
            values, _ = _graded_ideal(gens, n, 8)
            assert values == sorted(values)


class TestMilnorTjurina:
    def test_morse(self):
        x, y = V(2, 0), V(2, 1)
        assert milnor(x * x + y * y) == 1

    @pytest.mark.parametrize("mu", [1, 2, 3, 4])
    def test_a_series(self, mu):
        x, y = V(2, 0), V(2, 1)
        assert milnor(y * y + x ** (mu + 1)) == mu

    def test_d4(self):
        x, y = V(2, 0), V(2, 1)
        assert milnor(x * x * y + y ** 3) == 4

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_tjurina_power(self, k):
        assert tjurina(V(1, 0) ** k) == k - 1

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_tjurina_quasi_homogeneous(self, k):
        x, y = V(2, 0), V(2, 1)
        assert tjurina(x * x + y ** (k + 1)) == k

    def test_tjurina_submersion(self):
        assert tjurina(V(1, 0)) == 0

    def test_must_vanish_at_origin(self):
        with pytest.raises(ValueError):
            milnor(Poly.const(1, 1) + V(1, 0))


class TestQuasiHomogeneous:
    @pytest.mark.parametrize("series,mu", [
        ("A", 1), ("A", 2), ("A", 3), ("A", 4),
        ("D", 4), ("D", 5), ("E", 6), ("E", 7), ("E", 8),
    ])
    def test_ade_weight_fit_and_tau_equals_mu(self, series, mu):
        from germcalc.atlas import simple_function
        p = simple_function(series, mu)
        assert is_quasi_homogeneous(p)
        assert tjurina(p) == milnor(p) == mu

    def test_single_monomials(self):
        assert is_quasi_homogeneous(V(1, 0) ** 5)
        assert is_quasi_homogeneous(V(2, 0) * V(2, 1))

    def test_underdetermined_weights(self):
        # x^2 in two variables: the second weight is free but positive
        assert is_quasi_homogeneous(V(2, 0) ** 2)

    def test_free_weight_without_positive_solution(self):
        # x^2 + x^2*y*z: w_x = 1/2 forces w_y + w_z = 0, so the free weight
        # has no positive choice
        x, y, z = V(3, 0), V(3, 1), V(3, 2)
        assert not is_quasi_homogeneous(x ** 2 + x ** 2 * y * z)

    def test_not_quasi_homogeneous(self):
        x, y = V(2, 0), V(2, 1)
        p = x ** 5 + y ** 5 + x ** 3 * y ** 3
        assert not is_quasi_homogeneous(p)
        assert tjurina(p) < milnor(p)

    def test_one_variable_sum_not_qh(self):
        t = V(1, 0)
        assert not is_quasi_homogeneous(t ** 2 + t ** 3)

    def test_zero_and_constants(self):
        assert not is_quasi_homogeneous(Poly.zero(2))
        assert not is_quasi_homogeneous(Poly.const(2, 1) + V(2, 0))


def _staircase_count(exponent_sets, nvars, box):
    """Independent oracle: count monomials not divisible by any generator."""
    import itertools
    count = 0
    for mono in itertools.product(*(range(b) for b in box)):
        if not any(all(m >= g for m, g in zip(mono, gen))
                   for gen in exponent_sets):
            count += 1
    return count


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_monomial_ideal_staircase_oracle(data):
    nvars = data.draw(st.integers(1, 3))
    powers = [data.draw(st.integers(1, 4)) for _ in range(nvars)]
    gens = [tuple(p if j == i else 0 for j in range(nvars))
            for i, p in enumerate(powers)]
    for _ in range(data.draw(st.integers(0, 3))):
        gens.append(tuple(data.draw(st.integers(0, 3)) for _ in range(nvars)))
    gens = [g for g in gens if sum(g) > 0]
    expected = _staircase_count(gens, nvars, powers)
    polys = [Poly.monomial(nvars, g) for g in gens]
    assert quotient_dim(polys, nvars) == expected


def _random_unimodular(rng, size):
    rows = [[Fraction(1 if i == j else 0) for j in range(size)]
            for i in range(size)]
    for _ in range(2 * size):
        i, j = rng.sample(range(size), 2)
        c = rng.randint(-2, 2)
        rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
    return rows


def test_quotient_dim_invariant_under_generator_mixing():
    rng = random.Random(20240817)
    x, y = V(2, 0), V(2, 1)
    gens = [x ** 3 + y * x, y ** 2]
    base = quotient_dim(gens, 2)
    for _ in range(6):
        m = _random_unimodular(rng, len(gens))
        mixed = []
        for row in m:
            acc = Poly.zero(2)
            for c, g in zip(row, gens):
                acc = acc + Poly.const(2, c) * g
            mixed.append(acc)
        assert quotient_dim(mixed, 2) == base


def test_policy_validation():
    # the degree cap d_max is the only setting, and it must be at least 1
    x, y = V(2, 0), V(2, 1)
    with pytest.raises(ValueError, match="d_max must be at least 1"):
        quotient_dim([x, y ** 5], 2, 0)
    f = MultiGerm((Branch((x, y ** 2)),))
    with pytest.raises(ValueError, match="d_max must be at least 1"):
        ae_codim(f, 0)


def test_ideal_quotient_cap_bounds_the_candidate_degree():
    # the values of (x, y^5) run 3, 4, 5, 5 from degree 2; the candidate
    # degree 4 passes on the repeat at degree 5, so a cap of 4 suffices
    x, y = V(2, 0), V(2, 1)
    assert quotient_curve([x, y ** 5], 2, 4) == \
        (1, 2, 3, 4, 5)
    with pytest.raises(NotStabilizedError):
        quotient_dim([x, y ** 5], 2, 3)


def test_monomials_up_to_counts():
    assert len(monomials_up_to(3, 4)) == 35  # C(7, 3)
    assert monomials_up_to(2, 1) == ((0, 0), (0, 1), (1, 0))


@pytest.mark.parametrize("nvars,top", [(1, 6), (2, 5), (3, 4), (4, 3)])
def test_shift_tables_index_the_products(nvars, top):
    # shift(k)[i] is the index of mono_k * mono_i for every mono_i of degree
    # <= top - deg k, and the table is composed once: every later call
    # hands back the same list
    tables = MonomialTables(nvars, top)
    monos, start, deg = tables.monos, tables.start, tables.deg
    for k in reversed(range(len(monos))):  # the longest chains first
        shift = tables.shift(k)
        assert len(shift) == start[top - deg[k] + 1]
        assert [monos[j] for j in shift] == [
            monomial_mul(monos[k], monos[i]) for i in range(len(shift))]
        assert tables.shift(k) is shift
    assert len(tables.shifts) == len(monos)


@pytest.mark.parametrize("nvars,top,kept,q",
                         [(1, 6, 1, 0), (2, 5, 3, 1), (3, 4, 4, 3),
                          (3, 6, 2, 0), (3, 6, 5, 2)])
def test_block_columns_follow_the_position_formula(nvars, top, kept, q):
    # the id of mono_k in the q-th of K blocks is -(K - 1) start[d]
    # - q width_d - k, d = deg k; the ids at a lower top are a prefix
    tables = MonomialTables(nvars, top)
    start = tables.start
    offset = [-(kept - 1) * start[d] - q * (start[d + 1] - start[d])
              for d in range(top + 1)]
    columns = tables.columns(kept, q)
    assert list(columns) == [offset[d] - k for k, d in enumerate(tables.deg)]
    assert tables.columns(kept, q) is columns
    below = MonomialTables(nvars, top - 1).columns(kept, q)
    assert list(columns[:len(below)]) == list(below)


def _grown_recursion(nvars, order, tops):
    """The recursion over the monomials for `order`, grown from each top
    of `tops` to the next: every new monomial takes the first v of order
    whose step table reaches it from a monomial of the degree below."""
    steps = []
    for top in tops:
        tables = MonomialTables(nvars, top)
        known = len(steps)
        steps.extend([None] * (len(tables.monos) - known))
        first = tables.start[tables.deg[known - 1]] if known else 0
        below = tables.start[top]
        for v in order:
            for i, k in enumerate(tables.step[v][first:below], first):
                if steps[k] is None:
                    steps[k] = (v, i)
        yield tables, steps


@pytest.mark.parametrize("nvars", [2, 3])
@pytest.mark.parametrize("tops", [range(9), (2, 5, 8)])
def test_recursion_is_the_grown_recursion(nvars, tops):
    for order in permutations(range(nvars)):
        for tables, steps in _grown_recursion(nvars, order, tops):
            var, prev = tables.recursion(order)
            assert list(zip(var[1:], prev[1:])) == steps[1:]
            assert tables.recursion(order) == (var, prev)
            # the first v of order that the monomial contains
            for k in range(1, len(tables.monos)):
                mono = tables.monos[k]
                v = next(v for v in order if mono[v])
                assert var[k] == v
                assert tables.monos[prev[k]] == mono[:v] + (mono[v] - 1,) \
                    + mono[v + 1:]


def assert_multiples_are_direct(top: int, low: int) -> None:
    """`multiples` hands over x^a * g truncated at top for every |a| >= low,
    each row directly."""
    x, y, z = (V(3, i) for i in range(3))
    g = 2 * x * y - z ** 3 + 5 * x ** 2 * y ** 2 + y ** 5
    tables = MonomialTables(3, top)
    colmap = [-3 * i - 1 for i in range(len(tables.monos))]
    rows, killed = [], set()
    multiples(tables, [(k, c, colmap) for k, c in tables.terms(g)], low,
              rows, killed)

    expected, units = [], set()
    for a in tables.monos[tables.start[low]:]:
        row = {colmap[tables.index[monomial_mul(a, m)]]: c
               for m, c in g.items() if sum(m) <= top - sum(a)}
        if len(row) > 1:
            expected.append(row)
        else:
            units.update(row)
    assert rows == expected and killed == units
    # the entries of a row go in ascending by the degree of g's term
    for row in rows:
        degrees = [tables.deg[(-c - 1) // 3] for c in row]
        assert degrees == sorted(degrees)


@pytest.mark.parametrize("low", [0, 2])
@pytest.mark.parametrize("top", [3, 5, 8])
def test_multiples_are_x_a_times_g_truncated_at_the_top(top, low):
    # the slab |a| = 1 is one-entry at top 3 and full rows at 5, and the
    # slab |a| = 3 is one-entry at top 5 and full rows at 8
    assert_multiples_are_direct(top, low)
