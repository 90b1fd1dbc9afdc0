"""Multigerm model, corank, multiplicity, type recognition, stratum dims."""

from __future__ import annotations

import copy
import dataclasses
import pickle
import random

import pytest

from germcalc.errors import (NotCorankOneError, NotStableTypeError,
                             ProvedInfiniteError)
from germcalc.germ import (AType, Branch, MultiGerm, corank, multiplicity,
                           recognize_type, stratum_dim)
from germcalc.ring import Poly, substitute
from germcalc.syntax import parse_multigerm


def V(n, i):
    return Poly.variable(n, i)


def B(*comps):
    return Branch(tuple(comps))


def G(*branches):
    return MultiGerm(tuple(branches))


X, Y, Z = V(3, 0), V(3, 1), V(3, 2)


class TestModel:
    def test_branch_rejects_constant_term(self):
        with pytest.raises(ValueError, match="vanish"):
            B(X + 1, Y, Z)

    def test_branch_rejects_mixed_rings(self):
        with pytest.raises(ValueError):
            Branch((X, V(2, 0)))

    def test_multigerm_dimension_range(self):
        with pytest.raises(ValueError, match="n >= p - 1"):
            G(Branch((V(1, 0), V(1, 0) ** 2, V(1, 0) ** 3)))

    def test_atype_sorted_descending(self):
        assert AType((1, 3, 2)).ks == (3, 2, 1)
        assert str(AType((2,))) == "A_2"
        assert str(AType((1, 2))) == "A_{2,1}"


class TestStoredHash:
    # the hash is kept once computed, outside the dataclass fields
    @staticmethod
    def germs():
        parsed = parse_multigerm("{(x,y,z^2);(x,y,z^3+x*z)}")
        built = G(B(X, Y, Z ** 2), B(X, Y, Z ** 3 + X * Z))
        return [parsed, parsed.branches[1], built, built.branches[0]]

    @staticmethod
    def rebuilt(value):
        # an equal value built afresh from copies of its polynomials
        if isinstance(value, Branch):
            return Branch(tuple(Poly(c.nvars, dict(c.items()))
                                for c in value.components))
        return MultiGerm(tuple(TestStoredHash.rebuilt(b)
                               for b in value.branches))

    @pytest.mark.parametrize("i", range(4), ids=["parsed", "parsed-branch",
                                                 "built", "built-branch"])
    def test_the_stored_hash_is_invisible(self, i):
        value = self.germs()[i]
        fresh = self.rebuilt(value)
        before = (repr(value), dataclasses.fields(value),
                  dataclasses.asdict(value))
        h = hash(value)
        assert (repr(value), dataclasses.fields(value),
                dataclasses.asdict(value)) == before
        assert [f.name for f in dataclasses.fields(value)] in (
            ["components"], ["branches"])
        assert "_hash" not in repr(value)
        assert value == fresh and hash(fresh) == h
        assert (repr(fresh), dataclasses.asdict(fresh)) == before[::2]
        for copied in (copy.deepcopy(value),
                       pickle.loads(pickle.dumps(value))):
            assert copied == value and hash(copied) == h
            assert repr(copied) == repr(value)

    def test_a_parsed_germ_hashes_as_one_built_from_its_polynomials(self):
        parsed = parse_multigerm("{(x,y,z^2);(x,y,z^3+x*z)}")
        built = self.rebuilt(parsed)
        assert built is not parsed and built == parsed
        assert hash(built) == hash(parsed)
        assert [hash(b) for b in built.branches] == [
            hash(b) for b in parsed.branches]


class TestCorank:
    def test_fold(self):
        assert corank(B(X, Y, Z * Z)) == 1

    def test_immersion(self):
        x, y = V(2, 0), V(2, 1)
        assert corank(Branch((x, y, Poly.zero(2)))) == 0

    def test_corank_two(self):
        x, y = V(2, 0), V(2, 1)
        assert corank(Branch((x * x, y * y))) == 2


class TestMultiplicity:
    def test_fold(self):
        assert multiplicity(G(B(X, Y, Z * Z))) == 2

    def test_cusp_curve(self):
        t = V(1, 0)
        assert multiplicity(G(Branch((t * t, t ** 3)))) == 2

    def test_bigerm_sum(self):
        g = G(B(X, Y, Z ** 3 + Y * Z), B(X, Y, Z * Z))
        assert multiplicity(g) == 5


class TestRecognizeType:
    def test_cuspidal_edge(self):
        assert recognize_type(G(B(X, Y, Z ** 3 + Y * Z))) == AType((2,))

    def test_immersion_is_a0(self):
        x, y = V(2, 0), V(2, 1)
        g = G(Branch((x, y, Poly.zero(2))))
        assert recognize_type(g) == AType((0,))

    def test_two_folds(self):
        g = G(B(X, Y, Z * Z), B(X, Y, Z * Z + X))
        assert recognize_type(g) == AType((1, 1))

    def test_corank_two_rejected(self):
        x, y = V(2, 0), V(2, 1)
        with pytest.raises(NotCorankOneError):
            recognize_type(G(Branch((x * x, y * y))))

    def test_errors_follow_branch_order(self):
        # (x, y, x z^2) vanishes on the z axis; (x^2, y^2, z) has corank 2:
        # the first branch in order decides which error is raised
        line, corank_two = B(X, Y, X * Z * Z), B(X * X, Y * Y, Z)
        with pytest.raises(ProvedInfiniteError):
            recognize_type(G(line, corank_two))
        with pytest.raises(NotCorankOneError):
            recognize_type(G(corank_two, line))


class TestStratumDim:
    def test_cuspidal_edge_equidimensional(self):
        assert stratum_dim(AType((2,)), 3, 3) == 1

    def test_triple_fold_zero(self):
        assert stratum_dim(AType((1, 1, 1)), 3, 3) == 0

    def test_cross_cap(self):
        assert stratum_dim(AType((1,)), 2, 3) == 0

    def test_immersion_plane(self):
        assert stratum_dim(AType((0,)), 2, 3) == 2

    def test_not_stable_label(self):
        with pytest.raises(NotStableTypeError):
            stratum_dim(AType((1, 1, 1, 1)), 3, 3)
        with pytest.raises(NotStableTypeError):
            stratum_dim(AType((4,)), 3, 3)

    def test_unsupported_dimensions(self):
        with pytest.raises(ValueError):
            stratum_dim(AType((1,)), 3, 5)

    def test_zero_dim_iff_codims_fill_target(self):
        # equidimensional monogerms: stratum dim 0 exactly when k = n
        for n in (2, 3, 4):
            assert stratum_dim(AType((n,)), n, n) == 0
            assert stratum_dim(AType((n - 1,)), n, n) == 1


def _stable_branch(rng, n, k):
    """A stable corank-1 branch of label k in (n, n), random linear terms."""
    z = V(n, n - 1)
    comp = z ** (k + 1)
    for power in range(1, k):
        linear = Poly.zero(n)
        while linear.is_zero():
            linear = sum((Poly.const(n, rng.randint(-3, 3)) * V(n, i)
                          for i in range(n - 1)), Poly.zero(n))
        comp = comp + linear * z ** power
    comps = [V(n, i) for i in range(n - 1)] + [comp]
    return Branch(tuple(comps))


def test_multiplicity_formula_on_randomized_stable_types():
    rng = random.Random(411)
    for _ in range(20):
        n = 3
        r = rng.randint(1, 3)
        ks = [rng.randint(1, 3) for _ in range(r)]
        g = MultiGerm(tuple(_stable_branch(rng, n, k) for k in ks))
        assert multiplicity(g) == sum(ks) + r
        assert recognize_type(g) == AType(tuple(ks))


def _unimodular(rng, size):
    rows = [[1 if i == j else 0 for j in range(size)] for i in range(size)]
    for _ in range(3 * size):
        i, j = rng.sample(range(size), 2)
        c = rng.randint(-2, 2)
        rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
    return rows


def _change_coordinates(g, source, target):
    n = g.n
    assignment = [sum((Poly.const(n, source[i][j]) * V(n, j)
                       for j in range(n)), Poly.zero(n))
                  for i in range(n)]
    branches = []
    for branch in g.branches:
        substituted = [substitute(c, assignment) for c in branch.components]
        mixed = [sum((Poly.const(n, target[i][j]) * substituted[j]
                      for j in range(len(substituted))), Poly.zero(n))
                 for i in range(len(substituted))]
        branches.append(Branch(tuple(mixed)))
    return MultiGerm(tuple(branches))


def test_multiplicity_invariant_under_linear_changes():
    rng = random.Random(902)
    g = MultiGerm((B(X ** 3 + Y * X, Y, Z), B(X, Y * Y + Z ** 3, Z)))
    base = multiplicity(g)
    for _ in range(5):
        source = _unimodular(rng, 3)
        target = _unimodular(rng, 3)
        assert multiplicity(_change_coordinates(g, source, target)) == base
