"""Constructions: augmentation, concatenations, predicted codimensions."""

from __future__ import annotations

import pytest

from germcalc.germ import AType, Branch, MultiGerm, multiplicity, recognize_type
from germcalc.ops import (Unfolding, augment, binary_concat, generalised_concat,
                          monic_concat, normalized_unfolding,
                          predicted_codim_augconc, sim_aug_concat)
from germcalc.ring import Poly
from germcalc.syntax import parse_multigerm
from germcalc.tangent import ae_codim, is_stable


def V(n, i):
    return Poly.variable(n, i)


def B(*comps):
    return Branch(tuple(comps))


def G(*branches):
    return MultiGerm(tuple(branches))


W = V(1, 0)


def cusp_unfolding():
    # total (x^3 + y^4*x + l*x, y, l): 1-parameter stable unfolding of
    # (x^3 + y^4*x, y)
    x, y, l = V(3, 0), V(3, 1), V(3, 2)
    return Unfolding(G(B(x ** 3 + y ** 4 * x + l * x, y, l)), s=1)


def curve_unfolding():
    # total (t^2, t^3 + l*t, l): stable unfolding of the plane cusp curve
    t, l = V(2, 0), V(2, 1)
    return Unfolding(G(B(t * t, t ** 3 + l * t, l)), s=1)


class TestUnfolding:
    def test_base_recovery(self):
        u = cusp_unfolding()
        x, y = V(2, 0), V(2, 1)
        assert u.base == G(B(x ** 3 + y ** 4 * x, y))

    def test_rejects_non_unfolding(self):
        x, y, l = V(3, 0), V(3, 1), V(3, 2)
        with pytest.raises(ValueError, match="unfolding form"):
            Unfolding(G(B(x, y, l * l)), s=1)

    def test_normalized_from_any_order(self):
        v0, v1, v2 = V(3, 0), V(3, 1), V(3, 2)
        # the parameter is variable index 1; normalization moves it last
        total = G(B(v0 ** 3 + v1 * v0, v2, v1))
        u = normalized_unfolding(total, 1)
        assert u.total == G(B(v0 ** 3 + v2 * v0, v1, v2))
        # parameter with the lowest index
        total2 = G(B(v1 ** 3 + v0 * v1, v2, v0))
        u2 = normalized_unfolding(total2, 1)
        assert u2.total == G(B(v0 ** 3 + v2 * v0, v1, v2))
        a, b = V(2, 0), V(2, 1)
        assert u2.base == G(Branch((a ** 3, b)))

    def test_normalized_rejects_non_variable_component(self):
        x, y, z = V(3, 0), V(3, 1), V(3, 2)
        with pytest.raises(ValueError, match="bare parameter"):
            normalized_unfolding(G(B(x, y, z * z)), 1)


class TestAugment:
    def test_quartic_augmenting_function(self):
        out = augment(cusp_unfolding(), W ** 4)
        x, y, z = V(3, 0), V(3, 1), V(3, 2)
        assert out == G(B(x ** 3 + (y ** 4 + z ** 4) * x, y, z))

    def test_identity_augmentation_recovers_total(self):
        u = cusp_unfolding()
        out = augment(u, W)
        assert out == u.total
        assert is_stable(out)

    def test_curve_family(self):
        for k in (1, 2, 3):
            out = augment(curve_unfolding(), W ** (k + 1))
            t, s = V(2, 0), V(2, 1)
            assert out == G(B(t * t, t ** 3 + s ** (k + 1) * t, s))

    def test_rejects_constant_term(self):
        with pytest.raises(ValueError, match="vanish"):
            augment(cusp_unfolding(), W + 1)

    def test_rejects_unstable_total(self):
        # (x^3+(y^2+l^2)x, y, l) is an unfolding-form germ of codimension 1
        x, y, l = V(3, 0), V(3, 1), V(3, 2)
        bad = Unfolding(G(B(x ** 3 + (y * y + l * l) * x, y, l)), s=1)
        with pytest.raises(ValueError, match="not stable"):
            augment(bad, W ** 2)
        # the explicit escape hatch accepts it
        out = augment(bad, W ** 2, check_stability=False)
        assert out.n == 3


class TestMonicConcat:
    def test_swallowtail_base(self):
        x, y, z = V(3, 0), V(3, 1), V(3, 2)
        u = Unfolding(G(B(x ** 4 + y * x + z * x * x, y, z)), s=1)
        out = monic_concat(u)
        assert out.branches[-1] == B(x, y, z * z)
        assert out.r == u.total.r + 1
        assert ae_codim(out).value == 1

    def test_curve_base_gives_immersion(self):
        out = monic_concat(curve_unfolding())
        t, s = V(2, 0), V(2, 1)
        assert out.branches[-1] == Branch((t, s, Poly.zero(2)))

    def test_added_branch_is_fold_or_immersion(self):
        for u in (cusp_unfolding(), curve_unfolding()):
            out = monic_concat(u)
            added = MultiGerm((out.branches[-1],))
            t = recognize_type(added)
            assert t.ks in ((1,), (0,))
            assert is_stable(added)


class TestBinaryConcat:
    def test_two_plane_cusps(self):
        t, l = V(2, 0), V(2, 1)
        u = Unfolding(G(B(t ** 3 + l * t, l)), s=1)
        out = binary_concat(u, u)
        assert out.r == 2 and (out.n, out.p) == (3, 3)
        # parameter u shared: second component of both branches is the last var
        for branch in out.branches:
            assert branch.components[1] == V(3, 2)
        # invariant match with the generic two-cusp normal form
        x, y, z = V(3, 0), V(3, 1), V(3, 2)
        reference = G(B(x ** 3 + y * x, y, z), B(x, y, z ** 3 + y * z))
        assert multiplicity(out) == multiplicity(reference) == 6
        assert recognize_type(out) == recognize_type(reference) == AType((2, 2))
        assert ae_codim(out).value == ae_codim(reference).value == 1

    def test_dimension_bookkeeping(self):
        t, l = V(2, 0), V(2, 1)
        u = Unfolding(G(B(t ** 3 + l * t, l)), s=1)          # (1,1) base
        v = Unfolding(G(B(t * t, t ** 3 + l * t, l)), s=1)   # (1,2) base
        with pytest.raises(ValueError, match="bookkeeping"):
            binary_concat(u, v)


def swallowtail_unfolding():
    x, y, z = V(3, 0), V(3, 1), V(3, 2)
    return Unfolding(G(B(x ** 4 + y * x + z * x * x, y, z)), s=1)


def plane_cusp_unfolding():
    # total (x^3 + l*x, l): n = p = 2, so the Morse gbar is t^2
    x, l = V(2, 0), V(2, 1)
    return Unfolding(G(B(x ** 3 + l * x, l)), s=1)


def fold_pair_unfolding():
    x, y, l = V(3, 0), V(3, 1), V(3, 2)
    return Unfolding(G(B(x * x, y, l), B(x * x + y ** 3 + l, y, l)), s=1)


def surface_unfolding():
    # total (x^2 + y^2 + l*x, l): n = p + 1, which no engine certifies,
    # so it is built unchecked
    x, y, l = V(3, 0), V(3, 1), V(3, 2)
    return Unfolding(G(B(x * x + y * y + l * x, l)), s=1)


class TestGeneralisedConcat:
    # the Morse gbar in n - p + 1 variables; with n = p - 1 it is the point
    # K^0 -> K^1, stable, and the adjoined branch is the immersion
    @pytest.mark.parametrize("unfolding, gbar, checked", [
        (swallowtail_unfolding, "(w^2)", True), (curve_unfolding, "(0)", True),
        (plane_cusp_unfolding, "(t^2)", True),
        (fold_pair_unfolding, "(w^2)", True),
        (surface_unfolding, "(a^2+b^2)", False),
    ], ids=["swallowtail", "curve", "plane-cusp", "fold-pair", "surface"])
    def test_monic_is_generalised_with_a_morse_gbar(self, unfolding, gbar,
                                                    checked):
        u = unfolding()
        assert monic_concat(u, check_stability=checked) == \
            generalised_concat(u, parse_multigerm(gbar),
                               check_stability=checked)

    def test_cusp_block_assembly(self):
        # two-parameter unfolding total (x^3+y^2x+z^3x, y, z) is not stable:
        # assemble with the explicit escape hatch, adjoining the plane cusp
        x, y, z = V(3, 0), V(3, 1), V(3, 2)
        total = G(B(x ** 3 + (y * y + z ** 3) * x, y, z))
        u = Unfolding(total, s=2)
        a, b = V(2, 0), V(2, 1)
        gbar = MultiGerm((Branch((a, b ** 3 + a * b)),))
        out = generalised_concat(u, gbar, check_stability=False)
        assert out.branches[-1] == B(x, y, z ** 3 + y * z)
        assert ae_codim(out).value == 4  # mu + 2 at mu = 2

    def test_dimension_mismatch(self):
        x, y, z = V(3, 0), V(3, 1), V(3, 2)
        u = Unfolding(G(B(x ** 4 + y * x + z * x * x, y, z)), s=1)
        with pytest.raises(ValueError, match="mismatch"):
            generalised_concat(u, MultiGerm((Branch((V(2, 0), V(2, 1))),)))


class TestSimAugConcat:
    def test_fold_pair_trigerm(self):
        # base {(x^2, y); (x^2+y^3, y)} with the parameter added to the
        # second branch's first component
        x, y, l = V(3, 0), V(3, 1), V(3, 2)
        total = G(B(x * x, y, l), B(x * x + y ** 3 + l, y, l))
        u = Unfolding(total, s=1)
        out = sim_aug_concat(u, W * W)
        x3, y3, z3 = V(3, 0), V(3, 1), V(3, 2)
        assert out == G(B(x3 * x3, y3, z3),
                        B(x3 * x3 + y3 ** 3 + z3 * z3, y3, z3),
                        B(x3, y3, z3 * z3))
        assert ae_codim(out).value == 4
        assert predicted_codim_augconc(2, 1) == 4

    def test_curve_family_bigerms(self):
        for k in (1, 2, 3):
            out = sim_aug_concat(curve_unfolding(), W ** (k + 1))
            t, s = V(2, 0), V(2, 1)
            assert out == G(B(t * t, t ** 3 + s ** (k + 1) * t, s),
                            Branch((t, s, Poly.zero(2))))
            assert ae_codim(out).value == predicted_codim_augconc(1, k)

    def test_trivial_phi_reduces_to_monic_concatenation(self):
        # phi = z has tau = 0: the augmentation collapses to the unfolding
        # total and the output is exactly the monic concatenation, of
        # codimension cod(base) * 1
        u = curve_unfolding()
        out = sim_aug_concat(u, W)
        assert out == monic_concat(u)
        assert ae_codim(out).value == predicted_codim_augconc(
            ae_codim(u.base).value, 0) == 1

    def test_rejects_multivariable_phi(self):
        with pytest.raises(ValueError, match="one-variable"):
            sim_aug_concat(curve_unfolding(), V(2, 0) + V(2, 1))


class TestPredictedCodim:
    @pytest.mark.parametrize("cod_f,tau,expected", [
        (1, 1, 2), (1, 2, 3), (1, 3, 4),   # phi = z^k has tau = k - 1
        (2, 1, 4),
        (0, 5, 0),
    ])
    def test_values(self, cod_f, tau, expected):
        assert predicted_codim_augconc(cod_f, tau) == expected

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            predicted_codim_augconc(-1, 0)
