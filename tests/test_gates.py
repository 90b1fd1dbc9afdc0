"""Simplicity gates: one criterion each, sound abstentions everywhere else."""

from __future__ import annotations

from fractions import Fraction

import pytest

from germcalc import gates, syntax, tangent
from germcalc.errors import NotStabilizedError
from germcalc.germ import Branch, MultiGerm
from germcalc.gates import (FLAG_AUG_SIMPLE, FLAG_DZ, FLAG_PRIMITIVITY,
                            FLAG_TRANSVERSALITY, NOT_SIMPLE, SIMPLE, UNKNOWN,
                            PARTNER_CUSPIDAL_EDGE, PARTNER_TWO_IMMERSIONS,
                            ReportAssertions, Verdict, gate_aug_cusp,
                            gate_augconc, gate_branch_count, gate_nishimura,
                            gate_primitive_plus_morse, gate_tau_pairing,
                            nishimura_bound, simplicity_report)
from germcalc.ring import Poly

P = syntax.parse_multigerm
W = Poly.variable(1, 0)

A2A3 = P("{(x,y,z^3+y*z);(x^4+y*x+z*x^2,y,z)}")
PENTAGERM = P("{(x,y,z^2);(x,y,z^2+x);(x,y,z^2+y);(x,y,z^2+x+y);(x,y,z^2+x-y)}")
QUINTUPLE_23 = P("{(x,y,0);(x,0,y);(0,x,y);(x,y,x);(x,y,y)}")
SEXTUPLE_34 = P("{(x,y,z,0);(x,y,0,z);(x,0,y,z);(0,x,y,z);(x,y,z,x);(x,y,z,y)}")


class TestVerdict:
    def test_not_simple_needs_rule(self):
        with pytest.raises(ValueError):
            Verdict(NOT_SIMPLE)

    def test_unknown_needs_reasons(self):
        with pytest.raises(ValueError):
            Verdict(UNKNOWN)

    def test_factories(self):
        v = Verdict.not_simple("rule", lhs=3, rhs=2)
        assert v.kind == NOT_SIMPLE and v.evidence["lhs"] == 3


class TestNishimuraBound:
    def test_values(self):
        assert nishimura_bound(3, 3, 2) == Fraction(13, 2)
        assert nishimura_bound(2, 3, 1) == Fraction(10, 3)
        assert nishimura_bound(3, 3, 5) == Fraction(19, 2)

    def test_exact_rational(self):
        assert isinstance(nishimura_bound(2, 3, 2), Fraction)

    def test_undefined_cases(self):
        with pytest.raises(ValueError):
            nishimura_bound(1, 1, 1)
        with pytest.raises(ValueError):
            nishimura_bound(3, 2, 1)


class TestGateNishimura:
    def test_two_cusp_swallowtail_pair(self):
        v = gate_nishimura(A2A3)
        assert v.kind == NOT_SIMPLE
        assert v.evidence["multiplicity"] == 7
        assert v.evidence["bound"] == Fraction(13, 2)

    def test_cross_cap_abstains(self):
        v = gate_nishimura(P("(x,y^2,y*x)"))
        assert v.kind == UNKNOWN
        assert v.evidence["multiplicity"] == 2

    def test_fold_pentagerm(self):
        v = gate_nishimura(PENTAGERM)
        assert v.kind == NOT_SIMPLE
        assert v.evidence["multiplicity"] == 10

    def test_sextuple_point_34(self):
        v = gate_nishimura(SEXTUPLE_34)
        assert v.kind == NOT_SIMPLE
        assert v.evidence["multiplicity"] == 6
        assert v.evidence["bound"] == Fraction(28, 5)


class TestGateTauPairing:
    def test_swallowtail_with_cuspidal_edge(self):
        v = gate_tau_pairing(A2A3)
        assert v.kind == NOT_SIMPLE
        assert v.evidence["stratum_dims"] == (0, 1)

    def test_zero_stratum_paired_with_a_swallowtail(self):
        # two transverse swallowtails: each has a zero stratum, and its
        # partner, a swallowtail, is neither a fold nor an immersion
        v = gate_tau_pairing(P("{(x,y,z^4+x*z+y*z^2);(z^4+x*z+y*z^2,x,y)}"))
        assert v.kind == NOT_SIMPLE
        assert v.rule == ("zero stratum paired with a branch more degenerate"
                          " than a prism on a Morse function or an immersion")
        assert dict(v.evidence) == {"split": ((0,), (1,)),
                                    "stratum_dims": (0, 0),
                                    "partner_type": "A_3"}

    def test_stable_pair_abstains(self):
        v = gate_tau_pairing(P("{(x,y,z^2);(x,y,z^3+y*z)}"))
        assert v.kind == UNKNOWN

    def test_quintuple_point_23(self):
        v = gate_tau_pairing(QUINTUPLE_23)
        assert v.kind == NOT_SIMPLE

    def test_small_equidimensional_abstains(self):
        # n = p = 2 is excluded from the rule
        g = P("{(x^3+x*y,x);(x,y^2);(x,y^2+x)}")
        assert gate_tau_pairing(g).kind == UNKNOWN


class TestGateBranchCount:
    def test_quadrigerm_with_a2_branch(self):
        g = P("{(x,y,z^3+y*z);(x,y,z^2+x);(x,y,z^2+y);(x,y,z^2+x+y)}")
        v = gate_branch_count(g)
        assert v.kind == NOT_SIMPLE
        assert (v.evidence["branches"], v.evidence["bound"]) == (4, 3)

    def test_four_folds_abstains(self):
        g = P("{(x^2,y,z);(x,y^2,z);(x^2+y+z^2,y,z);(x,y,z^2)}")
        assert gate_branch_count(g).kind == UNKNOWN

    def test_monogerm_abstains(self):
        assert gate_branch_count(P("(x,y,z^5+x*z+y*z^2)")).kind == UNKNOWN


class TestGatePrimitivePlusMorse:
    def test_equidimensional_n3(self):
        g = P("{(x^5+y*x+z*x^2,y,z);(x,y,z^2+y)}")
        v = gate_primitive_plus_morse(g, primitive_flag=True)
        assert v.kind == NOT_SIMPLE
        assert FLAG_PRIMITIVITY in v.unverified

    def test_without_assertion_abstains(self):
        g = P("{(x^5+y*x+z*x^2,y,z);(x,y,z^2+y)}")
        v = gate_primitive_plus_morse(g, primitive_flag=False)
        assert v.kind == UNKNOWN
        assert FLAG_PRIMITIVITY in v.unverified

    def test_n2_below_threshold(self):
        g = P("{(x^4+y*x,y);(x,y^2+x)}")
        assert gate_primitive_plus_morse(g, primitive_flag=True).kind == UNKNOWN

    def test_34_bigerm_below_threshold(self):
        g = P("{(y,z,x^3+y*x,x^4+z*x);(y,y,z,x)}")
        assert gate_primitive_plus_morse(g, primitive_flag=True).kind == UNKNOWN

    def test_a_corank_two_branch_is_skipped_unsearched(self):
        # (x^2, y^2, 0) is not finite, but as a corank-2 branch it is no
        # partner, and (x, y, z^3) is no fold: the rule has nothing to read
        g = P("{(x^2,y^2,0);(x,y,z^3)}")
        v = gate_primitive_plus_morse(g, primitive_flag=True)
        assert v.kind == UNKNOWN
        assert v.unverified == (
            "no fold/immersion partner with a codimension-1 rest",)

    def test_below_threshold_computes_no_codimension(self, monkeypatch):
        # the rule cannot fire at n = 3, p = 4, so the sextuple point's
        # 5-branch codimension, which does not stabilize, is never asked for
        calls = []

        def counting(f, d_max=None):
            calls.append(f)
            raise AssertionError("no codimension expected")

        monkeypatch.setattr(tangent, "ae_codim", counting)
        v = gate_primitive_plus_morse(SEXTUPLE_34, primitive_flag=True)
        assert v.kind == UNKNOWN
        assert v.unverified == (
            "dimensions below the threshold for the immersion partner, "
            "(n, n+1) rule",)
        assert dict(v.evidence) == {"n": 3, "p": 4}
        assert calls == []


class TestGateAugconc:
    def test_codim_one_power(self):
        for k in (2, 3, 4):
            v = gate_augconc(1, W ** k, {FLAG_DZ, FLAG_AUG_SIMPLE})
            assert v.kind == SIMPLE

    def test_codim_two_not_simple(self):
        v = gate_augconc(2, W * W,
                         {FLAG_DZ, FLAG_AUG_SIMPLE, FLAG_TRANSVERSALITY})
        assert v.kind == NOT_SIMPLE

    def test_non_quasi_homogeneous_abstains(self):
        v = gate_augconc(1, W ** 2 + W ** 3, {FLAG_DZ, FLAG_AUG_SIMPLE})
        assert v.kind == UNKNOWN

    def test_missing_flags_abstain(self):
        assert gate_augconc(1, W ** 2, set()).kind == UNKNOWN
        assert gate_augconc(2, W ** 2, set()).kind == UNKNOWN


class TestGateAugCusp:
    def test_quartic_augmentation_fires(self):
        for l in (1, 2, 3):
            g = P(f"(x^4+y*x+z^{l}*x,y,z)")
            v = gate_aug_cusp(g, PARTNER_CUSPIDAL_EDGE)
            assert v.kind == NOT_SIMPLE
            assert v.evidence["bound"] == Fraction(7, 2)

    def test_cubic_augmentation_abstains(self):
        g = P("(x^3+y^2*x+z^2*x,y,z)")
        assert gate_aug_cusp(g, PARTNER_CUSPIDAL_EDGE).kind == UNKNOWN

    def test_n2_fold_augmentation_abstains(self):
        g = P("(x^2+y^3,y)")
        v = gate_aug_cusp(g, PARTNER_CUSPIDAL_EDGE)
        assert v.kind == UNKNOWN
        assert v.evidence["bound"] == Fraction(3, 1)

    def test_immersion_partner_dimensions(self):
        g = P("(x,y^2,y*x)")
        v = gate_aug_cusp(g, PARTNER_TWO_IMMERSIONS)
        assert v.kind == UNKNOWN
        assert v.evidence["bound"] == Fraction(2, 1)


class TestSimplicityReport:
    def test_atlas_simple(self):
        rep = simplicity_report(P("{(x,y,z^2);(x,y,z^2+y^2+x^3)}"))
        assert rep.verdict.kind == SIMPLE
        assert rep.verdict.rule == "atlas match"
        names = [name for name, _ in rep.verdict.evidence["candidates"]]
        assert names == ["A1A1"]

    def test_non_integral_germ_reaches_the_atlas_fallback(self):
        # the match key is rendered in the integral surface syntax, and no
        # catalog instance, all of them integral, equals a germ with a
        # coefficient 1/2 literally: the lookup compares no key and falls
        # back to the invariants
        x, y, z = (Poly.variable(3, i) for i in range(3))
        f = MultiGerm((Branch((x, y, z**4 + y * z**2
                               + Fraction(1, 2) * x * z)),))
        rep = simplicity_report(f)
        assert rep.verdict.kind == UNKNOWN
        assert dict(rep.trace)["atlas"].evidence["candidates"] == (
            ("4_1^k", {"k": 1}),)

    def test_nishimura_not_simple(self):
        rep = simplicity_report(A2A3)
        assert rep.verdict.kind == NOT_SIMPLE
        assert rep.verdict.rule == "multiplicity bound"

    def test_outside_atlas_unknown(self):
        rep = simplicity_report(P("(x,y,z^5+x^2*z+y*z^2)"))
        assert rep.verdict.kind == UNKNOWN
        assert rep.verdict.unverified

    def test_trace_covers_all_gates(self):
        # nothing decides this germ, so every gate runs, the atlas before
        # the primitive rule
        rep = simplicity_report(P("(x,y,z^5+x^2*z+y*z^2)"))
        names = [name for name, _ in rep.trace]
        assert names == ["nishimura", "branch_count", "tau_pairing",
                         "atlas", "primitive_plus_morse"]
        # the Unknown lists the distinct reasons in trace order, the
        # atlas's before the primitive rule's
        rep = simplicity_report(P("{(x,y,0);(x,0,y+x^2)}"))
        assert [name for name, _ in rep.trace] == names
        assert rep.verdict.unverified == (
            "below the multiplicity bound; no conclusion",
            "needs the equidimensional case",
            "no bipartition matches the hypotheses",
            "no atlas entry with these invariants",
            "dimensions below the threshold for the immersion partner, "
            "(n, n+1) rule")
        # after the atlas match, the primitive rule could only abstain
        rep = simplicity_report(P("(x,y,z^2)"))
        names = [name for name, _ in rep.trace]
        assert names == ["nishimura", "branch_count", "tau_pairing", "atlas"]

    def test_asserted_primitivity_runs_after_an_atlas_match(self):
        flags = ReportAssertions(flags=frozenset({FLAG_PRIMITIVITY}))
        rep = simplicity_report(P("(x,y,z^2)"), assertions=flags)
        assert rep.verdict.kind == SIMPLE
        assert [name for name, _ in rep.trace][-2:] == [
            "atlas", "primitive_plus_morse"]
        # the asserted rule can overturn the atlas match (3_mu A1-a, mu = 1,
        # has a codimension-1 part and a fold)
        rep = simplicity_report(P("{(x^3+y^2*x+z^2*x,y,z);(x,y,z^2)}"),
                                assertions=flags)
        assert dict(rep.trace)["atlas"].kind == SIMPLE
        assert rep.verdict.kind == NOT_SIMPLE
        assert rep.trace[-1] == ("primitive_plus_morse", rep.verdict)

    def test_augconc_assertion_path(self):
        rep = simplicity_report(
            P("{(x^4+y*x+z^2*x^2,y,z);(x,y,z^2)}"),
            assertions=ReportAssertions(
                flags=frozenset({FLAG_DZ, FLAG_AUG_SIMPLE}),
                augconc=(1, W ** 2)))
        assert rep.verdict.kind == SIMPLE
        # the atlas lookup cannot refute, so it does not run after a Simple
        assert rep.trace[-1] == ("augconc", rep.verdict)

    def test_augconc_proof_ends_the_report_before_the_primitive_rule(self):
        # both the augconc assertion and the asserted primitive rule prove
        # this germ non-simple; augconc runs first, so its rule is returned
        germ = P("{(x^3+y^2*x+z^2*x,y,z);(x,y,z^2)}")
        flags = frozenset({FLAG_PRIMITIVITY, FLAG_TRANSVERSALITY})
        assert gate_primitive_plus_morse(germ, primitive_flag=True).kind \
            == NOT_SIMPLE
        rep = simplicity_report(germ, assertions=ReportAssertions(
            flags=flags, augconc=(2, W ** 2)))
        assert rep.verdict.kind == NOT_SIMPLE
        assert rep.verdict.rule == (
            "augmentation-and-concatenation of codimension >= 2")
        assert rep.trace[-1] == ("augconc", rep.verdict)

    def test_augconc_flags_need_the_augconc_data(self):
        # without its data the augconc gate does not run, so nothing would
        # read its flags
        with pytest.raises(ValueError, match="flag\\(s\\) dz_condition;"):
            ReportAssertions(flags=frozenset({FLAG_DZ}))
        ReportAssertions(flags=frozenset({FLAG_DZ}), augconc=(1, W ** 2))

    def test_final_kind_order_independent(self):
        # both the multiplicity and the pairing gate fire on this germ, so
        # the kind is NotSimple whichever runs first; the report stops at
        # the first proof
        assert gate_nishimura(A2A3).kind == NOT_SIMPLE
        assert gate_tau_pairing(A2A3).kind == NOT_SIMPLE
        rep = simplicity_report(A2A3)
        assert rep.verdict == gate_nishimura(A2A3)
        assert rep.trace == (("nishimura", rep.verdict),)

    def test_unstabilized_gate_before_a_proof(self, monkeypatch):
        # the first gate fails to stabilize; the branch-count and pairing
        # gates still prove the pentagerm non-simple
        def unstable(f, d_max):
            raise NotStabilizedError("no", d_max=5, history=(3, 4))
        monkeypatch.setattr(gates, "gate_nishimura", unstable)
        rep = simplicity_report(PENTAGERM)
        assert rep.verdict.kind == NOT_SIMPLE
        assert rep.verdict.rule == "branch count bound"
        name, first = rep.trace[0]
        assert name == "nishimura" and first.kind == UNKNOWN
        assert first.unverified == ("did not stabilize by degree 5",)
        assert dict(first.evidence) == {"d_max": 5, "history": (3, 4)}

    def test_unstabilized_gate_without_a_proof(self, monkeypatch):
        # no gate decides (x, y, z^5+x^2*z+y*z^2), so the answer is one
        # that a larger cap could still change
        def unstable(f, d_max, primitive_flag=False):
            raise NotStabilizedError("no", d_max=5, history=(3, 4))
        monkeypatch.setattr(gates, "gate_primitive_plus_morse", unstable)
        with pytest.raises(NotStabilizedError):
            simplicity_report(P("(x,y,z^5+x^2*z+y*z^2)"))

    def test_unstabilized_gate_next_to_an_atlas_match(self, monkeypatch):
        # a gate that fails to stabilize, before the atlas match or (with
        # primitivity asserted) after it, leaves the proven Simple standing
        def unstable(f, d_max, primitive_flag=False):
            raise NotStabilizedError("no", d_max=5, history=(3, 4))
        germ = P("{(x,y,z^2);(x,y,z^2+y^2+x^3)}")
        for name, flags in (("nishimura", frozenset()),
                            ("primitive_plus_morse",
                             frozenset({FLAG_PRIMITIVITY}))):
            with monkeypatch.context() as patch:
                patch.setattr(gates, f"gate_{name}", unstable)
                rep = simplicity_report(
                    germ, assertions=ReportAssertions(flags=flags))
            assert rep.verdict.kind == SIMPLE
            assert rep.verdict.rule == "atlas match"
            entry = dict(rep.trace)[name]
            assert entry.kind == UNKNOWN
            assert entry.unverified == ("did not stabilize by degree 5",)
