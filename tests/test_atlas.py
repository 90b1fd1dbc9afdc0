"""Atlas catalog: encoding checksum, instantiation, verification, lookup."""

from __future__ import annotations

import pytest

from germcalc import atlas, syntax
from germcalc.germ import AType, multiplicity, recognize_type
from germcalc.ring import Poly
from germcalc.tangent import ae_codim

P = syntax.parse_multigerm


class TestCatalog:
    def test_checksum(self):
        rows = atlas.entries()
        assert len(rows) == 26
        assert sum(1 for e in rows if e.kind == "monogerm") == 6
        assert sum(1 for e in rows if e.kind == "multigerm") == 20
        assert len({e.name for e in rows}) == 26

    def test_expected_families_present(self):
        by_name = {e.name: e for e in atlas.entries()}
        assert by_name["4_1^k"].codim_formula == "k-1"
        assert [by_name[f"A2A2-{s}"].codim_formula for s in "abcd"] == \
            ["1", "2", "3", "4"]
        assert by_name["A1A1A1A1"].codim_formula == "k"

    def test_export_document(self):
        doc = atlas.export_document()
        assert doc["format"] == "germcalc-atlas"
        assert len(doc["entries"]) == 26
        entry = next(e for e in doc["entries"] if e["name"] == "A1A2-a")
        assert entry["template"] == "{(x^3+y*x,y,z);(x,y^2+z^k,z)}"
        assert entry["codim_formula"] == "k-1"

    def test_recognized_types_match_table_labels(self):
        labels = {
            "A1": (1,), "3_mu": (2,), "4_1^k": (3,), "4_2^k": (3,),
            "5_1": (4,), "5_2": (4,),
            "A1A1": (1, 1), "A1A2-a": (2, 1), "A1A2-b": (2, 1),
            "A1A3": (3, 1),
            "A2A2-a": (2, 2), "A2A2-b": (2, 2), "A2A2-c": (2, 2),
            "A2A2-d": (2, 2),
            "3_muA1-a": (2, 1), "3_muA1-b": (2, 1), "4_1^kA1": (3, 1),
            "3_muA2": (2, 2),
            "A1A1A1-a": (1, 1, 1), "A1A1A1-b": (1, 1, 1),
            "A1A1A1-c": (1, 1, 1), "A1A1A1-d": (1, 1, 1),
            "A1A1A2-a": (2, 1, 1), "A1A1A2-b": (2, 1, 1),
            "3_muA1A1": (2, 1, 1),
            "A1A1A1A1": (1, 1, 1, 1),
        }
        for entry in atlas.entries():
            for params in atlas._parameter_sweep(entry, 2):
                g = atlas.instantiate(entry.name, params)
                assert recognize_type(g) == AType(labels[entry.name]), \
                    f"{entry.name} {params}"


class TestInstantiate:
    def test_fold_and_cusp(self):
        g = atlas.instantiate("A1A2-a", {"k": 2})
        assert g == P("{(x^3+y*x,y,z);(x,y^2+z^2,z)}")

    def test_cubic_family_with_function(self):
        x, y = Poly.variable(2, 0), Poly.variable(2, 1)
        g = atlas.instantiate("3_mu", {"P": y * y + x * x})
        assert g == P("(x,y,z^3+x^2*z+y^2*z)")

    def test_two_folds_with_contact(self):
        g = atlas.instantiate("A1A1", {"h": ("A", 2)})
        assert g == P("{(x,y,z^2);(x,y,z^2+x^2+y^3)}")

    def test_two_folds_with_explicit_polynomial(self):
        x, y = Poly.variable(2, 0), Poly.variable(2, 1)
        g = atlas.instantiate("A1A1", {"h": y * y + x ** 3})
        assert g == P("{(x,y,z^2);(x,y,z^2+y^2+x^3)}")

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown atlas entry"):
            atlas.instantiate("A9A9")

    def test_out_of_range_parameter(self):
        with pytest.raises(ValueError, match=">= 2"):
            atlas.instantiate("4_2^k", {"k": 1})
        with pytest.raises(ValueError, match="needs parameter"):
            atlas.instantiate("A1A2-a", {})

    def test_simple_function_series(self):
        assert atlas.simple_function("A", 0) == Poly.variable(2, 1)
        with pytest.raises(ValueError):
            atlas.simple_function("D", 3)
        with pytest.raises(ValueError):
            atlas.simple_function("E", 9)
        assert atlas.simple_functions_up_to(4) == \
            [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("D", 4)]


class TestVerify:
    def test_first_quintic(self):
        row = atlas.verify("5_1")
        assert (row.computed, row.expected, row.match) == (1, 1, True)

    def test_deepest_two_cusp_contact(self):
        row = atlas.verify("A2A2-d")
        assert (row.computed, row.expected, row.match) == (4, 4, True)

    def test_stable_triple_point(self):
        row = atlas.verify("A1A1A1-a", {"k": 1})
        assert (row.computed, row.expected, row.match) == (0, 0, True)

    def test_not_stabilized_reported_as_mismatch(self):
        # 4_2^6 is certified only at degree 11
        row = atlas.verify("4_2^k", {"k": 6}, 10)
        assert row.match is False and row.computed is None
        assert "stabilize" in row.note

    def test_verify_all_smallest_scale(self):
        report = atlas.verify_all(1)
        assert report.rows
        assert report.all_match
        names = [row.name for row in report.rows]
        # rows starting above the cap are absent at cap 1
        assert "4_2^k" not in names and "3_muA1A1" not in names

    def test_report_serialization(self):
        report = atlas.verify_all(1)
        data = report.as_dict()
        assert data["all_match"] is True
        assert all(set(r) >= {"name", "computed", "expected", "match"}
                   for r in data["rows"])


class TestStabilizationEnvelope:
    def test_default_window_covers_parameters_up_to_four(self):
        # the default cap (16) certifies every catalog row at
        # parameters <= 4
        report = atlas.verify_all(4)
        assert report.all_match and len(report.rows) == 79

    def test_every_catalog_row_through_cap_eight_is_certified(self):
        # the stair rows 4_2^k (k >= 6) and A1A3 (k >= 7) included, which a
        # plateau rule under-reported
        report = atlas.verify_all(8)
        assert len(report.rows) == 165
        assert all(row.match for row in report.rows), \
            [row for row in report.rows if not row.match]

    def test_known_false_plateau_beyond_the_envelope(self):
        # the second quartic family climbs in steps with internal plateaus
        # of length 2: at k = 6 the values sit at 5 on degrees 9 and 10, and
        # the certificate rejects that plateau; it passes at degree 11 with
        # the table value
        g = atlas.instantiate("4_2^k", {"k": 6})
        result = ae_codim(g)
        assert (result.value, result.degree_used) == (6, 11)
        assert result.curve[-3:] == (5, 5, 6)
        assert atlas.verify("4_2^k", {"k": 6}).match

    def test_stair_row_fails_honestly_below_its_certified_degree(self):
        # 4_2^8 is certified at degree 15 under the default cap; a cap of 14
        # raises instead of reporting a too-small value
        from germcalc.errors import NotStabilizedError
        g = atlas.instantiate("4_2^k", {"k": 8})
        result = ae_codim(g)
        assert (result.value, result.degree_used) == (8, 15)
        with pytest.raises(NotStabilizedError) as info:
            ae_codim(g, 14)
        assert info.value.d_max == 14 and info.value.history[-1] == 7


class TestMu1Erratum:
    def test_printed_mu1_trigerm_recomputes_to_four(self):
        # the mu = 1 instantiation of the 3_muA1A1 template: the published
        # formula mu + 2 would give 3, but exact recomputation gives 4,
        # matching the mu = 2 member invariant for invariant
        g = P("{(x^3+y^2*x+z^2*x,y,z);(x,y,z^2);(x,y,z^2+y)}")
        assert ae_codim(g).value == 4
        g2 = atlas.instantiate("3_muA1A1", {"mu": 2})
        assert recognize_type(g) == recognize_type(g2) == AType((2, 1, 1))
        assert multiplicity(g) == multiplicity(g2) == 7
        assert ae_codim(g2).value == 4

    def test_entry_starts_at_mu_two(self):
        entry = next(e for e in atlas.entries() if e.name == "3_muA1A1")
        assert entry.param_min == 2
        assert "mu = 1" in entry.note


class TestLookup:
    def test_two_folds_with_contact(self):
        res = atlas.lookup(P("{(x,y,z^2);(x,y,z^2+y^2+x^3)}"))
        assert res.exact
        assert res.matches == (("A1A1", {"h": ("A", 2)}),)

    def test_stable_fold(self):
        res = atlas.lookup(P("(x,y,z^2)"))
        assert res.exact and res.matches == (("A1", {}),)

    def test_fold_cusp_second_family(self):
        res = atlas.lookup(P("{(x^3+y*x,y,z);(x^2+z^2,y,z)}"))
        assert res.exact
        assert res.matches == (("A1A2-b", {"k": 2}),)

    def test_ambiguous_invariants_fall_back_to_candidates(self):
        # an off-atlas germ sharing (n,p,r,type,m0,codim) with table rows
        g = P("{(x^3+y*x+z^2*x,y,z);(x,y,z^2)}")
        res = atlas.lookup(g)
        if not res.exact:
            names = {name for name, _ in res.matches}
            assert names  # candidates reported rather than a forced answer

    def test_round_trip_identification(self):
        for entry in atlas.entries():
            for params in atlas._parameter_sweep(entry, 2):
                inst = atlas.instantiate(entry.name, params)
                res = atlas.lookup(inst)
                display, _ = atlas._normalize_params(entry, params)
                assert (entry.name, display) in res.matches, \
                    f"{entry.name} {params} not identified"
                assert res.exact
