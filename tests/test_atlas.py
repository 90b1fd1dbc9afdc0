"""Atlas catalog: encoding checksum, instantiation, verification, lookup."""

from __future__ import annotations

import pytest

from germcalc import atlas, syntax
from germcalc.errors import NotStabilizedError
from germcalc.germ import AType, multiplicity, recognize_type
from germcalc.ring import D_MAX, Poly
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
    def test_instance_is_the_canonical_parse_of_the_row_text(self):
        # instantiate puts the plain parse in canonical variable order,
        # which is what parse_multigerm does with the row's text
        rows = 0
        for entry in atlas.entries():
            for params in atlas._parameter_sweep(entry, 8):
                _, args = atlas._normalize_params(entry, params)
                text = entry._text(*args)
                assert atlas.instantiate(entry.name, params) == \
                    syntax.parse_multigerm(text), (entry.name, params)
                rows += 1
        assert rows == 165

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

    @pytest.mark.parametrize("d_max", [D_MAX, 5])
    def test_plain_parse_reports_what_the_canonical_one_does(self, d_max):
        # verify parses each row without the canonical variable order; at
        # d_max 5 two rows fail, so the notes of failed searches compare too
        for entry in atlas.entries():
            for params in atlas._parameter_sweep(entry, 4):
                row = atlas.verify(entry.name, params, d_max)
                try:
                    result = ae_codim(atlas.instantiate(entry.name, params),
                                      d_max)
                except NotStabilizedError as exc:
                    expected = (None, None, None, f"did not stabilize: {exc}")
                else:
                    expected = (result.value, result.degree_used, result.c,
                                "")
                assert (row.computed, row.degree_used, row.c,
                        row.note) == expected, (entry.name, params)

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

    @pytest.mark.parametrize("text", [
        "(x^2,y^2,z^2)", "{(x,y,z^2);(x^2,y^2,z)}"])
    def test_corank_two_matches_nothing_and_computes_nothing(
            self, text, monkeypatch):
        # every catalog row has corank <= 1
        from germcalc import germ as germ_mod, tangent

        def computed(*args):
            raise AssertionError("an invariant was computed")

        monkeypatch.setattr(tangent, "ae_codim", computed)
        monkeypatch.setattr(germ_mod, "recognize_type", computed)
        assert atlas.lookup(P(text)) == atlas.LookupResult((), False)

    def test_exact_lookup_reads_no_catalog_row_invariants(self, monkeypatch):
        # equal match keys imply equal type labels, so only f's own is
        # computed, and no multiplicity at all: the type label fixes it
        from germcalc import germ as germ_mod
        seen = []
        for fn in ("recognize_type", "multiplicity"):
            original = getattr(germ_mod, fn)

            def recording(g, *args, original=original, fn=fn):
                seen.append((fn, g))
                return original(g, *args)

            monkeypatch.setattr(germ_mod, fn, recording)
        for entry in atlas.entries():
            for params in atlas._parameter_sweep(entry, 3):
                f = atlas.instantiate(entry.name, params)
                seen.clear()
                assert atlas.lookup(f).exact
                assert [(fn, g is f) for fn, g in seen] == [
                    ("recognize_type", True)]


# Lookup answers recorded before the match key was tried ahead of the
# catalog rows' invariants; the invariant fallback is checked only here.
# Every catalog row up to parameter 4 matches itself alone and literally,
# except the boundary members that two rows share:
SHARED_ROWS = [("3_muA1-a mu=1", "3_muA1-b mu=1"),
               ("A1A1A1-a k=2", "A1A1A1-b k=1")]
PINNED_LOOKUPS = {
    # A1A2-a at k = 2 and 5_1, linearly moved (the dense benchmark inputs)
    "{(x^3+36*x^2*y+432*x*y^2+1728*y^3+16*x*y+3*x*z+192*y^2+36*y*z+10*y"
    "+2*z,41*y+8*z,2*x^3+72*x^2*y+864*x*y^2+3456*y^3+32*x*y+6*x*z+384*y^2"
    "+72*y*z-16*y-3*z);(x+22*y+2*z,281*y^2+106*y*z+10*z^2+25*y+5*z,"
    "-281*y^2-106*y*z-10*z^2+2*x+24*y)}": (False, ("A1A2-a k=2",)),
    "(32*x^5+80*x^4*y+80*x^4*z+80*x^3*y^2+160*x^3*y*z+80*x^3*z^2"
    "+40*x^2*y^3+120*x^2*y^2*z+120*x^2*y*z^2+40*x^2*z^3+10*x*y^4"
    "+40*x*y^3*z+60*x*y^2*z^2+40*x*y*z^3+10*x*z^4+y^5+5*y^4*z+10*y^3*z^2"
    "+10*y^2*z^3+5*y*z^4+z^5-8*x^3-20*x^2*y-8*x^2*z-14*x*y^2-16*x*y*z"
    "-2*x*z^2-3*y^3-6*y^2*z-3*y*z^2+2*x^2+5*x*y+x*z+2*y^2+2*y*z+3*x+4*y"
    ",96*x^5+240*x^4*y+240*x^4*z+240*x^3*y^2+480*x^3*y*z+240*x^3*z^2"
    "+120*x^2*y^3+360*x^2*y^2*z+360*x^2*y*z^2+120*x^2*z^3+30*x*y^4"
    "+120*x*y^3*z+180*x*y^2*z^2+120*x*y*z^3+30*x*z^4+3*y^5+15*y^4*z"
    "+30*y^3*z^2+30*y^2*z^3+15*y*z^4+3*z^5-24*x^3-60*x^2*y-24*x^2*z"
    "-42*x*y^2-48*x*y*z-6*x*z^2-9*y^3-18*y^2*z-9*y*z^2+6*x^2+15*x*y"
    "+3*x*z+6*y^2+6*y*z-y,-192*x^5-480*x^4*y-480*x^4*z-480*x^3*y^2"
    "-960*x^3*y*z-480*x^3*z^2-240*x^2*y^3-720*x^2*y^2*z-720*x^2*y*z^2"
    "-240*x^2*z^3-60*x*y^4-240*x*y^3*z-360*x*y^2*z^2-240*x*y*z^3"
    "-60*x*z^4-6*y^5-30*y^4*z-60*y^3*z^2-60*y^2*z^3-30*y*z^4-6*z^5"
    "+48*x^3+120*x^2*y+48*x^2*z+84*x*y^2+96*x*y*z+12*x*z^2+18*y^3"
    "+36*y^2*z+18*y*z^2-12*x^2-30*x*y-6*x*z-12*y^2-12*y*z-2*x-y)":
        (False, ("5_1 -",)),
    "(x+y,y,z^5+x*z+y*z^2)": (False, ("5_1 -",)),
    "{(x+y,y,z^2);(x+y,y,z^2+y^2+x^3)}": (False, ("A1A1 h=A2",)),
    "{(x^3+y*x+z^2*x,y,z);(x,y,z^2)}": (False, ("A1A2-a k=1",
                                                "A1A2-b k=1")),
    "(x,y,z^5+x^2*z+y*z^2)": (False, ()),
    # the plane cusp has the type, multiplicity and codimension of 3_mu at
    # P = A0, but not its dimensions
    "(x, y^3+x*y)": (False, ()),
    # A1A3 at k = 2 with the first target component moved by the second:
    # A2A2-b shares its multiplicity and codimension, not its type
    "{(x^4+y*x+z*x^2+y,y,z);(x+y^2+z^2,y^2+z^2,z)}": (False, (
        "A1A3 k=2", "4_1^kA1 k=2")),
}


def _answer(result: atlas.LookupResult) -> tuple[bool, tuple[str, ...]]:
    return result.exact, tuple(f"{name} {atlas._params_text(display)}"
                               for name, display in result.matches)


def test_lookup_answers_are_the_recorded_ones():
    rows = []
    for entry in atlas.entries():
        for params in atlas._parameter_sweep(entry, 4):
            display, _ = atlas._normalize_params(entry, params)
            rows.append((f"{entry.name} {atlas._params_text(display)}",
                         atlas.instantiate(entry.name, params)))
    assert len(rows) == 79
    for label, f in rows:
        group = next((g for g in SHARED_ROWS if label in g), (label,))
        assert _answer(atlas.lookup(f)) == (True, group), label
    for text, answer in PINNED_LOOKUPS.items():
        assert _answer(atlas.lookup(P(text))) == answer, text
