"""Surface syntax, canonical printing, and the command-line front end."""

from __future__ import annotations

import io
import itertools
import json
import os
import subprocess
import sys
import threading

import pytest

from germcalc import atlas, cli, gates, germ as germ_mod, ring, syntax, tangent
from germcalc.errors import GermSyntaxError, NotStabilizedError
from germcalc.ring import Poly


class TestParse:
    def test_bigerm(self):
        f = syntax.parse_multigerm("{(x^3+y*x, y, z); (x, y^2+z^3, z)}")
        assert (f.n, f.p, f.r) == (3, 3, 2)

    def test_single_branch_without_braces(self):
        f = syntax.parse_multigerm("(x, y, z^2)")
        assert (f.n, f.p, f.r) == (3, 3, 1)

    def test_branch_arity_mismatch(self):
        with pytest.raises(GermSyntaxError, match="arity"):
            syntax.parse_multigerm("{(x,y); (x,y,z)}")

    def test_nonzero_constant_term(self):
        with pytest.raises(GermSyntaxError, match="constant"):
            syntax.parse_multigerm("(x+1, y)")

    def test_syntax_error_position(self):
        with pytest.raises(GermSyntaxError):
            syntax.parse_multigerm("(x, y^, z)")
        with pytest.raises(GermSyntaxError):
            syntax.parse_multigerm("(x, y z)")

    def test_integer_coefficients_and_signs(self):
        f = syntax.parse_multigerm("(2*x-3*y^2, -x+y)")
        comps = f.branches[0].components
        assert not comps[0].is_zero() and not comps[1].is_zero()

    def test_leading_minus(self):
        f = syntax.parse_multigerm("(-x+y^2, y)", canonical=False)
        assert f.branches[0].components[0].coefficient((1, 0)) == -1

    def test_source_dim_override(self):
        f = syntax.parse_multigerm("(x, y, 0)", source_dim=2)
        assert f.n == 2
        with pytest.raises(GermSyntaxError, match="source-dim"):
            syntax.parse_multigerm("(x, y, z^2)", source_dim=2)

    def test_variable_count_sets_dimension(self):
        f = syntax.parse_multigerm("(t^2, t^3)")
        assert (f.n, f.p) == (1, 2)


class TestFormat:
    def test_fold(self):
        f = syntax.parse_multigerm("(x, y, z^2)")
        assert syntax.format_multigerm(f) == "(x, y, z^2)"

    def test_minus_one_coefficient(self):
        f = syntax.parse_multigerm("(y^2-x, y)")
        text = syntax.format_multigerm(f)
        assert "+-" not in text and "1*" not in text

    def test_rational_coefficients_rejected(self):
        from fractions import Fraction
        from germcalc.germ import Branch, MultiGerm
        p = Poly(1, {(1,): Fraction(1, 2)})
        with pytest.raises(ValueError, match="integral"):
            syntax.format_multigerm(MultiGerm((Branch((p,)),)))

    def test_round_trip_on_atlas_corpus(self):
        for entry in atlas.entries():
            for params in atlas._parameter_sweep(entry, 3):
                f = atlas.instantiate(entry.name, params)
                text = syntax.format_multigerm(f)
                again = syntax.parse_multigerm(text)
                assert again == f, f"{entry.name} {params}"
                assert syntax.format_multigerm(again) == text

    def test_round_trip_on_parser_output(self):
        texts = [
            "(x^4+y*x+z*x^2, y, z)",     # print order differs from input
            "{(y^2, x); (x, y^2+x)}",
            "(x^2-2*x*y+y^2, x+y)",
        ]
        for text in texts:
            f = syntax.parse_multigerm(text)
            assert syntax.parse_multigerm(syntax.format_multigerm(f)) == f

    def test_more_than_six_variables_refused(self):
        # the canonical order is defined up to 6 variables; above that the
        # round trip would rename x7 to x2, so it fails loudly instead
        text = "(x1^2+x7, x2, x3, x4, x5, x6, x1*x7)"
        with pytest.raises(ValueError, match="at most 6 variables"):
            syntax.parse_multigerm(text)
        f = syntax.parse_multigerm(text, canonical=False)
        with pytest.raises(ValueError, match="at most 6 variables"):
            syntax.format_multigerm(f)
        with pytest.raises(ValueError, match="at most 6 variables"):
            syntax.canonical_match_key(f)


def brute_force_key(f):
    """The least rendering over every target order, branch order and
    variable order: p! * r! * n! texts, each component rendered once."""
    names = syntax.variable_names(f.n)
    rendered = {
        (b, i, perm): syntax.render_poly(c.remap_variables(f.n, perm), names)
        for perm in itertools.permutations(range(f.n))
        for b, branch in enumerate(f.branches)
        for i, c in enumerate(branch.components)}
    best = None
    for order in itertools.permutations(range(f.p)):
        for branches in itertools.permutations(range(f.r)):
            for perm in itertools.permutations(range(f.n)):
                texts = ["(" + ", ".join(rendered[(b, i, perm)] for i in order)
                         + ")" for b in branches]
                text = texts[0] if f.r == 1 else "{" + "; ".join(texts) + "}"
                if best is None or text < best:
                    best = text
    return best


def _reindexed(f, perm):
    from germcalc.germ import Branch, MultiGerm
    return MultiGerm(tuple(
        Branch(tuple(c.remap_variables(f.n, perm) for c in b.components))
        for b in f.branches))


def brute_force_order(f):
    """The least rendering over every variable order, by rendering all n!
    reindexings in full, and the reindexed germ that gives it."""
    names = syntax.variable_names(f.n)
    best = None
    for perm in itertools.permutations(range(f.n)):
        g = _reindexed(f, perm)
        texts = ["(" + ", ".join(syntax.render_poly(c, names)
                                 for c in b.components) + ")"
                 for b in g.branches]
        text = texts[0] if g.r == 1 else "{" + "; ".join(texts) + "}"
        if best is None or text < best[0]:
            best = (text, g)
    return best


class TestCanonicalKeys:
    GERMS = [
        "{(x,y,z^2);(x,y,z^2+x);(x,y,z^2+y);(x,y,z^2+x+y);(x,y,z^2+x-y)}",
        "{(x,y,z,0);(x,y,0,z);(x,0,y,z);(0,x,y,z);(x,y,z,x);(x,y,z,y)}",
    ]

    def corpus(self):
        for entry in atlas.entries():
            for params in atlas._parameter_sweep(entry, 3):
                yield atlas.instantiate(entry.name, params)
        for text in self.GERMS:
            yield syntax.parse_multigerm(text)

    def test_keys_match_the_brute_force_minimum(self):
        checked = 0
        for f in self.corpus():
            assert syntax.canonical_match_key(f) == brute_force_key(f)
            checked += 1
        assert checked == 61

    def test_variable_order_matches_the_brute_force_minimum(self):
        checked = 0
        for f in self.corpus():
            # the corpus is printed in canonical order; reversing and
            # rotating the variables makes the search find it again
            n = f.n
            for perm in (range(n), range(n - 1, -1, -1), [*range(1, n), 0]):
                g = _reindexed(f, tuple(perm))
                text, least = brute_force_order(g)
                assert syntax.canonical_variable_order(g) == least
                assert syntax.format_multigerm(g) == text
            checked += 1
        assert checked == 61

    def test_the_separator_takes_part_in_every_comparison(self):
        # "x" < "x*y^3+...", but "x, " > "x*y^3+..., ": the least key puts
        # the longer component first, while the printed order keeps x first
        f = syntax.parse_multigerm("(x, y, y^3*z+x^2*z+z^3)")
        assert syntax.canonical_match_key(f) == "(x*y^3+x^3+x*z^2, y, z)"
        assert syntax.format_multigerm(f) == "(x, y, y^3*z+x^2*z+z^3)"

    def test_only_targets_equal_in_every_branch_are_interchangeable(self):
        # the two targets of the first germ, and targets 0 and 1 of the
        # second, are equal in the first branch only, so their order
        # still matters; the third germ repeats a branch and a target
        cases = [("{(0, 0); (x, 0)}", "{(0, 0); (0, x)}"),
                 ("{(x, x, y^2); (y, x^2, x)}", "{(x, x, y^2); (x^2, y, x)}"),
                 ("{(x, y^2, y^2); (x, y^2, y^2); (y, x^2, x^2)}",
                  "{(x, y^2, y^2); (x, y^2, y^2); (y, x^2, x^2)}")]
        for text, key in cases:
            f = syntax.parse_multigerm(text, canonical=False)
            assert syntax.canonical_match_key(f) == key == brute_force_key(f)

    def test_six_variables_and_six_targets(self):
        # the key that a full enumeration of 720 * 720 renderings per
        # branch arrangement gives
        f = syntax.parse_multigerm(
            "{(x^2+y*z*w*u*v, y, z, w, u, v); (x, y^2+x*z, z, w, u, v)}",
            canonical=False)
        assert syntax.canonical_match_key(f) == (
            "{(u, v, w, x*u+y^2, x, z); (u, v, w, y, y*z*w*u*v+x^2, z)}")

    def test_a_non_integral_coefficient_is_refused(self):
        # the first two components settle the order and the third is
        # fixed, but its coefficient 1/2 still has no surface syntax
        from fractions import Fraction
        from germcalc.germ import Branch, MultiGerm
        f = MultiGerm((Branch((Poly(3, {(1, 0, 0): 1}), Poly(3, {(0, 1, 0): 1}),
                               Poly(3, {(0, 0, 2): 1, (1, 1, 0): Fraction(1, 2)}))),))
        for fn in (syntax.canonical_variable_order, syntax.format_multigerm,
                   syntax.canonical_match_key):
            with pytest.raises(ValueError, match="cannot print coefficient 1/2"):
                fn(f)


from hypothesis import given, settings, strategies as st  # noqa: E402


@st.composite
def _random_germs(draw, max_n=3, max_r=2):
    from germcalc.germ import Branch, MultiGerm
    n = draw(st.integers(1, max_n))
    p = draw(st.integers(1, min(3, n + 1)))
    r = draw(st.integers(1, max_r))
    branches = []
    for _ in range(r):
        comps = []
        for _ in range(p):
            terms = {}
            for _ in range(draw(st.integers(0, 3))):
                mono = tuple(draw(st.integers(0, 2)) for _ in range(n))
                if sum(mono) == 0:
                    continue
                terms[mono] = draw(st.integers(-3, 3))
            comps.append(Poly(n, terms))
        branches.append(Branch(tuple(comps)))
    return MultiGerm(tuple(branches))


@settings(max_examples=60, deadline=None)
@given(_random_germs())
def test_parse_format_fixes_canonical_form(g):
    # for arbitrary germs, parse(format(f)) is the canonical variable
    # reindexing of f, and printing is a fixed point from then on; the
    # source-dim override covers variables that appear in no component
    canonical = syntax.canonical_variable_order(g)
    text = syntax.format_multigerm(g)
    reparsed = syntax.parse_multigerm(text, source_dim=g.n)
    assert reparsed == canonical
    assert syntax.format_multigerm(reparsed) == text


@settings(max_examples=80, deadline=None)
@given(_random_germs(max_n=4, max_r=3))
def test_searches_match_the_brute_force_minimum(g):
    # coefficients in -3..3 over up to 9 components repeat and change sign
    text, least = brute_force_order(g)
    assert syntax.canonical_variable_order(g) == least
    assert syntax.format_multigerm(g) == text
    assert syntax.canonical_match_key(g) == brute_force_key(g)


class TestParsePoly:
    def test_by_appearance(self):
        p = syntax.parse_poly("z^4")
        assert p == Poly.variable(1, 0) ** 4

    def test_named_resolution(self):
        p = syntax.parse_poly("y^2+x^3", names=("x", "y"))
        assert p.coefficient((0, 2)) == 1 and p.coefficient((3, 0)) == 1

    def test_named_rejects_unknown(self):
        with pytest.raises(GermSyntaxError, match="unknown variable"):
            syntax.parse_poly("t^2", names=("x", "y"))


class TestInterning:
    def test_one_text_gives_one_object(self):
        text = "{(x,y,z^2);(x,y,z^2+x)}"
        assert syntax.parse_multigerm(text) is syntax.parse_multigerm(text)
        assert cli._read(text, None, None) is cli._read(text, None, None)

    def test_spellings_of_one_germ_give_one_object(self):
        # whitespace, term order and variable names
        spellings = [" ( x , y , z^3 + x*z ) ", "(x,y,x*z+z^3)",
                     "(a,b,c^3+a*c)"]
        parsed = {id(syntax.parse_multigerm(t)) for t in spellings}
        read = {id(cli._read(t, None, None)[0]) for t in spellings}
        assert len(parsed) == 1 and read == parsed
        # so is a branch that two germs share
        two = syntax.parse_multigerm("{(x,y,z^2);(x,y,z^2+x)}")
        one = syntax.parse_multigerm("(a, b, c^2)")
        assert two.branches[0] is one.branches[0]

    def test_the_canonical_flag_and_the_source_dim_share_no_entry(self):
        # the first-appearance order of this text is not the canonical one
        text = "(y+x^2, x, z)"
        canonical = syntax.parse_multigerm(text)
        plain = syntax.parse_multigerm(text, canonical=False)
        assert canonical != plain
        assert syntax.parse_multigerm(text) is canonical
        assert syntax.parse_multigerm(text, canonical=False) is plain
        text = "(x, y^2)"
        two, three = (cli._read(text, n, None)[0] for n in (2, 3))
        assert (two.n, three.n) == (2, 3)
        assert cli._read(text, 2, None)[0] is two
        assert syntax.parse_multigerm(text, source_dim=3) is three

    def test_a_syntax_error_is_raised_afresh(self):
        raised = []
        for _ in range(2):
            with pytest.raises(GermSyntaxError) as error:
                cli._read("(x, y^, z)", None, None)
            raised.append(error.value)
        first, second = raised
        assert first is not second
        assert (str(first), first.position) == (str(second), second.position)
        assert first.position == 6

    def test_the_tables_stay_within_their_bound(self):
        texts = [f"(x, y, z^2+{k}*x)" for k in range(1, 1101)]
        first = cli._read(texts[0], None, None)[0]
        for text in texts:
            cli._read(text, None, None)
        for table in (cli._read, germ_mod._interned):
            info = table.cache_info()
            assert info.currsize <= info.maxsize == 1024
        # the first germ has left both tables: it is read again, equal
        again = cli._read(texts[0], None, None)[0]
        assert again == first and again is not first

    def test_threads_print_what_one_thread_prints(self, monkeypatch):
        # four threads run eval and gate on the same three germs from cold
        # tables: each prints byte for byte what a sequential run prints
        texts = ["{(x,y,z^2);(x,y,z^2+x);(x,y,z^2+y);(x,y,z^2+x+y);"
                 "(x,y,z^2+x-y)}",
                 "(x,y,z^5+x*z+y*z^2)",
                 "(x, y, z^5+5*x*z^4+10*x^2*z^3+10*x^3*z^2+5*x^4*z+x^5+x*z"
                 "+x^2+y*z^2+2*x*y*z+x^2*y)"]
        local = threading.local()

        class PerThread:
            def write(self, text):
                return local.out.write(text)

            def flush(self):
                pass

        monkeypatch.setattr(sys, "stdout", PerThread())

        def clear_tables():
            for name, module in list(sys.modules.items()):
                if name == "germcalc" or name.startswith("germcalc."):
                    for fn in vars(module).values():
                        if hasattr(fn, "cache_clear"):
                            fn.cache_clear()

        def run_all(got, shift=0):
            for text in texts[shift:] + texts[:shift]:
                for command in ("eval", "gate"):
                    local.out = io.StringIO()
                    code = cli.run([command, "--germ", text, "--json"])
                    got[text, command] = (code, local.out.getvalue())

        clear_tables()
        expected = {}
        run_all(expected)
        assert all(code == 0 and out for code, out in expected.values())
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(3):
                clear_tables()
                start, got = threading.Barrier(4), [{} for _ in range(4)]

                def worker(i):
                    start.wait(timeout=30)
                    run_all(got[i], i % len(texts))

                threads = [threading.Thread(target=worker, args=(i,))
                           for i in range(4)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=120)
                    assert not thread.is_alive()
                assert got == [expected] * 4
        finally:
            sys.setswitchinterval(interval)

FOUR_2_6 = "(x, y, x^6*z+z^4+x*z^2+y^2*z)"  # 4_2^k at k = 6


class TestRun:
    def test_eval_json(self, capsys):
        code = cli.run(["eval", "--germ", "(x,y,z^5+x*z+y*z^2)", "--json"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["invariants"]["aecod"] == 1
        assert out["invariants"]["m0"] == 5
        assert out["invariants"]["atype"] == [4]
        assert out["invariants"]["wilson"] == "consistent"
        assert out["degrees_used"]["aecod"] >= 1
        assert out["curves"]["aecod"][-1] == out["invariants"]["aecod"]

    def test_runs_in_one_process_print_what_fresh_processes_print(self, capsys):
        # the parser is built once per process: no run's subcommand or
        # flags may carry over into the next
        fold = "(x, y, z^3+x*z)"
        failing = "(x,y,x*z^2)"
        runs = [["eval", "--germ", fold, "--json"],
                ["eval", "--germ", fold],
                ["gate", "--germ", fold, "--json"],
                ["atlas", "lookup", "--germ", "{(z^2+y,x,y);(z^2,x,y)}"],
                ["eval", "--germ", failing, "--max-degree", "8"],
                ["eval", "--germ", failing]]
        for argv in runs:
            code = cli.run(argv)
            out, err = capsys.readouterr()
            fresh = _python("-m", "germcalc.cli", *argv)
            assert (code, out, err) == (
                fresh.returncode, fresh.stdout, fresh.stderr), argv

    @pytest.mark.parametrize("argv", [
        ["eval", "--germ", "(x, y, z^3+x*z)"],
        ["eval", "--germ", "{(x,y,z^2);(y,x,z^2+x)}", "--json"],
        ["gate", "--germ", "(x, y, z^3+x*z)"],
        ["gate", "--germ", "{(x,y,z^2);(y,x,z^2+x)}", "--json"],
        ["atlas", "lookup", "--germ", "{(z^2+y,x,y);(z^2,x,y)}"],
        ["atlas", "lookup", "--germ", "(x,y,z^3+x*z)", "--json"],
    ], ids=["eval", "eval-json", "gate", "gate-json", "lookup",
            "lookup-json"])
    def test_each_command_searches_its_germ_once(self, argv, monkeypatch,
                                                 capsys):
        # a process reads one text once: from cleared tables, eval, gate and
        # atlas lookup of it search for its canonical order once between
        # them, the command given first, and that command run again
        # searches for nothing
        cli._read.cache_clear()
        germ_mod._interned.cache_clear()
        syntax.canonical_match_key.cache_clear()
        at = argv.index("--germ")
        text, flags = argv[at + 1], argv[at + 2:]
        commands = [argv[:at]] + [c for c in (["eval"], ["gate"],
                                              ["atlas", "lookup"])
                                  if c != argv[:at]]
        searches = []
        search = syntax._least_rendering

        def counting(f, arrange):
            searches.append(arrange)
            return search(f, arrange)

        monkeypatch.setattr(syntax, "_least_rendering", counting)
        outs = []
        for command in commands:
            assert cli.run([*command, "--germ", text, *flags]) == 0
            outs.append(capsys.readouterr().out)
        assert searches.count(False) == 1
        searches.clear()
        assert cli.run(argv) == 0
        assert capsys.readouterr().out == outs[0]
        assert searches == []

    def test_eval_plain(self, capsys):
        code = cli.run(["eval", "--germ", "(x,y,z^2)"])
        out = capsys.readouterr().out
        assert code == 0 and "aecod:    0" in out

    def test_eval_deterministic(self, capsys):
        argv = ["eval", "--germ", "{(x,y,z^2);(x,y,z^2+y^2+x^2)}", "--json"]
        cli.run(argv)
        first = capsys.readouterr().out
        cli.run(argv)
        second = capsys.readouterr().out
        assert first == second

    def test_eval_source_dim_declares_an_unused_variable(self, capsys):
        # in three variables (x, y, 0) vanishes on the z-axis
        code = cli.run(["eval", "--germ", "(x, y, 0)", "--source-dim", "3"])
        assert code == 0
        assert "m0:       infinite" in capsys.readouterr().out

    @pytest.mark.parametrize("flags, refusal", [
        (["--target-dim", "3"],
         "target-dim 3 disagrees with the 2 components"),
        (["--source-dim", "1"],
         "source-dim 1 is less than the 2 variables appearing"),
    ], ids=["target-dim", "source-dim"])
    def test_eval_dimensions_that_disagree_with_the_germ_exit_1(
            self, capsys, flags, refusal):
        assert cli.run(["eval", "--germ", "(x, y^2)", *flags]) == 1
        assert refusal in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["eval", "gate"])
    def test_a_germ_with_n_above_p_exits_2(self, capsys, command):
        # for n > p no map is finite, so no cap certifies a multiplicity
        assert cli.run([command, "--germ", "(x^2+y^2)"]) == 2
        assert "did not stabilize by degree 16" in capsys.readouterr().err

    def test_seven_variables_exit_code(self, capsys):
        code = cli.run(["eval", "--germ", "(x1^2+x7, x2, x3, x4, x5, x6, x1*x7)"])
        assert code == 1
        assert "at most 6 variables" in capsys.readouterr().err

    def test_parse_error_exit_code(self, capsys):
        code = cli.run(["eval", "--germ", "(x,,y)"])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_internal_error_exit_code(self, capsys, monkeypatch):
        # an engine KeyError is a bug, not bad input
        def broken(f, d_max):
            raise KeyError((0, 0, (1, 0, 0)))
        monkeypatch.setattr(tangent, "ae_codim", broken)
        code = cli.run(["eval", "--germ", "(x,y,z^2)"])
        assert code == 3
        assert "internal error" in capsys.readouterr().err

    def test_not_stabilized_exit_code(self, capsys):
        # 4_2^6 is finite and certified only at degree 11, and it has no
        # positive weights, so under a cap of 6 nothing is proved
        code = cli.run(["eval", "--germ", FOUR_2_6, "--max-degree", "6"])
        assert code == 2
        assert "did not stabilize by degree 6" in capsys.readouterr().err
        # (x, y, z^3) is not A-finite: it is unstable at (0, 1, 0), where
        # it is (x, y, z^3) again, and on the whole orbit of that point
        # under its weights, which tends to 0
        code = cli.run(["eval", "--germ", "(x,y,z^3)", "--max-degree", "6",
                        "--json"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["invariants"]["aecod"] == out["invariants"]["acod"] == \
            "infinite"
        proof = out["proofs"]["aecod"]
        assert (proof["point"], proof["fibre"]) == ([0, 1, 0], [[0, [0, 1, 0]]])
        assert proof["target_weights"] == [1, 1, 3]
        assert proof["reason"] == \
            "not A-finite: unstable at y = (0, 1, 0), weights (1, 1, 3)"

    def test_max_degree_environment_variable_is_ignored(self, capsys,
                                                        monkeypatch):
        # --max-degree is the only way to set the cap; 4_2^6 is certified
        # at degree 11, so a cap of 6 would fail
        monkeypatch.setenv("GERMCALC_MAX_DEGREE", "6")
        assert cli.run(["eval", "--germ", FOUR_2_6]) == 0

    @pytest.mark.parametrize("flags", [["--window", "1"], ["--window", "2"],
                                       ["--d0", "5"]],
                             ids=["window-1", "window-2", "d0"])
    def test_rejected_engine_settings_exit_1(self, capsys, flags):
        assert cli.run(["eval", "--germ", "(x,y,z^2)", *flags]) == 1

    @pytest.mark.parametrize("value", ["0", "-1"])
    @pytest.mark.parametrize("argv, refusal", [
        (["eval", "--germ", "(x,y,z^2)"], "d_max must be at least 1"),
        (["gate", "--germ", "(x,y,z^2)"], "d_max must be at least 1"),
        # export runs no engine, so it takes no cap at all
        (["atlas", "export"], "unrecognized arguments: --max-degree"),
    ], ids=["eval", "gate", "atlas-export"])
    def test_max_degree_below_one_exits_1(self, capsys, argv, refusal, value):
        # refused while parsing, before any subcommand runs
        assert cli.run([*argv, "--max-degree", value]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert refusal in captured.err

    @pytest.mark.parametrize("argv, option", [
        pytest.param(argv, option, id=argv[1] + option)
        for argv, ignored in [
            (["build", "augment", "--germ", "(x^3+y^4*x+z*x, y, z)",
              "--phi", "z^4"], ["--germ2", "--gbar", "--s"]),
            (["build", "augconc", "--germ", "(t^2, t^3+u*t, u)",
              "--phi", "w^2"], ["--germ2", "--gbar", "--s"]),
            (["build", "monic", "--germ", "(t^2, t^3+l*t, l)"],
             ["--phi", "--germ2", "--gbar", "--s"]),
            (["build", "binary", "--germ", "(x^3+u*x, u)",
              "--germ2", "(x^3+u*x, u)"], ["--phi", "--gbar", "--s"]),
            (["build", "genconc", "--germ", "(t^2, t^3+l*t, l)",
              "--gbar", "(0)"], ["--phi", "--germ2"]),
            (["atlas", "verify", "--param-cap", "1"], ["--germ", "--output"]),
            (["atlas", "lookup", "--germ", "(x,y,z^2)"],
             ["--param-cap", "--output"]),
            (["atlas", "export"],
             ["--param-cap", "--germ", "--max-degree", "--json"]),
        ]
        for option in ignored
    ])
    def test_an_option_the_command_does_not_read_exits_1(
            self, capsys, argv, option):
        # each command line is valid without the option, and nothing it
        # runs would read the option's value
        value = {"--germ2": ["(x^3+u*x, u)"], "--gbar": ["(0)"],
                 "--s": ["2"], "--phi": ["w^2"], "--germ": ["(x,y,z^2)"],
                 "--output": ["atlas.json"], "--param-cap": ["9"],
                 "--max-degree": ["5"], "--json": []}[option]
        assert cli.run([*argv, option, *value]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"unrecognized arguments: {option}" in captured.err

    def test_start_above_the_cap_names_both_degrees(self, capsys):
        # A1A3 k = 8 has multiplicity 6 and c = 4, so its codimension starts
        # at degree 5; a cap of 4 tries degree 4 alone, where no certificate
        # passes (it is certified at 15)
        code = cli.run(["eval", "--germ", "{(x^4+x^2*y+x*z,z,y);(x,y^8+z^2,y)}",
                        "--max-degree", "4"])
        err = capsys.readouterr().err
        assert code == 2
        assert "by degree 4" in err and "at degrees [4]" in err
        assert "start degree 5" in err

    def test_gate_not_simple(self, capsys):
        code = cli.run(["gate", "--germ",
                        "{(x,y,z^3+y*z);(x^4+y*x+z*x^2,y,z)}", "--json"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["verdict"]["kind"] == "not_simple"
        assert out["verdict"]["rule"] == "multiplicity bound"
        assert out["verdict"]["evidence"]["bound"] == {"num": 13, "den": 2}
        # the first proof ends the report
        assert out["trace"] == [{"gate": "nishimura", **out["verdict"]}]

    def test_gate_with_assertions(self, capsys):
        code = cli.run(["gate", "--germ",
                        "{(x^5+y*x+z*x^2,y,z);(x,y,z^2+y)}",
                        "--assert", "primitivity", "--json"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0 and out["verdict"]["kind"] == "not_simple"

    def test_gate_rejects_an_unknown_assertion_flag(self, capsys):
        code = cli.run(["gate", "--germ", "(x,y,z^3+x*z)",
                        "--assert", "primitivty,bogus"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == (
            "error: no gate of this report reads the assertion flag(s) "
            "bogus, primitivty; it reads primitivity\n")

    @pytest.mark.parametrize("flag", [
        gates.FLAG_DZ, gates.FLAG_AUG_SIMPLE, gates.FLAG_TRANSVERSALITY,
        gates.FLAG_IS_AUGMENTATION])
    def test_gate_rejects_a_flag_no_gate_of_its_report_reads(self, capsys,
                                                             flag):
        # only augconc reads the first three, and the command line cannot
        # give it its data; no report runs the gate that reads the fourth
        code = cli.run(["gate", "--germ", "(x,y,z^2)",
                        "--assert", f"primitivity,{flag}"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert f"assertion flag(s) {flag};" in captured.err

    def test_eval_then_gate_computes_a_failing_codimension_once(
            self, capsys, monkeypatch):
        # eval proves the full germ's codimension infinite in its extended
        # search; the non-extended search never starts, and gate, decided
        # by the multiplicity bound, asks for no codimension
        germ = ("{(x,y,z^2);(x,y,z^2+x);(x,y,z^2+y);(x,y,z^2+x+y);"
                "(x,y,z^2+x-y)}")
        for cached in (tangent.ae_codim, tangent.a_codim,
                       tangent._shared):
            cached.cache_clear()
        runs = []
        stabilized = tangent._stabilized_codim

        def counting(f, d_max, extended):
            runs.append((f, extended))
            return stabilized(f, d_max, extended)

        monkeypatch.setattr(tangent, "_stabilized_codim", counting)
        assert cli.run(["eval", "--germ", germ]) == 0
        out = capsys.readouterr().out
        for name in ("aecod:   ", "acod:    "):
            assert (f"{name} infinite   (not A-finite: unstable at "
                    "y = (1, 0, 1), weights (2, 2, 2))\n") in out
        assert cli.run(["gate", "--germ", germ]) == 0
        f = syntax.parse_multigerm(germ)
        assert runs.count((f, True)) == 1
        assert runs.count((f, False)) == 0

    def test_a_failing_branch_multiplicity_is_searched_once(
            self, capsys, monkeypatch):
        # the branch ideal (x, y, x z^2) = (x, y) has no finite quotient
        germ = "(x,y,x*z^2)"
        branch = list(syntax.parse_multigerm(germ).branches[0].components)
        for module in (germ_mod, tangent):
            for fn in vars(module).values():
                if hasattr(fn, "cache_clear"):
                    fn.cache_clear()
        runs = []
        curve = ring.quotient_curve

        def counting(generators, nvars, d_max=ring.D_MAX, last_resort=None):
            generators = list(generators)
            runs.append(generators == branch)
            return curve(generators, nvars, d_max, last_resort)

        monkeypatch.setattr(ring, "quotient_curve", counting)
        assert cli.run(["gate", "--germ", germ, "--json"]) == 0
        verdict = json.loads(capsys.readouterr().out)["verdict"]
        assert (verdict["kind"], verdict["rule"]) == ("not_simple",
                                                      "multiplicity bound")
        assert verdict["evidence"]["multiplicity"] == "infinite"
        assert runs.count(True) == 1
        runs.clear()
        assert cli.run(["eval", "--germ", germ]) == 0
        out, err = capsys.readouterr()
        reason = ("not finite: a branch vanishes on the line through 0 and "
                  "(0, 0, 1)")
        assert err == ""
        assert f"m0:       infinite   ({reason})\n" in out
        assert f"aecod:    infinite   ({reason})\n" in out
        assert f"acod:     infinite   ({reason})\n" in out
        assert runs.count(True) == 0

    @pytest.mark.parametrize("germ", [
        "{(x,y,z^2);(x,y,z^2+x);(x,y,z^2+y);(x,y,z^2+x+y);(x,y,z^2+x-y)}",
        "{(x,y,z,0);(x,y,0,z);(x,0,y,z);(0,x,y,z);(x,y,z,x);(x,y,z,y)}",
    ], ids=["fold-pentagerm", "sextuple-point"])
    def test_gate_not_simple_outlasts_an_unstabilized_gate(self, capsys, germ):
        # the multiplicity bound proves both non-simple, so the atlas
        # lookup, whose codimension never stabilizes, does not run
        code = cli.run(["gate", "--germ", germ, "--json"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["verdict"]["kind"] == "not_simple"
        assert out["verdict"]["rule"] == "multiplicity bound"
        assert out["trace"] == [{"gate": "nishimura", **out["verdict"]}]

    def test_gate_pentagerm_computes_no_codimension(self, capsys, monkeypatch):
        def refuse(f, d_max=ring.D_MAX):
            raise AssertionError("no codimension expected")
        monkeypatch.setattr(tangent, "ae_codim", refuse)
        code = cli.run(["gate", "--germ", "{(x,y,z^2);(x,y,z^2+x);(x,y,z^2+y);"
                        "(x,y,z^2+x+y);(x,y,z^2+x-y)}", "--json"])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["verdict"]["kind"] == \
            "not_simple"

    def test_gate_sextuple_point_skips_the_primitive_rule(self, capsys):
        # n = 3 is below the threshold of the immersion-partner rule
        sextuple = cli.parse_multigerm("{(x,y,z,0);(x,y,0,z);(x,0,y,z);"
                                       "(0,x,y,z);(x,y,z,x);(x,y,z,y)}")
        for asserted in (False, True):
            v = gates.gate_primitive_plus_morse(sextuple,
                                                primitive_flag=asserted)
            assert v.kind == "unknown"
            assert v.unverified == (
                "dimensions below the threshold for the immersion partner, "
                "(n, n+1) rule",)

    def test_eval_reports_each_certificate(self, capsys):
        # 4_2^6: multiplicity 4 and c = 4, so the candidates start at
        # degree 3; the certificate passes at degree 11
        code = cli.run(["eval", "--germ", FOUR_2_6, "--json"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["invariants"]["aecod"] == 6
        assert out["degrees_used"]["aecod"] == 11
        assert out["c"] == {"aecod": 4, "acod": 4}
        assert len(out["curves"]["aecod"]) == 11 - 3 + 1
        assert cli.run(["eval", "--germ", FOUR_2_6]) == 0
        assert ("aecod:    6   (certified at degree 11, c = 4)\n"
                in capsys.readouterr().out)

    def test_gate_text_shows_the_reason_of_an_unknown_entry(
            self, capsys, monkeypatch):
        def unstable(f, d_max):
            raise NotStabilizedError("no", d_max=5, history=(3, 4))
        monkeypatch.setattr(gates, "gate_nishimura", unstable)
        code = cli.run(["gate", "--germ", "{(x,y,z^2);(x,y,z^2+x);(x,y,z^2+y);"
                        "(x,y,z^2+x+y);(x,y,z^2+x-y)}"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.endswith(
            "trace:\n"
            "  nishimura: unknown (did not stabilize by degree 5)\n"
            "  branch_count: not_simple [branch count bound]\n")

    def test_gate_without_other_evidence_exits_2(self, capsys):
        # 4_2^6 is below the multiplicity bound and has one branch, so only
        # the atlas lookup could decide; its codimension is certified at
        # degree 11 and nothing proves it infinite, so a cap of 8 leaves
        # no answer
        code = cli.run(["gate", "--germ", FOUR_2_6, "--max-degree", "8",
                        "--json"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "did not stabilize by degree 8" in captured.err

    @pytest.mark.parametrize("germ, name, params", [
        ("(x, y, y^2*z^2+z^4+x*z)", "4_1^k", {"k": 2}),
        ("(x, y, x^2*z+y^2*z+z^3)", "3_mu", {"P": ["A", 1]}),
        ("(x, y, y^3*z+x^2*z+z^3)", "3_mu", {"P": ["A", 2]}),
        ("(x, y, y^3*z^2+z^4+x*z)", "4_1^k", {"k": 3}),
        ("(x, y, z^4+x^2*z+x*z^2+y^2*z)", "4_2^k", {"k": 2}),
    ])
    def test_a_literal_catalog_germ_is_matched_at_a_small_cap(
            self, germ, name, params, capsys):
        # the germ's own invariants are certified by degree 3; those of
        # other catalog rows with its codimension are not, and a literal
        # match reads none of them
        code = cli.run(["gate", "--germ", germ, "--max-degree", "3",
                        "--json"])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert (out["verdict"]["kind"], out["verdict"]["rule"]) == (
            "simple", "atlas match")
        assert out["verdict"]["evidence"]["candidates"] == [[name, params]]
        code = cli.run(["atlas", "lookup", "--germ", germ, "--max-degree",
                        "3", "--json"])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["exact"] and out["matches"] == [
            {"name": name, "params": params}]

    def test_a_proof_of_infinite_codimension_ends_the_report(self, capsys):
        # (x, y, z^3) is below the multiplicity bound and has one branch,
        # so the atlas lookup is the first gate to compute a codimension;
        # its proof that the germ is not A-finite proves it not simple
        code = cli.run(["gate", "--germ", "(x,y,z^3)", "--json"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert (out["verdict"]["kind"], out["verdict"]["rule"]) == (
            "not_simple", "not A-finite")
        assert out["verdict"]["evidence"]["point"] == [0, 1, 0]
        assert [entry["gate"] for entry in out["trace"]] == [
            "nishimura", "branch_count", "tau_pairing", "atlas"]
        assert cli.run(["atlas", "lookup", "--germ", "(x,y,z^3)"]) == 0
        assert capsys.readouterr().out == "no match\n"

    def test_build_augment(self, capsys):
        code = cli.run(["build", "augment",
                        "--germ", "(x^3+y^4*x+z*x, y, z)", "--phi", "z^4"])
        out = capsys.readouterr().out.strip()
        assert code == 0
        assert cli.parse_multigerm(out) == \
            cli.parse_multigerm("(x^3+y^4*x+z^4*x, y, z)")

    def test_build_monic(self, capsys):
        code = cli.run(["build", "monic",
                        "--germ", "(x^4+y*x+z*x^2, y, z)", "--json"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        built = cli.parse_multigerm(out["germ"])
        assert built.r == 2

    def test_build_augconc(self, capsys):
        code = cli.run(["build", "augconc",
                        "--germ", "(t^2, t^3+u*t, u)", "--phi", "w^2"])
        out = capsys.readouterr().out.strip()
        built = cli.parse_multigerm(out)
        assert code == 0 and built.r == 2 and (built.n, built.p) == (2, 3)

    def test_build_binary(self, capsys):
        code = cli.run(["build", "binary",
                        "--germ", "(x^3+u*x, u)", "--germ2", "(x^3+u*x, u)"])
        out = capsys.readouterr().out.strip()
        built = cli.parse_multigerm(out)
        assert code == 0 and built.r == 2 and (built.n, built.p) == (3, 3)
        code = cli.run(["build", "binary", "--germ", "(x^3+u*x, u)"])
        assert code == 1
        assert "germ2" in capsys.readouterr().err

    def test_build_genconc_matches_monic(self, capsys):
        total = "(x^4+y*x+z*x^2, y, z)"
        assert cli.run(["build", "genconc", "--germ", total,
                        "--gbar", "(w^2)", "--s", "1"]) == 0
        via_genconc = capsys.readouterr().out.strip()
        assert cli.run(["build", "monic", "--germ", total]) == 0
        via_monic = capsys.readouterr().out.strip()
        assert via_genconc == via_monic

    def test_build_rejects_unstable_without_flag(self, capsys):
        argv = ["build", "augment",
                "--germ", "(x^3+y^2*x+z*x+0*z^5, y, z)", "--phi", "w^2"]
        # the total (x^3+(y^2+z)x, y, z) is stable, so this one succeeds;
        # use a genuinely unstable total instead
        code = cli.run(["build", "augment",
                        "--germ", "(x^3+y^2*x+z^2*x, y, z)", "--phi", "w^2"])
        assert code == 1
        err = capsys.readouterr().err
        assert "not stable" in err and "--unchecked" in err
        code = cli.run(["build", "augment", "--unchecked",
                        "--germ", "(x^3+y^2*x+z^2*x, y, z)", "--phi", "w^2"])
        assert code == 0

    def test_atlas_verify_cap_one(self, capsys):
        code = cli.run(["atlas", "verify", "--param-cap", "1", "--json"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0 and out["all_match"] is True

    def test_atlas_verify_stabilization_failure_exit_code(self, capsys):
        # the multiplicity 5 of 5_1 and 5_2 is certified only at degree 4
        code = cli.run(["atlas", "verify", "--param-cap", "1",
                        "--max-degree", "3", "--json"])
        out = json.loads(capsys.readouterr().out)
        assert code == 2 and out["all_match"] is False
        assert {row["name"] for row in out["rows"] if not row["match"]} == \
            {"5_1", "5_2"}

    def test_atlas_lookup(self, capsys):
        code = cli.run(["atlas", "lookup", "--germ",
                        "{(x,y,z^2);(x,y,z^2+y^2+x^3)}", "--json"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0 and out["exact"] is True
        assert out["matches"][0]["name"] == "A1A1"

    def test_atlas_lookup_of_a_corank_two_germ_is_no_match(self, capsys):
        code = cli.run(["atlas", "lookup", "--germ", "(x^2,y^2,z^2)"])
        captured = capsys.readouterr()
        assert code == 0 and captured.out == "no match\n"
        assert captured.err == ""

    def test_atlas_export(self, capsys, tmp_path):
        target = tmp_path / "atlas.json"
        code = cli.run(["atlas", "export", "--output", str(target)])
        assert code == 0
        doc = json.loads(target.read_text())
        assert doc["format"] == "germcalc-atlas" and len(doc["entries"]) == 26

    def test_a_closed_standard_output_exits_1(self, capsys, monkeypatch):
        # a reader that has gone is an unwritable output, not a bug
        class Closed:
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

        monkeypatch.setattr(sys, "stdout", Closed())
        assert cli.run(["atlas", "export"]) == 1
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("where, reason", [
        ("missing/atlas.json", "No such file or directory"),
        (".", "Is a directory"),
    ], ids=["missing-parent", "directory"])
    def test_atlas_export_to_an_unwritable_path_exits_1(
            self, capsys, tmp_path, where, reason):
        target = tmp_path / where
        code = cli.run(["atlas", "export", "--output", str(target)])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == f"error: cannot write {target}: {reason}\n"


def _python(*args: str) -> subprocess.CompletedProcess:
    """Run a fresh interpreter that imports this checkout's germcalc."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(atlas.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    return subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True)


class TestLayering:
    def test_package_import_leaves_the_cli_unloaded(self):
        done = _python("-c", "import sys, germcalc; print(sorted("
                       "{'germcalc.cli', 'argparse'} & set(sys.modules)))")
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"

    def test_module_entry_point_runs_without_warnings(self):
        done = _python("-W", "error", "-m", "germcalc.cli", "eval",
                       "--germ", "(x,y,z^2)")
        assert done.returncode == 0, done.stderr
        assert "aecod:    0" in done.stdout

    def test_package_runs_as_a_module(self):
        done = _python("-W", "error", "-m", "germcalc", "eval",
                       "--germ", "(x,y,z^2)", "--json")
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout)["invariants"]["aecod"] == 0

    @pytest.mark.parametrize("unbuffered", ["1", ""],
                             ids=["unbuffered", "buffered"])
    def test_a_closed_pipe_exits_1_quietly(self, unbuffered):
        # the pipe's reader is closed before the command starts, so no
        # write can race it.  Unbuffered, print fails inside run; buffered,
        # an output smaller than the buffer fails only at main's flush
        read, write = os.pipe()
        os.close(read)
        src = os.path.dirname(os.path.dirname(os.path.abspath(atlas.__file__)))
        env = {**os.environ, "PYTHONPATH": src,
               "PYTHONUNBUFFERED": unbuffered}
        try:
            done = subprocess.run(
                [sys.executable, "-m", "germcalc", "atlas", "export"],
                stdout=write, stderr=subprocess.PIPE, env=env, text=True)
        finally:
            os.close(write)
        assert (done.returncode, done.stderr) == (1, "")

    def test_ring_caches_are_bounded_and_empty_after_import(self):
        # every functools cache of every module in the package
        done = _python("-c", "import importlib, pkgutil, germcalc\n"
                       "found = set()\n"
                       "for mod in pkgutil.iter_modules(germcalc.__path__):\n"
                       "    m = importlib.import_module('germcalc.' + mod.name)\n"
                       "    for fn in vars(m).values():\n"
                       "        if hasattr(fn, 'cache_info'):\n"
                       "            info = fn.cache_info()\n"
                       "            found.add(f'{fn.__module__}.{fn.__name__} '\n"
                       "                      f'{info.maxsize} {info.currsize}')\n"
                       "print('\\n'.join(sorted(found)))")
        assert done.returncode == 0, done.stderr
        assert done.stdout.split("\n") == [
            "germcalc.atlas._instance 1024 0",
            "germcalc.cli._read 1024 0",
            "germcalc.cli.build_arg_parser 1 0",
            "germcalc.germ._branch_multiplicity 1024 0",
            "germcalc.germ._interned 1024 0",
            "germcalc.germ._prenormal_form 1024 0",
            "germcalc.germ.corank 1024 0",
            "germcalc.ring.monomial_tables 64 0",
            "germcalc.syntax.canonical_match_key 1024 0",
            "germcalc.tangent._shared 1024 0",
            "germcalc.tangent.a_codim 1024 0",
            "germcalc.tangent.ae_codim 1024 0",
            "germcalc.tangent.is_stable 1024 0", ""]

