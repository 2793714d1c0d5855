"""End-to-end command-line checks against the JSON fixtures."""

import contextlib
import copy
import io
import json
import math
import pathlib
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import reference_ns_eval

from fusionkit import GrayImage, load_pgm, save_pgm, scenario_from_json, uft_fuse
from fusionkit.cli import _ns_eval, _parser, build_parser, emit_table, main
from fusionkit.neutro import NsRecipe, NsTriple, n_norm, ns_not

DATA = pathlib.Path(__file__).parent / "data"


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def fixture(name: str) -> str:
    return str(DATA / name)


class TestAlgebraCommands:
    def test_cardinality(self):
        code, out, err = run(["algebra", "card", "3"])
        assert (code, out, err) == (0, "128\n", "")

    def test_cardinality_needs_two_hypotheses(self):
        code, _, err = run(["algebra", "card", "1"])
        assert code == 1
        assert "error" in err

    @pytest.mark.parametrize("n", ["7", "14"])
    def test_cardinality_beyond_the_frame_limit(self, n):
        code, out, err = run(["algebra", "card", n])
        assert (code, out) == (1, "")
        assert err == f"error: at most 6 hypotheses supported, got {n}\n"

    def test_canonical_name(self):
        code, out, _ = run(["algebra", "canon", "--frame", "A,B",
                            "A&(A|B)"])
        assert (code, out) == (0, "A\n")

    def test_canonical_json(self):
        code, out, _ = run(["algebra", "canon", "--frame", "A,B",
                            "--format", "json", "A&(A|B)"])
        assert code == 0
        assert json.loads(out) == {"name": "A", "atoms": 2, "bits": 5}

    def test_canonical_name_at_any_nesting_depth(self):
        code, out, err = run(["algebra", "canon", "--frame", "A,B",
                              "(" * 5000 + "A" + ")" * 5000])
        assert (code, out, err) == (0, "A\n", "")

    def test_unknown_label(self):
        code, _, err = run(["algebra", "canon", "--frame", "A,B", "C"])
        assert code == 1
        assert "error" in err


class TestFuseCommand:
    def test_csv_row(self):
        code, out, _ = run(["fuse", "--rule", "conjunctive",
                            "--format", "csv",
                            fixture("two_source_free.json")])
        assert code == 0
        assert out == "A,B,A|B,A&B\n0.24,0.42,0.06,0.28\n"

    def test_text_reports_conflict(self):
        code, out, _ = run(["fuse", "--rule", "conjunctive",
                            fixture("two_source_disjoint.json")])
        assert code == 0
        assert "conflict mass: 0.280" in out

    def test_proportional_rule_row(self):
        code, out, _ = run(["fuse", "--rule", "pcr5",
                            fixture("two_source_disjoint.json")])
        assert code == 0
        head, body = out.splitlines()
        assert head.split() == ["A", "B", "A|B"]
        assert body.split() == ["0.356", "0.584", "0.060"]

    def test_json_document(self):
        code, out, _ = run(["fuse", "--rule", "dempster",
                            "--format", "json",
                            fixture("two_source_disjoint.json")])
        assert code == 0
        doc = json.loads(out)
        assert doc["frame"] == ["A", "B"]
        assert doc["masses"]["B"] == pytest.approx(0.42 / 0.72)

    def test_grouped_tree(self):
        code, out, _ = run(["fuse", "--rule", "mixed",
                            fixture("three_source_grouped.json")])
        assert code == 0
        head, body = out.splitlines()
        assert head.split() == ["A", "A|B", "B|(A&C)", "A&(B|C)"]
        assert body.split() == ["0.510", "0.340", "0.060", "0.090"]

    def test_mixed_needs_grouping(self):
        code, _, err = run(["fuse", "--rule", "mixed",
                            fixture("two_source_free.json")])
        assert code == 1
        assert "grouping" in err

    def test_total_conflict_exit_code(self):
        code, _, err = run(["fuse", "--rule", "dempster",
                            fixture("total_conflict.json")])
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize("rule", ["conjunctive", "dempster", "pcr5"])
    def test_one_source_is_rejected(self, rule, tmp_path):
        path = tmp_path / "one.json"
        path.write_text(json.dumps(
            {"frame": ["A", "B"], "sources": [{"A": 0.6, "B": 0.4}]}))
        code, out, err = run(["fuse", "--rule", rule, str(path)])
        assert (code, out) == (1, "")
        assert err == "error: need at least two sources\n"


def reference_uft_text(result) -> str:
    """``uft`` text output as the per-record print loop wrote it."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        fused_names = result.model.name_of if result.model else None
        for label, b, namer in (
            ("fused", result.m_uft, fused_names),
            ("lower (closed)", result.m_lower_closed, None),
            ("lower (open)", result.m_lower_open, None),
            ("middle", result.m_middle, None),
            ("upper", result.m_upper, None),
        ):
            print(f"{label}:")
            print(emit_table(b, "text", namer))
        frame = result.m_uft.frame
        print("transfers:")
        for rec in result.audit:
            ops = " , ".join(frame.name_of(b) for b in rec.operands)
            targets = ", ".join(
                f"{frame.name_of(b)}: {v:.3f}" for b, v in rec.targets
            )
            rel = rec.relationship.value if rec.relationship else "kept"
            print(f"  ({ops}) {rec.mass:.3f} [{rel}] -> {targets}")
    return out.getvalue()


class TestUftCommand:
    def test_text_sections(self):
        code, out, _ = run(["uft", fixture("uft_right_is.json")])
        assert code == 0
        for section in ("fused:", "lower (closed):", "lower (open):",
                        "middle:", "upper:", "transfers:"):
            assert section in out
        assert "[right_is]" in out

    def test_csv_uses_reduced_classes(self):
        code, out, _ = run(["uft", "--format", "csv",
                            fixture("uft_right_is.json")])
        assert code == 0
        assert out == "A|B,A,B\n0.06,0.52,0.42\n"

    def test_json_document(self):
        code, out, _ = run(["uft", "--format", "json",
                            fixture("uft_right_is.json")])
        assert code == 0
        doc = json.loads(out)
        assert doc["m_uft"]["masses"]["A"] == pytest.approx(0.52)
        assert doc["deferred"] == []
        assert any(rec["relationship"] == "right_is"
                   for rec in doc["audit"])

    @pytest.mark.parametrize("path", sorted(DATA.glob("*.json")),
                             ids=lambda p: p.name)
    def test_text_matches_the_reference_writer(self, path):
        code, out, err = run(["uft", str(path)])
        if code != 0:  # not a scenario uft accepts
            assert "error" in err
            return
        result = uft_fuse(scenario_from_json(json.loads(path.read_text())))
        assert out == reference_uft_text(result)

    def test_one_source_is_rejected_as_fuse_rejects_it(self, tmp_path):
        path = scenario_file(tmp_path, lambda doc: doc.update(sources=doc["sources"][:1]))
        code, out, err = run(["uft", path])
        assert (code, out) == (1, "")
        assert err == "error: need at least two sources\n"

    @pytest.mark.parametrize("reliability, pointer", [
        ("x", "/reliability"),
        ({"kind": "discounts"}, "/reliability/alphas"),
        ({"kind": "discounts", "alphas": ["x", 1]}, "/reliability/alphas"),
    ])
    def test_malformed_reliability(self, reliability, pointer, tmp_path):
        doc = json.loads(pathlib.Path(fixture("uft_right_is.json")).read_text())
        doc["reliability"] = reliability
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(["uft", str(path)])
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {pointer}: ")


SCENARIO_COMMANDS = {
    "fuse": ["fuse", "--rule", "pcr5"],
    "uft": ["uft"],
    "tcn": ["tcn"],
    "ufr": ["ufr"],
}


def scenario_file(tmp_path, edit):
    """The uft fixture after ``edit`` changed its document."""
    doc = json.loads(pathlib.Path(fixture("uft_right_is.json")).read_text())
    edit(doc)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    return str(path)


def rejected(argv, pointer):
    code, out, err = run(argv)
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {pointer}: ")
    assert "Traceback" not in err


class TestMalformedScenarios:
    @pytest.mark.parametrize("mass", ["x", None, {}, math.nan, [0.1, math.nan]])
    @pytest.mark.parametrize("command", SCENARIO_COMMANDS)
    def test_bad_mass_value(self, command, mass, tmp_path):
        path = scenario_file(tmp_path, lambda d: d["sources"][0].update(A=mass))
        rejected(SCENARIO_COMMANDS[command] + [path], "/sources/0")

    @pytest.mark.parametrize("key, value, pointer", [
        ("sources", 5, "/sources"),
        ("frame", "AB", "/frame"),
        ("frame", [1, 2], "/frame"),
        ("model", 5, "/model"),
    ])
    @pytest.mark.parametrize("command", SCENARIO_COMMANDS)
    def test_bad_shape(self, command, key, value, pointer, tmp_path):
        path = scenario_file(tmp_path, lambda d: d.update({key: value}))
        rejected(SCENARIO_COMMANDS[command] + [path], pointer)

    @pytest.mark.parametrize("edit, pointer", [
        (lambda d: d.update(options=3), "/options"),
        (lambda d: d.update(annotations=5), "/annotations"),
        (lambda d: d.update(annotations=[5]), "/annotations/0"),
        (lambda d: d["annotations"][0].update(side=3), "/annotations/0/side"),
        (lambda d: d["annotations"][0].update(pair=[1, 2]), "/annotations/0/pair"),
        (lambda d: d["annotations"][0].update(pair="AB"), "/annotations/0/pair"),
        (lambda d: d["annotations"][0].update(pair=["A", "B", "A|B"]), "/annotations/0/pair"),
        (lambda d: d["annotations"][0].update(pair=["A"]), "/annotations/0/pair"),
        (lambda d: d["annotations"][0].pop("pair"), "/annotations/0/pair"),
        (lambda d: d["annotations"][0].pop("rel"), "/annotations/0/rel"),
        (lambda d: d.update(options={"middle_from_average": "false"}),
         "/options/middle_from_average"),
        (lambda d: d.update(options={"neither_right_proportional": 1}),
         "/options/neither_right_proportional"),
        (lambda d: d.update(options={"middle_from_average": None}),
         "/options/middle_from_average"),
        (lambda d: d.update(reliability={"kind": "discounts", "alphas": [True, 0.5]}),
         "/reliability/alphas"),
        (lambda d: d.update(reliability={"kind": "mixed_grouping", "tree": ["and", True, 2]}),
         "/reliability/tree/1"),
        (lambda d: d.update(reliability={"kind": "mixed_grouping", "tree": ["and", 1, False]}),
         "/reliability/tree/2"),
        (lambda d: d.update(reliability={"kind": "mixed_grouping",
                                         "tree": ["or", 1, ["and", 2, True]]}),
         "/reliability/tree/2/2"),
    ])
    def test_bad_uft_block(self, edit, pointer, tmp_path):
        rejected(["uft", scenario_file(tmp_path, edit)], pointer)

    @pytest.mark.parametrize("leaf", [True, False])
    def test_boolean_grouping_leaf_is_rejected_by_fuse(self, leaf, tmp_path):
        path = scenario_file(tmp_path, lambda d: d.update(grouping=["or", 1, leaf]))
        code, out, err = run(["fuse", "--rule", "mixed", path])
        assert (code, out) == (1, "")
        assert err == (f"error: /grouping/2: grouping leaf must be a source number, "
                       f"got {json.dumps(leaf)}\n")

    @pytest.mark.parametrize("tree, leaf, message", [
        (["and", 1, 0], "2", "source 0 out of range 1..2"),
        (["and", 1, 1], "2", "source 1 used twice"),
        (["and", 1, 3], "2", "source 3 out of range 1..2"),
        (["or", 2, ["and", -1, 1]], "2/1", "source -1 out of range 1..2"),
        (["or", 2, ["and", 1, 2]], "2/2", "source 2 used twice"),
    ])
    @pytest.mark.parametrize("command", ["fuse", "uft"])
    def test_grouping_leaf_errors_name_the_source_as_written(
            self, command, tree, leaf, message, tmp_path):
        if command == "fuse":
            path = scenario_file(tmp_path, lambda d: d.update(grouping=tree))
            argv, block = ["fuse", "--rule", "mixed", path], "/grouping"
        else:
            path = scenario_file(tmp_path, lambda d: d.update(
                reliability={"kind": "mixed_grouping", "tree": tree}))
            argv, block = ["uft", path], "/reliability/tree"
        code, out, err = run(argv)
        assert (code, out) == (1, "")
        assert err == f"error: {block}/{leaf}: {message}\n"

    def test_bad_grouping_fixture(self):
        code, out, err = run(["fuse", "--rule", "mixed",
                              fixture("invalid/grouping_source_zero.json")])
        assert (code, out) == (1, "")
        assert err == "error: /grouping/2: source 0 out of range 1..2\n"

    @pytest.mark.parametrize("command, edit, message", [
        ("fuse", lambda d: d.update(grouping=["and", 1, 2]), "/grouping: source 3 missing"),
        ("uft", lambda d: d.update(reliability={"kind": "mixed_grouping", "tree": ["or", 2, 3]}),
         "/reliability/tree: source 1 missing"),
    ])
    def test_a_source_left_out_of_the_tree_is_named_at_the_tree(
            self, command, edit, message, tmp_path):
        doc = json.loads(pathlib.Path(fixture("three_source_grouped.json")).read_text())
        edit(doc)
        path = tmp_path / "three.json"
        path.write_text(json.dumps(doc))
        argv = ["fuse", "--rule", "mixed", str(path)] if command == "fuse" else ["uft", str(path)]
        assert run(argv) == (1, "", f"error: {message}\n")

    def test_boolean_mass_fixture(self):
        code, out, err = run(["fuse", "--rule", "dempster",
                              fixture("invalid/boolean_mass.json")])
        assert (code, out) == (1, "")
        assert err == "error: /sources/0: /masses: mass must be a number, got True\n"

    @pytest.mark.parametrize("pair", ["AB", ["A", "B", "A|B"]])
    def test_bad_pair_message(self, pair, tmp_path):
        path = scenario_file(tmp_path, lambda d: d["annotations"][0].update(pair=pair))
        _, _, err = run(["uft", path])
        assert err == ("error: /annotations/0/pair: "
                       "pair must be a list of two set expressions\n")


class TestSourceLimit:
    @pytest.mark.parametrize("argv", [["fuse", "--rule", "conjunctive"], ["uft"]],
                             ids=["fuse", "uft"])
    def test_more_sources_than_grid_axes_exit_1(self, argv, tmp_path):
        for n in (32, 33, 65):
            path = tmp_path / f"{n}.json"
            path.write_text(json.dumps({"frame": ["A", "B"], "sources": [{"A": 1}] * n}))
            code, out, err = run([*argv, str(path)])
            if n == 32:
                assert (code, err) == (0, "")
            else:
                assert (code, out, err) == (1, "", f"error: {n} sources exceed the limit of 32\n")


class TestTcnCommand:
    def test_conjunctive_text(self):
        code, out, _ = run(["tcn", "--variant", "conjunctive",
                            fixture("tcn_triple.json")])
        assert code == 0
        head, body, tail = out.splitlines()
        assert head.split() == ["O1", "O2", "O3", "O1|O3"]
        assert body.split() == ["0.200", "0.500", "0.300", "0.300"]
        assert tail == "conflict mass: 0.700"

    def test_dempster_csv(self):
        code, out, _ = run(["tcn", "--variant", "dempster",
                            "--format", "csv",
                            fixture("tcn_triple.json")])
        assert code == 0
        values = [float(v) for v in out.splitlines()[1].split(",")]
        assert values == pytest.approx(
            [2 / 13, 5 / 13, 3 / 13, 3 / 13], abs=1e-9
        )

    def test_pcr5v2_normalized_sums_to_one(self):
        code, out, _ = run(["tcn", "--variant", "pcr5v2", "--normalize",
                            "--format", "csv",
                            fixture("tcn_triple.json")])
        assert code == 0
        values = [float(v) for v in out.splitlines()[1].split(",")]
        assert math.fsum(values) == pytest.approx(1.0)

    def test_two_sources_required(self):
        code, _, err = run(["tcn", fixture("three_source_grouped.json")])
        assert code == 1
        assert "two sources" in err


class TestUfrCommand:
    def test_discard_normalize_matches_the_normalised_rule(self):
        code, out, _ = run(["ufr", "--format", "csv",
                            fixture("ufr_dempster.json")])
        assert code == 0
        _, direct, _ = run(["fuse", "--rule", "dempster", "--format", "csv",
                            fixture("two_source_disjoint.json")])
        assert out == direct

    @staticmethod
    def with_ufr(tmp_path, ufr):
        return scenario_file(tmp_path, lambda d: d.update(ufr=ufr))

    @pytest.mark.parametrize("ufr, message", [
        ({"weight_1": 3}, "weight spec must be a string"),
        ({"weight_2": "constant:nan"}, "must be finite and >= 0"),
        ({"weight_1": "constant:inf"}, "must be finite and >= 0"),
        ({"weight_1": "constant:-1"}, "must be finite and >= 0"),
        ({"transferable": [5]}, "/transferable: "),
        ({"transferable": [None]}, "/transferable: "),
        ({"transferable": [["A", "B"]]}, "/transferable: "),
    ])
    def test_bad_config_is_rejected(self, ufr, message, tmp_path):
        code, out, err = run(["ufr", self.with_ufr(tmp_path, ufr)])
        assert (code, out) == (1, "")
        assert err.startswith("error: ")
        assert message in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("normalize", ["no", "false", 0, None])
    def test_non_boolean_normalize_is_rejected(self, normalize, tmp_path):
        ufr = {"transfer": "discard", "normalize": normalize}
        code, out, err = run(["ufr", self.with_ufr(tmp_path, ufr)])
        assert (code, out) == (1, "")
        assert err == "error: /normalize: normalize must be true or false\n"
        assert run(["ufr", self.with_ufr(tmp_path, {**ufr, "normalize": False})])[0] == 0

    def test_huge_constant_weights_still_run(self, tmp_path):
        ufr = {"weight_1": "constant:1e308", "weight_2": "constant:1e308"}
        code, out, err = run(["ufr", self.with_ufr(tmp_path, ufr)])
        assert (code, err) == (0, "")
        assert "nan" not in out
        equal = {"weight_1": "constant:2", "weight_2": "constant:2"}
        assert out == run(["ufr", self.with_ufr(tmp_path, equal)])[1]

    @pytest.mark.parametrize("fixture_name, ufr", [
        ("two_source_free.json", {"weight_1": 3, "weight_2": "constant:nan"}),
        ("uft_right_is.json", {"transfer": "discard", "weight_2": 3}),
    ])
    def test_bad_weights_are_rejected_when_nothing_is_split(
            self, fixture_name, ufr, tmp_path):
        doc = json.loads((DATA / fixture_name).read_text())
        doc["ufr"] = ufr
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(["ufr", str(path)])
        assert (code, out) == (1, "")
        key = "weight_1" if ufr.get("weight_1") == 3 else "weight_2"
        assert err == f"error: /{key}: weight spec must be a string, got 3\n"


# Every character class the ``neutro eval`` reader tells apart: separators,
# Unicode spaces, and letters and digits that str tests and float read apart.
_NS_PARTS = ["(0.5,0.3,0.2)", "(1e999,0,0)", "and[min](", "or[median](", "not(", "and", "or",
             "not", "min", "[", "]", "(", ")", ",", " ", "\t", "\u00a0", "\u00e9", "\u00b2",
             "\u216b", "\u0663", "0.5", "1e999", "-", "e", "x"]
_NS_TRIPLES = ["(0.5,0.3,0.2)", "( 0.4 ,\t0.6,0.1)", "(1,0,0)", "(-0.2,0,0)", "(1.5,0,0)",
               "(1e999,0,0)", "(\u0663,0,0)", "(0.9,0.1,0.0)"]
#: Expressions of the grammar, with the unknown recipe "median" now and then.
_NS_EXPRESSIONS = st.recursive(
    st.sampled_from(_NS_TRIPLES),
    lambda kids: st.one_of(
        kids.map("not({})".format),
        st.tuples(st.sampled_from(["and", "or"]),
                  st.sampled_from([recipe.value for recipe in NsRecipe] + ["median"]),
                  kids, kids).map(lambda node: "{}[{}]({},{})".format(*node))),
    max_leaves=6)


def _splice(text: str, at: int, part: str) -> str:
    """``text`` with the character at ``at`` (modulo its length plus one)
    replaced by ``part``."""
    at %= len(text) + 1
    return text[:at] + part + text[at + 1:]


_NS_TEXTS = st.one_of(
    st.lists(st.sampled_from(_NS_PARTS), max_size=12).map("".join),
    _NS_EXPRESSIONS,
    st.builds(_splice, _NS_EXPRESSIONS, st.integers(0, 200), st.sampled_from(_NS_PARTS + [""])))


class TestNeutroCommand:
    def test_conjunction(self):
        code, out, _ = run([
            "neutro", "eval", "and[min]((0.5,0.3,0.2),(0.4,0.6,0.1))"
        ])
        assert code == 0
        assert json.loads(out) == [0.4, 0.6, 0.2]

    def test_nested_complement(self):
        code, out, _ = run(["neutro", "eval", "not((0.3,0.4,0.6))"])
        assert code == 0
        assert json.loads(out) == [0.6, 0.6, 0.3]

    def test_disjunction_with_product_recipe(self):
        code, out, _ = run([
            "neutro", "eval", "or[product]((0.5,0.3,0.2),(0.4,0.6,0.1))"
        ])
        assert code == 0
        t, i, f = json.loads(out)
        assert t == pytest.approx(0.7)
        assert i == pytest.approx(0.18)
        assert f == pytest.approx(0.02)

    def test_unknown_recipe(self):
        code, _, err = run(["neutro", "eval", "and[median]((1,0,0),(1,0,0))"])
        assert code == 1
        assert "recipe" in err

    def test_trailing_garbage(self):
        code, _, err = run(["neutro", "eval", "(0.5,0.3,0.2) extra"])
        assert code == 1
        assert "trailing" in err

    @settings(max_examples=800, deadline=None)
    @given(_NS_TEXTS)
    def test_one_stack_matches_the_recursive_reader(self, text):
        def outcome(read):
            try:
                return read(text).to_json()
            except Exception as exc:  # any class: it must match the oracle's
                return type(exc), str(exc)

        assert outcome(_ns_eval) == outcome(reference_ns_eval)

    def test_complements_nest_to_any_depth(self):
        text = "not(" * 100_000 + "(0.5,0.3,0.2)" + ")" * 100_000
        expected = NsTriple(0.5, 0.3, 0.2)
        for _ in range(100_000):
            expected = ns_not(expected)
        code, out, err = run(["neutro", "eval", text])
        assert (code, json.loads(out), err) == (0, expected.to_json(), "")
        with pytest.raises(RecursionError):
            reference_ns_eval(text)

    def test_conjunctions_nest_to_any_depth(self):
        x, y = NsTriple(0.5, 0.3, 0.2), NsTriple(0.4, 0.6, 0.1)
        text, expected = "(0.5,0.3,0.2)", x
        for _ in range(20_000):
            text, expected = f"and[min]({text},(0.4,0.6,0.1))", n_norm(NsRecipe.MIN, expected, y)
        code, out, err = run(["neutro", "eval", text])
        assert (code, json.loads(out), err) == (0, expected.to_json(), "")
        with pytest.raises(RecursionError):
            reference_ns_eval(text)
        code, _, err = run(["neutro", "eval", text + ")"])
        assert (code, err) == (1, f"error: trailing input at position {len(text)}\n")


class TestImageCommands:
    def make_noisy(self, tmp_path):
        rng = np.random.default_rng(3)
        px = np.full((24, 24), 60, dtype=np.uint8)
        px[8:16, 8:16] = 200
        noisy = px.copy()
        idx = rng.choice(px.size, size=10, replace=False)
        noisy.flat[idx] = np.where(rng.random(10) < 0.5, 0, 255)
        path = tmp_path / "in.pgm"
        save_pgm(GrayImage(noisy), path)
        return path, GrayImage(px)

    def test_denoise_round_trip(self, tmp_path):
        path, clean = self.make_noisy(tmp_path)
        out_path = tmp_path / "out.pgm"
        code, out, _ = run([
            "nimage", "denoise", "--gamma", "0.4", "--delta", "0.01",
            str(path), str(out_path),
        ])
        assert code == 0
        report = json.loads(out)
        assert report["iterations"] >= 1
        assert len(report["entropy_trace"]) == report["iterations"] + 1
        restored = load_pgm(out_path)
        diff = np.abs(
            restored.pixels.astype(int) - clean.pixels.astype(int)
        )
        assert (diff <= 2).mean() >= 0.95

    def test_segment_with_sidecar(self, tmp_path):
        px = np.full((32, 32), 30, dtype=np.uint8)
        px[4:12, 4:12] = 220
        px[20:28, 20:28] = 220
        path = tmp_path / "in.pgm"
        save_pgm(GrayImage(px), path)
        out_path = tmp_path / "seg.pgm"
        code, out, _ = run([
            "nimage", "segment", "--a", "30", "--b", "125", "--c", "220",
            "--t-low", "0.2", "--t-high", "0.8", "--i-threshold", "0.5",
            str(path), str(out_path),
        ])
        assert code == 0
        report = json.loads(out)
        assert report["objects"] == 2
        sidecar = json.loads((tmp_path / "seg.pgm.json").read_text())
        assert set(sidecar) == {"background", "dam", "object_1", "object_2"}
        assert sidecar == report["counts"]
        assert sidecar["object_1"] == sidecar["object_2"]
        labels = load_pgm(out_path)
        assert labels.pixels.shape == (32, 32)

    def test_segment_fits_knots_when_omitted(self, tmp_path):
        px = np.full((16, 16), 30, dtype=np.uint8)
        px[4:12, 4:12] = 220
        path = tmp_path / "in.pgm"
        save_pgm(GrayImage(px), path)
        out_path = tmp_path / "seg.pgm"
        code, out, _ = run([
            "nimage", "segment",
            "--t-low", "0.2", "--t-high", "0.8", "--i-threshold", "0.5",
            str(path), str(out_path),
        ])
        assert code == 0
        report = json.loads(out)
        assert report["params"]["a"] == 30.0
        assert report["params"]["c"] == 220.0

    def test_segment_with_more_regions_than_gray_levels(self, tmp_path):
        px = np.full((96, 96), 128, dtype=np.uint8)
        for r in range(16):
            for c in range(16):
                px[r * 6 + 2:r * 6 + 4, c * 6 + 2:c * 6 + 4] = 250
        path = tmp_path / "in.pgm"
        save_pgm(GrayImage(px), path)
        out_path = tmp_path / "seg.pgm"
        code, out, err = run([
            "nimage", "segment", "--a", "10", "--b", "100", "--c", "200",
            "--t-low", "0.1", "--t-high", "0.9", "--i-threshold", "1.01",
            str(path), str(out_path),
        ])
        assert (code, out) == (1, "")
        assert err == "error: 256 regions do not fit distinct 8-bit levels\n"
        assert not out_path.exists()

    @pytest.mark.parametrize("flag", ["--gamma", "--delta"])
    def test_denoise_nan_parameter(self, tmp_path, flag):
        path, _ = self.make_noisy(tmp_path)
        argv = {"--gamma": "0.4", "--delta": "0.01", flag: "nan"}
        code, out, err = run([
            "nimage", "denoise", "--gamma", argv["--gamma"],
            "--delta", argv["--delta"], str(path), str(tmp_path / "out.pgm"),
        ])
        assert (code, out) == (1, "")
        assert err.startswith("error: ")
        assert "Traceback" not in err
        assert not (tmp_path / "out.pgm").exists()

    def test_an_incomplete_header_is_an_input_error(self, tmp_path):
        path = tmp_path / "in.pgm"
        path.write_bytes(b"P2\n2\n")
        code, out, err = run([
            "nimage", "denoise", "--gamma", "0.4", "--delta", "0.01",
            str(path), str(tmp_path / "out.pgm"),
        ])
        assert (code, out, err) == (1, "", "error: incomplete PGM header\n")

    def test_missing_input_file(self, tmp_path):
        code, _, err = run([
            "nimage", "denoise", "--gamma", "0.4", "--delta", "0.01",
            str(tmp_path / "nope.pgm"), str(tmp_path / "out.pgm"),
        ])
        assert code == 1
        assert "error" in err


class TestExitCodes:
    def test_invalid_json(self):
        code, _, err = run(["fuse", "--rule", "conjunctive",
                            fixture("bad.json")])
        assert code == 1
        assert "invalid JSON" in err

    def test_an_integer_too_long_to_convert_is_invalid_json(self, tmp_path):
        path = tmp_path / "long_int.json"
        path.write_text('{"frame": ["A", "B"], "sources": [{"A": %s}, {"B": 1}]}' % ("1" * 5000))
        code, out, err = run(["fuse", "--rule", "dempster", str(path)])
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {path}: invalid JSON (")

    @pytest.mark.parametrize("argv", [["fuse", "--rule", "dempster"], ["uft"]], ids=str)
    def test_json_nested_too_deep_is_invalid_json(self, tmp_path, argv):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        code, out, err = run([*argv, str(path)])
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {path}: invalid JSON (")

    def test_missing_file(self):
        code, _, err = run(["fuse", "--rule", "conjunctive",
                            fixture("missing.json")])
        assert code == 1

    def test_unknown_flag(self):
        code, _, err = run(["algebra", "card", "--wat", "3"])
        assert code == 1
        assert "usage error" in err

    def test_unknown_rule(self):
        code, _, err = run(["fuse", "--rule", "median",
                            fixture("two_source_free.json")])
        assert code == 1

    def test_missing_subcommand(self):
        code, _, err = run([])
        assert code == 1
        assert "usage error" in err


class TestParserReuse:
    """``main`` parses with one cached parser; no call may leak into the
    next one."""

    @staticmethod
    def fresh(argv):
        _parser.cache_clear()
        return run(argv)

    def test_build_parser_returns_a_fresh_parser(self):
        assert build_parser() is not build_parser()
        assert _parser() is _parser()

    def test_flag_does_not_stick(self):
        plain = ["tcn", "--variant", "pcr5v2", "--format", "csv",
                 fixture("tcn_triple.json")]
        want = self.fresh(plain)
        normalized = run(plain[:-1] + ["--normalize", plain[-1]])
        assert normalized[0] == 0 and normalized[1] != want[1]
        assert run(plain) == want

    def test_format_does_not_stick(self):
        text = ["fuse", "--rule", "pcr5", fixture("two_source_disjoint.json")]
        want = self.fresh(text)
        code, out, _ = run(text[:3] + ["--format", "json", text[3]])
        assert code == 0 and json.loads(out)
        assert run(text) == want

    def test_usage_error_does_not_stick(self):
        valid = ["uft", "--format", "csv", fixture("uft_right_is.json")]
        want = self.fresh(valid)
        code, _, err = run(["uft", "--format", "yaml", valid[-1]])
        assert code == 1 and "usage error" in err
        assert run(valid) == want


# --- fuzzing the scenario boundary ---------------------------------------------

FUZZ_BASE = {
    "frame": ["A", "B", "C", "D"],
    "world": "closed",
    "model": ["A&B"],
    "sources": [
        {"A": 0.2, "B": 0.5, "A|B": 0.3},
        {"A": 0.4, "B|C": 0.4, "A|B|C": 0.2},
    ],
    "reliability": {"kind": "mixed_grouping", "tree": ["and", 1, 2],
                    "alphas": [0.9, 0.8]},
    "annotations": [
        {"pair": ["A", "B"], "rel": "right_is", "side": "A"},
        {"pair": ["A|B", "B|C"], "rel": "neither_right"},
    ],
    "grouping": ["or", 1, 2],
    "ufr": {"star": "conjunctive", "combiner": "product",
            "transferable": ["A&B"], "transfer": "pair_proportional",
            "weight_1": "source_mass", "weight_2": "constant:2",
            "normalize": True},
    "options": {"neither_right_proportional": True,
                "middle_from_average": False},
}

#: Every field a mutation may replace, by its path in FUZZ_BASE.
FUZZ_PATHS = [
    ("frame",), ("frame", 2), ("world",), ("model",), ("model", 0),
    ("sources",), ("sources", 0), ("sources", 1, "B|C"),
    ("reliability",), ("reliability", "kind"), ("reliability", "tree"),
    ("reliability", "tree", 1), ("reliability", "alphas"),
    ("annotations",), ("annotations", 0), ("annotations", 0, "pair"),
    ("annotations", 0, "rel"), ("annotations", 0, "side"),
    ("annotations", 1, "pair", 0), ("grouping",), ("grouping", 2),
    ("ufr",), *(("ufr", key) for key in FUZZ_BASE["ufr"]),
    ("options",), ("options", "neither_right_proportional"),
    ("options", "middle_from_average"),
]

#: Strings the loaders give meaning to, next to arbitrary ones.
FUZZ_WORDS = ["A", "B|C", "A&B", "~A", "empty", "Z", "", "and", "or",
              "open", "discounts", "mixed_grouping", "right_is", "min",
              "disjunctive", "ignorance", "never", "model_empty",
              "source_mass", "constant:0", "constant:-1", "constant:1e308",
              "constant:inf", "constant:x"]

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.sampled_from(FUZZ_WORDS) | st.text("ABC&|~()_: x01", max_size=6),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(FUZZ_WORDS), inner, max_size=3),
    max_leaves=8,
)

FUZZ_COMMANDS = [
    *(["fuse", "--rule", rule] for rule in
      ("conjunctive", "mixed", "dempster", "pcr5")),
    ["uft"], ["ufr"],
    *(["tcn", "--variant", v] for v in ("pcr5_original", "pcr5v2")),
]


@st.composite
def mutated_documents(draw):
    """FUZZ_BASE with one or two fields replaced by arbitrary JSON."""
    doc = copy.deepcopy(FUZZ_BASE)
    paths = draw(st.lists(st.sampled_from(FUZZ_PATHS), min_size=1,
                          max_size=2, unique=True))
    # Longest first, so that a shorter path replaces a parent last.
    for path in sorted(paths, key=len, reverse=True):
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = draw(json_values)
    return doc


class TestScenarioFuzz:
    @given(mutated_documents())
    @settings(max_examples=150, deadline=None)
    def test_every_document_is_processed_or_rejected(self, doc):
        with tempfile.TemporaryDirectory() as tmp:
            path = str(pathlib.Path(tmp) / "scenario.json")
            pathlib.Path(path).write_text(json.dumps(doc))
            for command in FUZZ_COMMANDS:
                for fmt in ("text", "json", "csv"):
                    code, out, err = run(command + ["--format", fmt, path])
                    assert code in (0, 1, 2), (command, fmt, err)
                    assert "nan" not in out.lower(), (command, fmt, out)
                    assert "Traceback" not in err
