"""Scenario fusion tests: the relationship catalog, brackets, audit.

The two-label pair exercises one relationship at a time; the Bayesian
five-label pair and the complement-heavy four-label pair exercise the
whole catalog at once, including the model-aware class naming of the
results.
"""

import itertools
import json
import math
import operator
import pathlib
import pickle
import re
from dataclasses import astuple, replace
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    bayesian_scenario,
    four_label_sources,
    negation_scenario,
    reference_split,
    reference_tree_from_json,
    two_label_sources,
)

from fusionkit import (
    Annotation,
    AtomSet,
    Bba,
    EmptinessModel,
    Frame,
    RedistContext,
    Relationship,
    Reliability,
    ReliabilityKind,
    TransferRecord,
    UftOptions,
    UftResult,
    UftScenario,
    World,
    conjunctive,
    discount,
    disjunctive,
    exclusive_disjunctive,
    fusion_inputs_from_json,
    make_bba,
    mixed,
    product_terms,
    redistribute,
    reroute_mass,
    scenario_from_json,
    uft_fuse,
    uft_fuse_dynamic,
)
from fusionkit.errors import (
    FrameMismatch,
    FusionKitError,
    InputError,
    NoOtherHypotheses,
    SchemaError,
)
from fusionkit import uft as uft_module
from fusionkit.cli import main as cli_main
from fusionkit.rules import _union_escalate
from fusionkit.uft import _tree_from_json


def fuse_pair(frame, s1, s2, model, rel, side=None, options=None):
    annotations = ()
    if rel is not None:
        annotations = (
            Annotation(
                (frame.atoms_of("A"), frame.atoms_of("B")),
                rel,
                side=frame.atoms_of(side) if side else None,
            ),
        )
    scenario = UftScenario(
        (s1, s2),
        model=model,
        reliability=Reliability.all_reliable(),
        annotations=annotations,
        options=options or UftOptions(),
    )
    return uft_fuse(scenario)


class TestRelationshipCatalog:
    """Each relationship routes the pair's intersection mass differently."""

    def setup_method(self):
        self.frame, self.s1, self.s2 = two_label_sources()
        self.free = EmptinessModel.free(self.frame)
        self.excl = EmptinessModel.from_exprs(self.frame, ("A&B",))

    def expect(self, result, a, b, union, inter=0.0):
        assert result.mass("A") == pytest.approx(a, abs=1e-3)
        assert result.mass("B") == pytest.approx(b, abs=1e-3)
        assert result.mass("A|B") == pytest.approx(union, abs=1e-3)
        assert result.mass("A&B") == pytest.approx(inter, abs=1e-3)
        assert result.m_uft.total() == pytest.approx(1.0)

    def test_consensus_keeps_the_intersection(self):
        r = fuse_pair(self.frame, self.s1, self.s2, self.free,
                      Relationship.CONSENSUS)
        self.expect(r, 0.24, 0.42, 0.06, 0.28)

    def test_no_interest_splits_proportionally(self):
        r = fuse_pair(self.frame, self.s1, self.s2, self.free,
                      Relationship.NEITHER_INTERSECTION_NOR_UNION_INTEREST)
        self.expect(r, 0.356, 0.584, 0.06)

    def test_optimistic_splits_proportionally(self):
        r = fuse_pair(self.frame, self.s1, self.s2, self.excl,
                      Relationship.OPTIMISTIC_BOTH)
        self.expect(r, 0.356, 0.584, 0.06)

    def test_one_right_unknown_goes_to_union(self):
        r = fuse_pair(self.frame, self.s1, self.s2, self.excl,
                      Relationship.ONE_RIGHT_UNKNOWN)
        self.expect(r, 0.24, 0.42, 0.34)

    def test_unannotated_empty_defaults_to_union(self):
        r = fuse_pair(self.frame, self.s1, self.s2, self.excl, None)
        self.expect(r, 0.24, 0.42, 0.34)

    def test_pessimistic_goes_to_union(self):
        r = fuse_pair(self.frame, self.s1, self.s2, self.excl,
                      Relationship.PESSIMISTIC_BOTH)
        self.expect(r, 0.24, 0.42, 0.34)

    def test_very_pessimistic_closed_goes_to_ignorance(self):
        frame, s1, s2 = four_label_sources()
        model = EmptinessModel.from_exprs(frame, ("A&B",))
        r = fuse_pair(frame, s1, s2, model,
                      Relationship.VERY_PESSIMISTIC_CLOSED)
        assert r.mass("A") == pytest.approx(0.24)
        assert r.mass("B") == pytest.approx(0.42)
        assert r.mass("A|B") == pytest.approx(0.06)
        assert r.mass("A|B|C|D") == pytest.approx(0.28)

    def test_very_pessimistic_open_drops_the_mass(self):
        frame = Frame(("A", "B"), world=World.OPEN)
        _, s1, s2 = two_label_sources(frame)
        model = EmptinessModel.from_exprs(frame, ("A&B",))
        r = fuse_pair(frame, s1, s2, model,
                      Relationship.VERY_PESSIMISTIC_OPEN)
        assert r.mass("A") == pytest.approx(0.24)
        assert r.mass("B") == pytest.approx(0.42)
        assert r.mass("A|B") == pytest.approx(0.06)
        assert r.m_uft.mass(0) == pytest.approx(0.28)

    def test_right_is_sends_mass_to_that_side(self):
        r = fuse_pair(self.frame, self.s1, self.s2, self.excl,
                      Relationship.RIGHT_IS, side="A")
        self.expect(r, 0.52, 0.42, 0.06)

    def test_neither_right_splits_over_the_others(self):
        frame, s1, s2 = four_label_sources()
        model = EmptinessModel.from_exprs(frame, ("A&B",))
        r = fuse_pair(frame, s1, s2, model, Relationship.NEITHER_RIGHT)
        assert r.mass("A") == pytest.approx(0.24)
        assert r.mass("B") == pytest.approx(0.42)
        assert r.mass("A|B") == pytest.approx(0.06)
        assert r.mass("C") == pytest.approx(0.14)
        assert r.mass("D") == pytest.approx(0.14)

    def test_neither_right_without_others_raises(self):
        with pytest.raises(NoOtherHypotheses):
            fuse_pair(self.frame, self.s1, self.s2, self.excl,
                      Relationship.NEITHER_RIGHT)

    def test_neither_right_no_others_drops_the_mass(self):
        r = fuse_pair(self.frame, self.s1, self.s2, self.excl,
                      Relationship.NEITHER_RIGHT_NO_OTHERS)
        assert r.m_uft.mass(0) == pytest.approx(0.28)
        assert r.m_uft.total() == pytest.approx(1.0)

    def test_unknown_default_keeps_and_defers(self):
        r = fuse_pair(self.frame, self.s1, self.s2, self.free,
                      Relationship.UNKNOWN_DEFAULT)
        self.expect(r, 0.24, 0.42, 0.06, 0.28)
        ab = self.frame.atoms_of("A&B").bits
        assert r.deferred == ((ab, pytest.approx(0.28)),)

    def test_unknown_default_escalates_when_model_empty(self):
        r = fuse_pair(self.frame, self.s1, self.s2, self.excl,
                      Relationship.UNKNOWN_DEFAULT)
        self.expect(r, 0.24, 0.42, 0.34)
        assert r.deferred == ()


class TestReliabilityModes:
    def setup_method(self):
        self.frame, self.s1, self.s2 = two_label_sources()

    def run(self, reliability):
        return uft_fuse(
            UftScenario((self.s1, self.s2), model=None,
                        reliability=reliability)
        )

    def test_unreliable_sources_use_disjunctive(self):
        r = self.run(Reliability.some_unknown_unreliable())
        assert r.mass("A") == pytest.approx(0.08)
        assert r.mass("B") == pytest.approx(0.20)
        assert r.mass("A|B") == pytest.approx(0.72)

    def test_exactly_one_reliable_uses_exclusive_or(self):
        # The raw rule leaves the matching-operand mass on the empty
        # set; the scenario pipeline then routes each such term to the
        # union of its operands.
        r = self.run(Reliability.exactly_one_reliable_unknown())
        direct = exclusive_disjunctive(self.s1, self.s2)
        assert direct.mass(0) == pytest.approx(0.34)
        assert r.mass("A\\B") == pytest.approx(direct.mass("A\\B")) \
            == pytest.approx(0.22)
        assert r.mass("B\\A") == pytest.approx(0.16)
        assert r.mass("(A\\B)|(B\\A)") == pytest.approx(0.28)
        assert r.mass("A") == pytest.approx(0.08)
        assert r.mass("B") == pytest.approx(0.20)
        assert r.mass("A|B") == pytest.approx(0.06)

    def test_grouping_tree_matches_mixed_rule(self):
        frame = Frame(("A", "B", "C"))
        m1 = make_bba(frame, {"A": 0.6, "A|B": 0.4})
        m2 = make_bba(frame, {"B": 0.5, "A|B|C": 0.5})
        m3 = make_bba(frame, {"A|C": 0.7, "C": 0.3})
        tree = ("and", 0, ("or", 1, 2))
        r = uft_fuse(
            UftScenario((m1, m2, m3), model=None,
                        reliability=Reliability.mixed_grouping(tree))
        )
        direct = mixed((m1, m2, m3), tree)
        assert dict(r.m_uft.entries) == pytest.approx(dict(direct.entries))

    def test_discounts_then_conjunctive(self):
        frame, s1, s2 = four_label_sources()
        r = uft_fuse(
            UftScenario((s1, s2), model=None,
                        reliability=Reliability.discounts((1.0, 0.8)))
        )
        assert r.mass("A") == pytest.approx(0.232)
        assert r.mass("B") == pytest.approx(0.436)
        assert r.mass("A|B") == pytest.approx(0.108)
        assert r.mass("A&B") == pytest.approx(0.224)

    def test_discounts_length_checked(self):
        with pytest.raises(Exception):
            uft_fuse(
                UftScenario((self.s1, self.s2), model=None,
                            reliability=Reliability.discounts((1.0,)))
            )


class TestBayesianScenario:
    """Five hypotheses, two Bayesian sources, nine annotated pairs."""

    def setup_method(self):
        (self.frame, self.m1, self.m2,
         self.model, self.scenario) = bayesian_scenario()
        self.result = uft_fuse(self.scenario)

    def test_conjunctive_cells(self):
        m12, _ = conjunctive(self.m1, self.m2)
        expected = {
            "A": 0.10, "C": 0.03, "E": 0.02,
            "A&B": 0.04, "A&C": 0.17, "A&D": 0.20, "A&E": 0.09,
            "B&C": 0.06, "B&D": 0.08, "B&E": 0.02,
            "C&D": 0.04, "C&E": 0.07, "D&E": 0.08,
        }
        for cell, v in expected.items():
            assert m12.mass(cell) == pytest.approx(v, abs=1e-3), cell

    def test_fused_row(self):
        r = self.result
        assert r.mass("A") == pytest.approx(0.324, abs=1e-3)
        assert r.mass("B") == pytest.approx(0.040, abs=1e-3)
        assert r.mass("C") == pytest.approx(0.119, abs=1e-3)
        assert r.mass("D") == pytest.approx(0.0, abs=1e-3)
        assert r.mass("E") == pytest.approx(0.027, abs=1e-3)
        assert r.mass("A&B") == pytest.approx(0.04, abs=1e-3)
        assert r.mass("B&C") == pytest.approx(0.06, abs=1e-3)
        assert r.mass("A|D") == pytest.approx(0.20, abs=1e-3)
        assert r.mass("B|D") == pytest.approx(0.08, abs=1e-3)
        assert r.mass("C|D") == pytest.approx(0.04, abs=1e-3)
        assert r.mass("A|B|C|D|E") == pytest.approx(0.07, abs=1e-3)
        assert r.m_uft.total() == pytest.approx(1.0)

    def test_proportional_transfers_in_audit(self):
        ac = self.frame.atoms_of("A&C").bits
        a, c = self.frame.atoms_of("A").bits, self.frame.atoms_of("C").bits
        splits = sorted(
            (
                {bits: v for bits, v in rec.targets}
                for rec in self.result.audit
                if rec.result == ac
            ),
            key=lambda d: sum(d.values()),
        )
        assert len(splits) == 2
        assert splits[0][a] == pytest.approx(0.013, abs=1e-3)
        assert splits[0][c] == pytest.approx(0.007, abs=1e-3)
        assert splits[1][a] == pytest.approx(0.094, abs=1e-3)
        assert splits[1][c] == pytest.approx(0.056, abs=1e-3)

    def test_no_interest_transfer_in_audit(self):
        be = self.frame.atoms_of("B&E").bits
        b, e = self.frame.atoms_of("B").bits, self.frame.atoms_of("E").bits
        (rec,) = [r for r in self.result.audit if r.result == be]
        targets = {bits: v for bits, v in rec.targets}
        assert targets[b] == pytest.approx(0.013, abs=1e-3)
        assert targets[e] == pytest.approx(0.007, abs=1e-3)

    def test_deferred_records_unknown_pair(self):
        bc = self.frame.atoms_of("B&C").bits
        assert self.result.deferred == ((bc, pytest.approx(0.06)),)

    def test_lower_bracket(self):
        lo = self.result.m_lower_closed
        assert lo.mass(self.frame.universe_bits) == pytest.approx(0.85)
        assert lo.mass("A") == pytest.approx(0.10)
        assert lo.mass("C") == pytest.approx(0.03)
        assert lo.mass("E") == pytest.approx(0.02)
        assert self.result.m_lower_open.mass(0) == pytest.approx(0.85)

    def test_middle_bracket(self):
        mid = self.result.m_middle
        expected = {
            "A": 0.10, "C": 0.03, "E": 0.02,
            "A|B": 0.04, "A|C": 0.17, "A|D": 0.20, "A|E": 0.09,
            "B|C": 0.06, "B|D": 0.08, "B|E": 0.02,
            "C|D": 0.04, "C|E": 0.07, "D|E": 0.08,
        }
        for cell, v in expected.items():
            assert mid.mass(cell) == pytest.approx(v, abs=1e-3), cell
        assert mid.total() == pytest.approx(1.0)

    def test_upper_bracket(self):
        up = self.result.m_upper
        assert up.mass("A") == pytest.approx(0.400, abs=5e-3)
        assert up.mass("B") == pytest.approx(0.084, abs=5e-3)
        assert up.mass("C") == pytest.approx(0.178, abs=5e-3)
        assert up.mass("D") == pytest.approx(0.227, abs=5e-3)
        assert up.mass("E") == pytest.approx(0.111, abs=5e-3)
        assert up.total() == pytest.approx(1.0)

    def test_bracket_ordering_on_singleton_belief(self):
        r = self.result
        for label in self.frame.labels:
            lo = r.m_lower_closed.mass(label)
            hi = r.m_upper.mass(label)
            assert lo <= hi + 1e-12


class TestNegationScenario:
    """Complement and nested composites as focal elements."""

    def setup_method(self):
        (self.frame, self.m1, self.m2,
         self.model, self.scenario) = negation_scenario()
        self.result = uft_fuse(self.scenario)

    def test_conjunctive_cells(self):
        m12, _ = conjunctive(self.m1, self.m2)
        expected = {
            "A": 0.08, "B": 0.09, "~B": 0.02,
            "A&C": 0.17, "B|C": 0.03, "A&B": 0.14,
            "A&~B": 0.08, "A&(B|C)": 0.14, "B&A&C": 0.07,
            "~B&A&C": 0.04, "~B&(B|C)": 0.07,
        }
        for cell, v in expected.items():
            assert m12.mass(cell) == pytest.approx(v, abs=1e-3), cell
        # The contradictory product B against ~B lands in the ledger.
        _, ledger = conjunctive(self.m1, self.m2)
        assert ledger.total() == pytest.approx(0.07)

    def test_fused_row(self):
        r = self.result
        assert r.mass("A") == pytest.approx(0.277, abs=1e-3)
        assert r.mass("B") == pytest.approx(0.318, abs=1e-3)
        assert r.mass("D") == pytest.approx(0.035, abs=1e-3)
        assert r.mass("~B") == pytest.approx(0.020, abs=1e-3)
        assert r.mass("A|C") == pytest.approx(0.170, abs=1e-3)
        assert r.mass("A|B|C") == pytest.approx(0.140, abs=1e-3)
        assert r.mass("A|B|C|D") == pytest.approx(0.040, abs=1e-3)
        assert r.m_uft.total() == pytest.approx(1.0)

    def test_composite_classes_collapse(self):
        # B|C and B name the same class under this model, and the
        # consensus cell A&~B collapses onto A.
        assert self.model.name_of(self.frame.atoms_of("B|C")) == "B"
        assert self.model.reduce(self.frame.atoms_of("A&~B")) == \
            self.model.reduce(self.frame.atoms_of("A"))

    def test_upper_bracket_keeps_composite_focal_sets(self):
        up = self.result.m_upper
        assert up.mass("A") == pytest.approx(0.296, abs=1e-3)
        assert up.mass("B") == pytest.approx(0.230, abs=1e-3)
        assert up.mass("~B") == pytest.approx(0.126, abs=1e-3)
        assert up.mass("A&C") == pytest.approx(0.219, abs=1e-3)
        assert up.mass("B|C") == pytest.approx(0.129, abs=1e-3)
        assert up.total() == pytest.approx(1.0)

    def test_neither_right_excludes_covered_hypotheses(self):
        # The discarded sides jointly cover everything, yet A and D are
        # still available: neither side contains them on its own.
        nr = self.frame.atoms_of("~B&(B|C)").bits
        recs = [r for r in self.result.audit
                if r.relationship is Relationship.NEITHER_RIGHT]
        targets = {}
        for rec in recs:
            assert rec.result == nr
            for bits, v in rec.targets:
                targets[bits] = targets.get(bits, 0.0) + v
        assert targets == {
            self.frame.atoms_of("A").bits: pytest.approx(0.035),
            self.frame.atoms_of("D").bits: pytest.approx(0.035),
        }

    def test_brackets_total_one(self):
        r = self.result
        for b in (r.m_lower_closed, r.m_lower_open, r.m_middle, r.m_upper):
            assert b.total() == pytest.approx(1.0)


class TestRedistribute:
    def setup_method(self):
        self.frame, self.s1, self.s2 = two_label_sources()
        self.model = EmptinessModel.from_exprs(self.frame, ("A&B",))
        a, b = self.frame.atoms_of("A"), self.frame.atoms_of("B")
        self.term = (
            (a.bits, b.bits),
            a.bits & b.bits,
            0.08,
        )

    def ctx(self, annotation=None, **options):
        return RedistContext(
            frame=self.frame,
            model=self.model,
            sources=(self.s1, self.s2),
            annotation=annotation,
            options=UftOptions(**options),
        )

    def test_each_relationship_conserves_mass(self):
        a, b = self.frame.atoms_of("A"), self.frame.atoms_of("B")
        for rel in Relationship:
            side = a if rel is Relationship.RIGHT_IS else None
            ann = Annotation((a, b), rel, side=side)
            try:
                targets = redistribute(self.term, rel, self.ctx(ann))
            except NoOtherHypotheses:
                assert rel is Relationship.NEITHER_RIGHT
                continue
            assert math.fsum(v for _, v in targets) == pytest.approx(0.08)

    def test_right_is_requires_side(self):
        with pytest.raises(InputError):
            redistribute(self.term, Relationship.RIGHT_IS, self.ctx())

    @pytest.mark.parametrize("ops", [(1,), (1, 2, 3)])
    def test_proportional_split_needs_one_operand_per_source(self, ops):
        with pytest.raises(InputError, match="one operand per source"):
            redistribute((ops, 0, 0.08), Relationship.OPTIMISTIC_BOTH, self.ctx())

    def test_operands_outside_the_universe_are_rejected(self):
        with pytest.raises(InputError, match="operands and result must be bitmasks in 0..7"):
            redistribute(((-1, 2), 0, 0.25), Relationship.OPTIMISTIC_BOTH, self.ctx())

    def test_result_outside_the_universe_is_rejected(self):
        with pytest.raises(InputError, match="operands and result must be bitmasks in 0..7"):
            redistribute(((1, 2), 2**70, 0.25), Relationship.CONSENSUS, self.ctx())

    @pytest.mark.parametrize("term", [
        ((1, 8), 0, 0.25), ((), 0, 0.25), ("AB", 0, 0.25), ((True, 2), 0, 0.25),
        ((1, 2.0), 0, 0.25), ((1, 2), -1, 0.25), ((1, 2), None, 0.25),
        ((1, 2), 0, "0.25"), ((1, 2), 0, math.nan), ((1, 2), 0, True),
    ], ids=repr)
    @pytest.mark.parametrize("rel", [Relationship.CONSENSUS, Relationship.PESSIMISTIC_BOTH,
                                     Relationship.OPTIMISTIC_BOTH])
    def test_malformed_terms_are_rejected(self, term, rel):
        with pytest.raises(InputError, match="^term "):
            redistribute(term, rel, self.ctx())

    @pytest.mark.parametrize("term", [((1, 2), 0), ((1, 2), 0, 0.25, 9), 5, None, "AB&"],
                             ids=repr)
    def test_a_term_that_is_not_a_triple_is_rejected(self, term):
        with pytest.raises(InputError) as info:
            redistribute(term, Relationship.CONSENSUS, self.ctx())
        assert str(info.value) == f"term must be (operands, result, mass), got {term!r}"

    def test_context_sources_of_another_frame_are_rejected(self):
        """Masses would be looked up by the other frame's bitmasks."""
        other = make_bba(Frame(("A", "B", "C")), {"A": 0.5, "B|C": 0.5})
        for sources in ((other, other), (self.s1, other)):
            with pytest.raises(FrameMismatch, match="^model or source belongs to a different frame$"):
                RedistContext(self.frame, self.model, sources)

    def test_context_model_of_another_frame_is_rejected(self):
        model = EmptinessModel.free(Frame(("A", "B", "C")))
        with pytest.raises(FrameMismatch, match="^model or source belongs to a different frame$"):
            RedistContext(self.frame, model, (self.s1, self.s2))

    def test_side_rejected_for_other_relationships(self):
        a, b = self.frame.atoms_of("A"), self.frame.atoms_of("B")
        with pytest.raises(InputError):
            Annotation((a, b), Relationship.CONSENSUS, side=a)

    def test_side_must_belong_to_pair(self):
        a, b = self.frame.atoms_of("A"), self.frame.atoms_of("B")
        with pytest.raises(InputError):
            Annotation((a, b), Relationship.RIGHT_IS,
                       side=self.frame.atoms_of("A|B"))

    def test_neither_right_proportional_option(self):
        frame, s1, s2 = four_label_sources()
        model = EmptinessModel.from_exprs(frame, ("A&B",))
        s1 = make_bba(frame, {"A": 0.2, "B": 0.5, "C": 0.2, "A|B": 0.1})
        s2 = make_bba(frame, {"A": 0.4, "B": 0.4, "D": 0.1, "A|B": 0.1})
        a, b = frame.atoms_of("A"), frame.atoms_of("B")
        ann = Annotation((a, b), Relationship.NEITHER_RIGHT)
        ctx = RedistContext(
            frame=frame, model=model, sources=(s1, s2), annotation=ann,
            options=UftOptions(neither_right_proportional=True),
        )
        term = ((a.bits, b.bits), a.bits & b.bits, 0.08)
        targets = dict(redistribute(term, Relationship.NEITHER_RIGHT, ctx))
        c, d = frame.atoms_of("C").bits, frame.atoms_of("D").bits
        assert targets[c] == pytest.approx(0.08 * 2 / 3)
        assert targets[d] == pytest.approx(0.08 * 1 / 3)


class TestDeferredWorkflow:
    def test_reroute_deferred_mass(self):
        frame, s1, s2 = two_label_sources()
        r = fuse_pair(frame, s1, s2, None, Relationship.UNKNOWN_DEFAULT)
        assert r.deferred
        updated = reroute_mass(r.m_uft, "A&B", [("A", 1.0), ("B", 1.0)])
        assert updated.mass("A&B") == 0.0
        assert updated.mass("A") == pytest.approx(0.24 + 0.14)
        assert updated.mass("B") == pytest.approx(0.42 + 0.14)
        assert updated.total() == pytest.approx(1.0)

    def test_reroute_missing_source_is_identity(self):
        frame, s1, _ = two_label_sources()
        assert reroute_mass(s1, "A&B", [("A", 1.0)]) == s1

    def test_reroute_needs_positive_weights(self):
        frame, s1, _ = two_label_sources()
        with pytest.raises(InputError):
            reroute_mass(s1, "A", [("B", 0.0)])

    @staticmethod
    def halves():
        return make_bba(Frame(("A", "B")), {"A": 0.5, "B": 0.5})

    @pytest.mark.parametrize("bad", [math.nan, math.inf, "1", None])
    def test_reroute_rejects_weights_that_are_not_finite_numbers(self, bad):
        with pytest.raises(InputError, match="finite number"):
            reroute_mass(self.halves(), "A", [("B", bad), ("A|B", 1.0)])

    def test_reroute_rejects_negative_weights(self):
        with pytest.raises(InputError, match="finite number >= 0"):
            reroute_mass(self.halves(), "A", [("B", -1.0), ("A|B", 2.0)])

    def test_reroute_splits_overflowing_weights_by_their_ratio(self):
        out = reroute_mass(self.halves(), "A", [("B", 1e308), ("A|B", 1e308)])
        assert out == make_bba(out.frame, {"B": 0.75, "A|B": 0.25})

    @given(st.floats(0.01, 0.99),
           st.lists(st.tuples(st.sampled_from(["A", "B", "C", "A|B", "B|C", "A|B|C"]),
                              st.sampled_from([0.0, 1e-300, 3.0, 1e308, 1.7e308])
                              | st.floats(0.0, 1.0)),
                    max_size=5))
    @settings(max_examples=200, deadline=None)
    def test_reroute_shares_are_the_reference_split(self, p, targets):
        frame = Frame(("A", "B", "C"))
        b = make_bba(frame, {"A": p, "B|C": 1.0 - p})
        src = frame.atoms_of("A").bits
        shares = reference_split(b.mass(src), [(frame.atoms_of(t).bits, w) for t, w in targets])
        if shares is None:
            with pytest.raises(InputError, match="sum to a positive value"):
                reroute_mass(b, "A", targets)
            return
        want = {bits: v for bits, v in b.entries if bits != src}
        for bits, x in shares:
            want[bits] = want.get(bits, 0.0) + x
        assert reroute_mass(b, "A", targets) == Bba._from_masses(frame, want)


class TestDynamicFusion:
    def test_single_step_matches_static(self):
        frame, s1, s2 = two_label_sources()
        running = uft_fuse_dynamic(s1, [s2])
        static = uft_fuse(
            UftScenario((s1, s2), model=None,
                        reliability=Reliability.all_reliable())
        )
        assert running == static.m_uft

    def test_decay_discounts_the_running_state(self):
        frame, s1, s2 = two_label_sources()
        from fusionkit import discount

        running = uft_fuse_dynamic(s1, [s2], decay=0.8)
        static = uft_fuse(
            UftScenario((discount(s1, 0.8), s2), model=None,
                        reliability=Reliability.all_reliable())
        )
        assert running == static.m_uft

    def test_per_step_model_override(self):
        # The running state lives on model-reduced classes, so queries
        # go through the same reduction.
        frame, s1, s2 = two_label_sources()
        model = EmptinessModel.from_exprs(frame, ("A&B",))
        running = uft_fuse_dynamic(s1, [(s2, {"model": model})])
        assert running.mass("A&B") == 0.0
        union = model.reduce(frame.atoms_of("A|B"))
        assert running.mass(union) == pytest.approx(0.34)


class TestScenarioValidation:
    def test_duplicate_annotation_subjects_rejected(self):
        frame, s1, s2 = two_label_sources()
        a, b = frame.atoms_of("A"), frame.atoms_of("B")
        with pytest.raises(InputError):
            UftScenario(
                (s1, s2),
                model=None,
                annotations=(
                    Annotation((a, b), Relationship.CONSENSUS),
                    Annotation((b, a), Relationship.PESSIMISTIC_BOTH),
                ),
            )

    def test_needs_two_sources(self):
        frame, s1, _ = two_label_sources()
        with pytest.raises(InputError):
            UftScenario((s1,), model=None)


class TestFusionInputsDocument:
    @pytest.mark.parametrize("doc", [[], "frame", None, 3], ids=repr)
    def test_a_scenario_that_is_not_an_object(self, doc):
        with pytest.raises(SchemaError, match="^/: scenario must be an object$"):
            fusion_inputs_from_json(doc)

    @pytest.mark.parametrize("key", ["frame", "sources"])
    def test_a_missing_field(self, key):
        doc = {"frame": ["A", "B"], "sources": [{"A": 1.0}, {"B": 1.0}]}
        del doc[key]
        with pytest.raises(SchemaError, match=f"^/{key}: missing required field$"):
            fusion_inputs_from_json(doc)


class TestJsonScenario:
    DOC = {
        "frame": ["A", "B"],
        "model": ["A&B"],
        "sources": [
            {"A": 0.2, "B": 0.5, "A|B": 0.3},
            {"A": 0.4, "B": 0.4, "A|B": 0.2},
        ],
        "annotations": [
            {"pair": ["A", "B"], "rel": "right_is", "side": "A"}
        ],
    }

    def test_scenario_round_trip(self):
        scenario = scenario_from_json(self.DOC)
        r = uft_fuse(scenario)
        assert r.mass("A") == pytest.approx(0.52)
        assert r.mass("B") == pytest.approx(0.42)
        assert r.mass("A|B") == pytest.approx(0.06)

    def test_result_json_uses_class_names(self):
        r = uft_fuse(scenario_from_json(self.DOC))
        doc = r.to_json()
        assert doc["m_uft"]["masses"] == {
            "A": pytest.approx(0.52),
            "B": pytest.approx(0.42),
            "A|B": pytest.approx(0.06),
        }
        assert len(doc["audit"]) == 9
        assert doc["deferred"] == []

    @pytest.mark.parametrize("rel", ["xx", ["x"]])
    def test_unknown_relationship_names_its_field(self, rel):
        doc = json.loads(json.dumps(self.DOC))
        doc["annotations"][0]["rel"] = rel
        with pytest.raises(SchemaError) as exc:
            scenario_from_json(doc)
        assert str(exc.value) == f"/annotations/0/rel: unknown relationship {rel!r}"
        assert exc.value.pointer == "/annotations/0/rel"

    @pytest.mark.parametrize("key", ["middle_from_average", "neither_right_proportional"])
    @pytest.mark.parametrize("value", ["false", "true", 0, 1, None, [], {}])
    def test_options_must_be_json_booleans(self, key, value):
        doc = dict(self.DOC, options={key: value})
        with pytest.raises(SchemaError) as exc:
            scenario_from_json(doc)
        assert exc.value.pointer == f"/options/{key}"

    @pytest.mark.parametrize("value", [False, True])
    def test_boolean_options_are_read_as_given(self, value):
        doc = dict(self.DOC, options={"middle_from_average": value})
        assert scenario_from_json(doc).options.middle_from_average is value

    @pytest.mark.parametrize("alphas", [[True, 0.5], [1, False]])
    def test_boolean_discounts_are_rejected(self, alphas):
        doc = dict(self.DOC, reliability={"kind": "discounts", "alphas": alphas})
        with pytest.raises(SchemaError) as exc:
            scenario_from_json(doc)
        assert exc.value.pointer == "/reliability/alphas"

    @pytest.mark.parametrize("annotation, pointer", [
        ({"pair": "AB", "rel": "consensus"}, "/annotations/0/pair"),
        ({"pair": ["A", "B", "A|B"], "rel": "consensus"}, "/annotations/0/pair"),
        ({"pair": ["A", 2], "rel": "consensus"}, "/annotations/0/pair"),
        ({"rel": "consensus"}, "/annotations/0/pair"),
        ({"pair": ["A", "B"]}, "/annotations/0/rel"),
        ({"pair": ["A", "B"], "rel": "right_is", "side": ["A"]}, "/annotations/0/side"),
        (["A", "B"], "/annotations/0"),
    ])
    def test_malformed_annotations_name_their_field(self, annotation, pointer):
        doc = dict(self.DOC, annotations=[annotation])
        with pytest.raises(SchemaError) as exc:
            scenario_from_json(doc)
        assert exc.value.pointer == pointer

    @pytest.mark.parametrize("tree, pointer", [
        (["and", True, 2], "/reliability/tree/1"),
        (["and", 1, False], "/reliability/tree/2"),
        (["or", ["and", 1, True], 2], "/reliability/tree/1/2"),
        (["and", 1, "2"], "/reliability/tree/2"),
    ])
    def test_grouping_leaves_must_be_source_numbers(self, tree, pointer):
        doc = dict(self.DOC, reliability={"kind": "mixed_grouping", "tree": tree})
        with pytest.raises(SchemaError) as exc:
            scenario_from_json(doc)
        assert exc.value.pointer == pointer

    def test_grouping_tree_leaves_are_one_based_in_documents(self):
        doc = {
            "frame": ["A", "B"],
            "sources": [
                {"A": 0.2, "B": 0.5, "A|B": 0.3},
                {"A": 0.4, "B": 0.4, "A|B": 0.2},
            ],
            "reliability": {"kind": "mixed_grouping",
                            "tree": ["and", 1, 2]},
        }
        r = uft_fuse(scenario_from_json(doc))
        assert r.mass("A&B") == pytest.approx(0.28)


# Document grouping trees: lists only, with the leaves a JSON document
# can hold and the malformed nodes the reader names.
_DOCUMENT_LEAVES = st.one_of(
    st.integers(-1, 5), st.booleans(),
    st.sampled_from([1.0, None, "2", [], {}, ["xor", 1, 2], ["and", 1], [["and"], 1, 2]]))
_DOCUMENT_TREES = st.recursive(
    _DOCUMENT_LEAVES,
    lambda kids: st.tuples(st.sampled_from(["and", "or"]), kids, kids).map(list),
    max_leaves=8)


class TestGroupingDocuments:
    @settings(max_examples=600, deadline=None)
    @given(_DOCUMENT_TREES, st.integers(1, 5), st.sampled_from(["/grouping", "/reliability/tree"]))
    def test_one_stack_matches_the_recursive_reader(self, tree, n, ptr):
        def outcome(read):
            try:
                return read(tree, ptr, n)
            except SchemaError as exc:
                return type(exc), str(exc), exc.pointer

        assert outcome(_tree_from_json) == outcome(reference_tree_from_json)

    def test_depth_has_no_limit(self):
        tree = 1
        for k in range(2, 5_002):
            tree = ["and", tree, k] if k % 2 else ["or", k, tree]
        node = _tree_from_json(tree, "/grouping", 5_001)
        for k in range(5_001, 1, -1):  # unwound by hand: == on it would recurse
            if k % 2:
                op, node, leaf = node
                assert (op, leaf) == ("and", k - 1)
            else:
                op, leaf, node = node
                assert (op, leaf) == ("or", k - 1)
        assert node == 0
        with pytest.raises(RecursionError):
            reference_tree_from_json(tree, "/grouping", 5_001)


class TestSourceLimit:
    def test_more_sources_than_grid_axes_are_refused(self):
        a = make_bba(Frame(("A", "B")), {"A": 1.0})
        assert uft_fuse(UftScenario(sources=(a,) * 32)).mass("A") == pytest.approx(1.0)
        for n in (33, 65):
            with pytest.raises(InputError, match=f"^{n} sources exceed the limit of 32$"):
                uft_fuse(UftScenario(sources=(a,) * n))


# --- the brackets against the per-term loop ------------------------------------


def _add(acc: dict, bits: int, v: float) -> None:
    acc[bits] = acc.get(bits, 0.0) + v


def _tree_star(node, ops):
    if isinstance(node, int):
        return ops[node]
    op, left, right = node
    x, y = _tree_star(left, ops), _tree_star(right, ops)
    return x & y if op == "and" else x | y


def _step_star(rel: Reliability):
    if rel.kind is ReliabilityKind.MIXED_GROUPING:
        return lambda ops: _tree_star(rel.grouping, ops)
    op = {ReliabilityKind.SOME_UNKNOWN_UNRELIABLE: operator.or_,
          ReliabilityKind.EXACTLY_ONE_RELIABLE_UNKNOWN: operator.xor,
          }.get(rel.kind, operator.and_)
    return lambda ops: reduce(op, ops)


def reference_brackets(scenario: UftScenario):
    """The per-term loop: each term routed through :func:`redistribute`
    and added, term by term, to the fused masses and to the four
    bracket accumulators.  Returns (m_uft masses, audit, deferred,
    {bracket field name: masses})."""
    frame = scenario.frame
    model = scenario.model or EmptinessModel.free(frame)
    ann_by_subject = {a.subject_bits: a for a in scenario.annotations}
    step = scenario.reliability
    sources = scenario.sources
    if step.kind is ReliabilityKind.DISCOUNTS:
        sources = tuple(discount(s, a) for s, a in zip(sources, step.alphas))
    star = _step_star(step)

    fused, deferred, audit = {}, {}, []
    lower_closed, lower_open, middle, upper = {}, {}, {}, {}
    for ops, p in product_terms(sources):
        result = star(ops)
        ann = ann_by_subject.get(result)
        ctx = RedistContext(frame, model, sources, ann, scenario.options)
        if ann is not None:
            rel = ann.rel
        elif model.is_empty(AtomSet(frame, result)):
            rel = Relationship.PESSIMISTIC_BOTH
        else:
            rel = None
        if rel is None:
            targets = [(result, p)]
        else:
            targets = redistribute((ops, result, p), rel, ctx)
            if rel is Relationship.UNKNOWN_DEFAULT and targets == [(result, p)]:
                _add(deferred, result, p)
        for b, v in targets:
            _add(fused, b, v)
        audit.append(TransferRecord(ops, result, p, rel, tuple(targets)))

        and_bits, or_bits = reduce(operator.and_, ops), reduce(operator.or_, ops)
        if result == and_bits and result not in ops:
            _add(lower_closed, frame.universe_bits, p)
            _add(lower_open, 0, p)
            _add(middle, or_bits, p)
            shares = [sources[i].mass(b) for i, b in enumerate(ops)]
            den = math.fsum(shares)
            if den == 0.0:
                _add(upper, or_bits or frame.universe_bits, p)
            else:
                left = p
                for i, (b, w) in enumerate(zip(ops, shares)):
                    x = left if i == len(ops) - 1 else w * p / den
                    _add(upper, b, x)
                    left -= x
        else:
            for acc in (lower_closed, lower_open, middle, upper):
                _add(acc, result, p)

    reduced = {}
    for b, v in fused.items():
        _add(reduced, b & ~model.forced_empty_bits, v)
    if scenario.options.middle_from_average:
        middle = {}
        for acc in (lower_closed, upper):
            for b, v in acc.items():
                _add(middle, b, v / 2)
    brackets = {"m_lower_closed": lower_closed, "m_lower_open": lower_open,
                "m_middle": middle, "m_upper": upper}
    return reduced, audit, sorted(deferred.items()), brackets


# --- the column router against the per-term loop ------------------------------


def _terms_loop(sources):
    """Every product term valued nonzero, in ``itertools.product`` order."""
    for combo in itertools.product(*[s.crisp_items() for s in sources]):
        ops = tuple(b for b, _ in combo)
        p = math.prod(v for _, v in combo)
        if p != 0.0:
            yield ops, p


def reference_redistribute(term, rel: Relationship, ctx: RedistContext):
    """One term routed by its relationship, as :func:`redistribute` did
    before routing moved onto columns."""
    ops, result, p = term
    ann = ctx.annotation
    frame, model = ctx.frame, ctx.model
    union_bits = ann.union_bits if ann is not None else reduce(operator.or_, ops)
    masses = [dict(s.entries) for s in ctx.sources]
    if rel is Relationship.CONSENSUS:
        return [(result, p)]
    if rel in (Relationship.NEITHER_INTERSECTION_NOR_UNION_INTEREST,
               Relationship.OPTIMISTIC_BOTH):
        shares = reference_split(p, [(b, m.get(b, 0.0)) for m, b in zip(masses, ops)])
        if shares is None:
            return [(_union_escalate(frame, reduce(operator.or_, ops), model), p)]
        return shares
    if rel in (Relationship.ONE_RIGHT_UNKNOWN, Relationship.PESSIMISTIC_BOTH):
        return [(_union_escalate(frame, union_bits, model), p)]
    if rel is Relationship.RIGHT_IS:
        return [(ann.side.bits, p)]
    if rel is Relationship.VERY_PESSIMISTIC_CLOSED:
        return [(frame.universe_bits, p)]
    if rel in (Relationship.VERY_PESSIMISTIC_OPEN, Relationship.NEITHER_RIGHT_NO_OTHERS):
        return [(0, p)]
    if rel is Relationship.NEITHER_RIGHT:
        sides = tuple(a.bits for a in ann.pair) if ann is not None else tuple(ops)
        targets = [frame.label_bits(lab) for lab in frame.labels
                   if all(frame.label_bits(lab) & ~s for s in sides)]
        if not targets:
            raise NoOtherHypotheses(
                f"no hypothesis outside {frame.name_of(union_bits)} to receive the mass")
        shares = None
        if ctx.options.neither_right_proportional:
            shares = reference_split(p, [(t, math.fsum(m.get(t, 0.0) for m in masses))
                                         for t in targets])
        return shares or reference_split(p, [(t, 1.0) for t in targets])
    assert rel is Relationship.UNKNOWN_DEFAULT
    if model.is_empty(AtomSet(frame, result)):
        return [(_union_escalate(frame, union_bits, model), p)]
    return [(result, p)]


def reference_uft_fuse(scenario: UftScenario) -> UftResult:
    """:func:`uft_fuse` as the loop over the terms it was before routing
    moved onto columns: each term routed on its own, its audit record
    built, and the genuine intersections filed as ledger entries that
    the four brackets then dispose of one entry at a time."""
    frame = scenario.frame
    model = scenario.model or EmptinessModel.free(frame)
    free = EmptinessModel.free(frame)
    step = scenario.reliability
    sources = scenario.sources
    if step.kind is ReliabilityKind.DISCOUNTS:
        sources = tuple(discount(s, a) for s, a in zip(sources, step.alphas))
    star = _step_star(step)
    plain = RedistContext(frame, model, sources, None, scenario.options)
    contexts = {a.subject_bits: RedistContext(frame, model, sources, a, scenario.options)
                for a in scenario.annotations}
    masses = [dict(s.entries) for s in sources]

    fused, deferred, kept, audit, conflict = {}, {}, {}, [], []
    for ops, p in _terms_loop(sources):
        result = star(ops)
        ctx = contexts.get(result, plain)
        if ctx.annotation is not None:
            rel = ctx.annotation.rel
        elif model.is_empty(AtomSet(frame, result)):
            rel = Relationship.PESSIMISTIC_BOTH
        else:
            rel = None
        if rel is None:
            targets = ((result, p),)
        else:
            targets = tuple(reference_redistribute((ops, result, p), rel, ctx))
            if rel is Relationship.UNKNOWN_DEFAULT and targets == ((result, p),):
                _add(deferred, result, p)
        for b, v in targets:
            _add(fused, b, v)
        audit.append(TransferRecord(ops, result, p, rel, targets))
        if result == reduce(operator.and_, ops) and result not in ops:
            conflict.append((ops, p))
        else:
            _add(kept, result, p)

    reduced: dict = {}
    for b, v in fused.items():
        _add(reduced, b & ~model.forced_empty_bits, v)
    k = math.fsum(p for _, p in conflict)
    lower_closed, lower_open = dict(kept), dict(kept)
    if k:
        _add(lower_closed, frame.universe_bits, k)
        _add(lower_open, 0, k)
    middle, upper = dict(kept), dict(kept)
    for ops, p in conflict:
        union = _union_escalate(frame, reduce(operator.or_, ops), free)
        _add(middle, union, p)
        shares = reference_split(p, [(b, m[b]) for m, b in zip(masses, ops)]) or [(union, p)]
        for b, x in shares:
            _add(upper, b, x)
    if scenario.options.middle_from_average:
        middle = {}
        for acc in (lower_closed, upper):
            for b, v in acc.items():
                _add(middle, b, v / 2)
    return UftResult(
        *(Bba._from_masses(frame, m)
          for m in (reduced, lower_closed, lower_open, middle, upper)),
        audit=tuple(audit), deferred=tuple(sorted(deferred.items())), model=model)


_LABELS = ("A", "B", "C", "D")


@st.composite
def _scenarios(draw):
    n = draw(st.integers(2, 4))
    frame = Frame(_LABELS[:n], draw(st.sampled_from(World)))
    full = frame.universe_bits
    n_sources = draw(st.integers(2, 6))
    sources = []
    for _ in range(n_sources):
        k = draw(st.integers(1, 4 if n_sources < 5 else 3))
        bits = draw(st.lists(st.integers(1, full), min_size=k, max_size=k,
                             unique=True))
        weights = draw(st.lists(st.floats(0.01, 1.0), min_size=k, max_size=k))
        total = sum(weights)
        sources.append(make_bba(frame, [(AtomSet(frame, b), w / total)
                                        for b, w in zip(bits, weights)]))
    forced = draw(st.lists(st.integers(1, full), max_size=2))
    model = draw(st.sampled_from((
        None,
        EmptinessModel.free(frame),
        EmptinessModel.from_exprs(frame, ("A&B",)),
        EmptinessModel.from_exprs(frame, [frame.name_of(b) for b in forced]),
    )))

    kind = draw(st.sampled_from(ReliabilityKind))
    if kind is ReliabilityKind.MIXED_GROUPING:
        def build(items):
            if len(items) == 1:
                return items[0]
            cut = draw(st.integers(1, len(items) - 1))
            return (draw(st.sampled_from(("and", "or"))),
                    build(items[:cut]), build(items[cut:]))
        rel = Reliability.mixed_grouping(
            build(draw(st.permutations(range(n_sources)))))
    elif kind is ReliabilityKind.DISCOUNTS:
        rel = Reliability.discounts(draw(st.lists(
            st.floats(0.0, 1.0), min_size=n_sources, max_size=n_sources)))
    else:
        rel = Reliability(kind)

    focal = sorted({b for s in sources for b, _ in s.entries})
    annotations, subjects = [], set()
    for _ in range(draw(st.integers(0, 3))):
        x, y = (draw(st.sampled_from(focal)) for _ in range(2))
        if x & y in subjects:
            continue
        subjects.add(x & y)
        r = draw(st.sampled_from(Relationship))
        side = AtomSet(frame, x) if r is Relationship.RIGHT_IS else None
        annotations.append(
            Annotation((AtomSet(frame, x), AtomSet(frame, y)), r, side))
    options = UftOptions(neither_right_proportional=draw(st.booleans()),
                         middle_from_average=draw(st.booleans()))
    return UftScenario(tuple(sources), model, rel, tuple(annotations), options)


def _subset_sums(bba: Bba, atoms: int) -> np.ndarray:
    """``f[X]``: the mass of every focal set B within X (B & ~X == 0), for
    every X of the frame, the empty set's mass included."""
    f = np.zeros(1 << atoms)
    for bits, v in bba.entries:
        f[bits] += v
    for i in range(atoms):
        pairs = f.reshape(-1, 2, 1 << i)
        pairs[:, 1, :] += pairs[:, 0, :]
    return f


#: Fixed before the comparison: one bracket's set sums and another's
#: differ only by rounding where they tie.
ORDER_TOL = 1e-9


class TestBracketOrdering:
    """The pessimism brackets (§1.6) over every scenario of the corpus:
    the lower bracket sends conflict to ignorance, the middle to the
    union of its operands and the upper splits it among them, so belief
    rises and plausibility falls from lower to upper."""

    @staticmethod
    def fused(scenario):
        try:
            return uft_fuse(scenario)
        except NoOtherHypotheses:
            return None

    @given(_scenarios())
    @settings(max_examples=200, deadline=None)
    def test_belief_rises_and_plausibility_falls_from_lower_to_upper(self, scenario):
        r = self.fused(scenario)
        if r is None:
            return
        atoms, full = scenario.frame.atom_count, scenario.frame.universe_bits
        sums = [_subset_sums(b, atoms) for b in (r.m_lower_closed, r.m_middle, r.m_upper)]
        bel = [f[:full] - f[0] for f in sums]  # every X but the universe
        xs = np.arange(1, full + 1)  # every X but the empty set
        pl = [f[full] - f[full ^ xs] for f in sums]
        for name, seq in (("belief", bel), ("plausibility", pl[::-1])):
            for a, b in zip(seq, seq[1:]):
                worst = int(np.argmax(a - b))
                assert a[worst] <= b[worst] + ORDER_TOL, (name, worst)

    @given(_scenarios())
    @settings(max_examples=200, deadline=None)
    def test_fused_and_deferred_mass_is_conserved(self, scenario):
        # The corpus draws every reliability kind.
        r = self.fused(scenario)
        if r is None:
            return
        total = math.prod(s.total() for s in scenario.sources)
        assert r.m_uft.total() == pytest.approx(total, abs=ORDER_TOL, rel=0)
        assert sum(v for _, v in r.deferred) <= total + ORDER_TOL
        for bits, v in r.deferred:
            assert v <= r.mass(bits) + ORDER_TOL


@st.composite
def _routed_terms(draw):
    """One term over the sources of a corpus scenario, a relationship and
    its context, with or without an annotation.  Half the terms draw
    their operands from the sets their sources give no mass, so a
    proportional split falls back to the union."""
    scenario = draw(_scenarios())
    frame, sources = scenario.frame, scenario.sources
    full = frame.universe_bits
    focal = [[b for b, _ in s.entries] for s in sources]
    if draw(st.booleans()):
        ops = tuple(draw(st.sampled_from([b for b in range(full + 1) if b not in f]))
                    for f in focal)
    else:
        ops = tuple(draw(st.sampled_from(f) | st.integers(0, full)) for f in focal)
    result = draw(st.sampled_from((reduce(operator.and_, ops), reduce(operator.or_, ops)))
                  | st.integers(0, full))
    rel = draw(st.sampled_from(Relationship))
    ann = None
    if draw(st.booleans()):
        x, y = (AtomSet(frame, draw(st.integers(1, full))) for _ in range(2))
        ann = Annotation((x, y), rel, x if rel is Relationship.RIGHT_IS else None)
    ctx = RedistContext(frame, scenario.model or EmptinessModel.free(frame), sources,
                        ann, scenario.options)
    return (ops, result, draw(st.floats(0.0, 1.0))), rel, ctx


class TestRedistributeAgainstItsOracle:
    @given(_routed_terms())
    @settings(max_examples=300, deadline=None)
    def test_redistribute_is_the_one_term_loop(self, case):
        term, rel, ctx = case
        if rel is Relationship.RIGHT_IS and ctx.annotation is None:
            with pytest.raises(InputError, match="^right_is needs an annotated side$"):
                redistribute(term, rel, ctx)
            return
        try:
            want = reference_redistribute(term, rel, ctx)
        except NoOtherHypotheses as exc:
            with pytest.raises(NoOtherHypotheses, match=f"^{re.escape(str(exc))}$"):
                redistribute(term, rel, ctx)
            return
        got = redistribute(term, rel, ctx)
        assert got == want
        assert all(type(b) is int and type(x) is float for b, x in got)


#: Fixed before the comparison: the brackets may pool kept mass before
#: disposing of the conflict, so they agree to rounding, not bit for bit.
BRACKET_TOL = 1e-12


class TestBracketsAgainstTheTermLoop:
    @given(_scenarios())
    @settings(max_examples=150, deadline=None)
    def test_routing_exact_and_brackets_within_tolerance(self, scenario):
        try:
            want = reference_brackets(scenario)
        except NoOtherHypotheses:
            with pytest.raises(NoOtherHypotheses):
                uft_fuse(scenario)
            return
        fused, audit, deferred, brackets = want
        got = uft_fuse(scenario)
        assert got.m_uft == Bba._from_masses(scenario.frame, fused)
        assert list(got.audit) == audit
        assert list(got.deferred) == deferred
        for name, masses in brackets.items():
            have = dict(getattr(got, name).entries)
            for b in set(have) | set(masses):
                assert have.get(b, 0.0) == pytest.approx(
                    masses.get(b, 0.0), abs=BRACKET_TOL, rel=0), (name, b)


class TestUftAgainstTheTermLoop:
    @given(_scenarios())
    @settings(max_examples=200, deadline=None)
    def test_every_mass_bracket_and_record_is_bit_identical(self, scenario):
        try:
            want = reference_uft_fuse(scenario)
        except NoOtherHypotheses as exc:
            with pytest.raises(NoOtherHypotheses, match=f"^{re.escape(str(exc))}$"):
                uft_fuse(scenario)
            return
        got = uft_fuse(scenario)
        for name in ("m_uft", "m_lower_closed", "m_lower_open", "m_middle", "m_upper"):
            assert getattr(got, name) == getattr(want, name), name
        assert got.deferred == want.deferred
        assert len(got.audit) == len(want.audit)
        assert got.audit == want.audit
        assert got.model == want.model


class _CountingRecord(TransferRecord):
    """Stand-in for :class:`TransferRecord` that counts its instances."""

    made = 0

    def __init__(self, *args):
        type(self).made += 1
        super().__init__(*args)


class TestLazyAudit:
    @pytest.fixture(autouse=True)
    def counting(self, monkeypatch):
        monkeypatch.setattr(uft_module, "TransferRecord", _CountingRecord)
        _CountingRecord.made = 0

    def scenario(self):
        return scenario_from_json(json.loads((DATA / "deep" / "uft_discounts.json").read_text()))

    def test_len_builds_no_record(self):
        result = uft_fuse(self.scenario())
        assert len(result.audit) == 192
        assert _CountingRecord.made == 0
        want = reference_uft_fuse(self.scenario()).audit
        assert _CountingRecord.made == 0
        assert astuple(result.audit[0]) == astuple(want[0])
        assert _CountingRecord.made == 192

    @pytest.mark.parametrize("fmt", ["csv", "text", "json"])
    def test_cli_formats_build_no_record(self, fmt, capsys):
        assert cli_main(["uft", "--format", fmt,
                         str(DATA / "deep" / "uft_discounts.json")]) == 0
        assert capsys.readouterr().out
        assert _CountingRecord.made == 0

    def test_write_json_builds_no_record(self):
        result = uft_fuse(self.scenario())
        assert result.write_json() == generic_json(result)
        assert _CountingRecord.made == len(result.audit)  # only to_json built them

    def test_records_are_built_once(self):
        audit = uft_fuse(self.scenario()).audit
        assert list(audit) == list(audit)
        assert audit == tuple(audit) and hash(audit) == hash(tuple(audit))
        assert _CountingRecord.made == 192


# --- the audit writer against the generic encoder ------------------------------

DATA = pathlib.Path(__file__).parent / "data"


def _data_results():
    """The fused result of every data file that ``uft`` accepts."""
    out = []
    for path in sorted(DATA.glob("*.json")):
        try:
            result = uft_fuse(scenario_from_json(json.loads(path.read_text())))
        except (json.JSONDecodeError, FusionKitError):
            continue
        out.append(pytest.param(result, id=path.name))
    return out


DATA_RESULTS = _data_results()


def generic_json(result: UftResult) -> str:
    return json.dumps(result.to_json(), indent=2)


class TestWriteJson:
    def test_most_data_files_are_scenarios(self):
        assert len(DATA_RESULTS) >= 7

    @pytest.mark.parametrize("result", DATA_RESULTS)
    def test_data_scenarios(self, result):
        assert result.write_json() == generic_json(result)

    @given(_scenarios())
    @settings(max_examples=100, deadline=None)
    def test_scenario_corpus(self, scenario):
        try:
            result = uft_fuse(scenario)
        except NoOtherHypotheses:
            return
        assert result.write_json() == generic_json(result)

    @pytest.mark.parametrize("model", [None, ("A&B",)])
    def test_edge_values_and_empty_lists(self, model):
        frame = Frame(("A", "B"))
        b = make_bba(frame, {"A": 0.25, "B": 0.5, "A|B": 0.25})
        model = model and EmptinessModel.from_exprs(frame, model)
        records = (
            TransferRecord((1, 2), 0, -0.0, None, ((0, -0.0),)),
            TransferRecord((1, 3), 1, 5e-324, Relationship.RIGHT_IS, ((1, 5e-324),)),
            TransferRecord((3, 3), 3, 1e16, Relationship.NEITHER_RIGHT,
                           ((1, 1e16), (2, 0.1))),
            # not finite floats: json.dumps's own spelling
            TransferRecord((), 3, math.nan, Relationship.CONSENSUS, ()),
            TransferRecord((3,), 3, 1, None, ((3, -math.inf),)),
        )
        for audit, deferred in (((), ()), (records, ((0, -0.0), (3, 1e16)))):
            result = UftResult(b, b, b, b, b, audit, deferred, model)
            assert result.write_json() == generic_json(result)


class TestOutsideValues:
    """Each number the scenario layer takes is read by ``errors.real`` and
    each set key by ``Frame.atoms_of``; what they refuse is an InputError
    with the site's own message."""

    def test_result_mass_reads_text_sets_and_bitmasks(self):
        frame, s1, s2 = two_label_sources()
        r = fuse_pair(frame, s1, s2, None, Relationship.CONSENSUS)
        a_and_b = frame.atoms_of("A&B")
        assert r.mass("A&B") == r.mass(a_and_b) == r.mass(a_and_b.bits) > 0.0

    @pytest.mark.parametrize("key", [1.9, None, True], ids=repr)
    def test_result_mass_refuses_other_keys(self, key):
        frame, s1, s2 = two_label_sources()
        r = fuse_pair(frame, s1, s2, None, Relationship.CONSENSUS)
        with pytest.raises(InputError, match="^bits must be an int"):
            r.mass(key)

    @pytest.mark.parametrize("p", [10 ** 400, -10 ** 400], ids=["+big", "-big"])
    def test_a_term_mass_too_large_for_a_float_is_refused(self, p):
        frame, s1, s2 = two_label_sources()
        ctx = RedistContext(frame, EmptinessModel.free(frame), (s1, s2))
        with pytest.raises(InputError, match="^term mass must be a finite number"):
            redistribute(((1, 2), 0, p), Relationship.CONSENSUS, ctx)

    def test_a_boolean_target_weight_is_refused(self):
        b = make_bba(Frame(("A", "B")), {"A&B": 0.5, "A": 0.5})
        with pytest.raises(InputError, match="^target weight must be a finite number"):
            reroute_mass(b, "A&B", [("A", True), ("B", 1.0)])

    def test_numpy_and_integer_target_weights_are_numbers(self):
        b = make_bba(Frame(("A", "B")), {"A&B": 0.5, "A": 0.5})
        want = reroute_mass(b, "A&B", [("A", 1.0), ("B", 3.0)])
        assert reroute_mass(b, "A&B", [("A", np.float64(1.0)), ("B", 3)]) == want

    @pytest.mark.parametrize("alphas", [["0.5", True], [1.0, None], 0.5, "1"], ids=repr)
    def test_discount_factors_that_are_not_numbers_are_refused(self, alphas):
        with pytest.raises(InputError, match="^discount factors must be numbers$"):
            Reliability.discounts(alphas)

    def test_discount_factors_are_read_as_floats(self):
        alphas = Reliability.discounts((1, np.float64(0.8), 10 ** 400)).alphas
        assert alphas == (1.0, 0.8, math.inf)
        assert all(type(a) is float for a in alphas)

    @pytest.mark.parametrize("alphas", [["0.5", 1], [1, None], "0.5", {"0": 1}], ids=repr)
    def test_document_discounts_that_are_not_numbers_are_refused(self, alphas):
        doc = dict(TestJsonScenario.DOC, reliability={"kind": "discounts", "alphas": alphas})
        with pytest.raises(SchemaError) as exc:
            scenario_from_json(doc)
        assert str(exc.value) == "/reliability/alphas: discounts need a list of numbers"

    def test_integer_document_discounts_fuse_as_floats(self):
        docs = [dict(TestJsonScenario.DOC, reliability={"kind": "discounts", "alphas": a})
                for a in ([1, 0], [1.0, 0.0])]
        fused = [uft_fuse(scenario_from_json(doc)) for doc in docs]
        assert fused[0].m_uft == fused[1].m_uft


class TestDeepReliability:
    """Equality and hashing read a grouping tree by ``rules._tree_nodes``,
    so two separately built deep trees compare without recursion."""

    @staticmethod
    def chain(n, last=0):
        tree = last
        for k in range(1, n):
            tree = ("and", tree, k) if k % 2 else ("or", k, tree)
        return tree

    def test_equal_deep_trees(self):
        a = Reliability.mixed_grouping(self.chain(5_000))
        b = Reliability.mixed_grouping(self.chain(5_000))
        assert a.grouping is not b.grouping
        assert a == b and not a != b
        assert hash(a) == hash(b)

    def test_unequal_deep_trees(self):
        a = Reliability.mixed_grouping(self.chain(5_000))
        assert a != Reliability.mixed_grouping(self.chain(5_000, last=-1))
        assert a != Reliability.mixed_grouping(self.chain(4_999))
        assert a != Reliability.some_unknown_unreliable()

    def test_deep_values_can_be_shown(self):
        text = repr(Reliability.mixed_grouping(self.chain(5_000)))
        assert text.startswith("Reliability(kind=<ReliabilityKind.MIXED_GROUPING: "
                               "'mixed_grouping'>, grouping=('and', ('or', 4998, ('and', ")
        assert text.endswith("), 4999), alphas=None)")
        assert text.count("'and'") + text.count("'or'") == 4_999

    def test_reprs_read_as_the_fields(self):
        for value in (Reliability(), Reliability.discounts([1, 0.5]),
                      Reliability.mixed_grouping(("and", 0, ("or", 1, 2))),
                      Reliability.mixed_grouping(["and", 0, 1]),
                      Reliability.mixed_grouping(self.chain(7))):
            assert repr(value) == (f"Reliability(kind={value.kind!r}, "
                                   f"grouping={value.grouping!r}, alphas={value.alphas!r})")

    @pytest.mark.parametrize("protocol", [0, pickle.HIGHEST_PROTOCOL])
    def test_values_survive_a_pickle_round_trip(self, protocol):
        deep = Reliability.mixed_grouping(self.chain(5_000))
        for value in (deep, Reliability(), Reliability.discounts([1, 0.5]),
                      Reliability.mixed_grouping(["or", 1, 0])):
            back = pickle.loads(pickle.dumps(value, protocol))
            assert back == value and back._key() == value._key()
            assert type(back.grouping) is type(value.grouping)
        scenario = scenario_from_json(dict(TestJsonScenario.DOC))
        scenario = replace(scenario, reliability=deep)
        back = pickle.loads(pickle.dumps(scenario))
        assert back.reliability == deep

    def test_shallow_values_compare_as_their_fields(self):
        assert Reliability() == Reliability.all_reliable()
        assert Reliability.discounts([1, 0.5]) == Reliability.discounts((1.0, 0.5))
        assert Reliability.discounts([1, 0.5]) != Reliability.discounts([0.5, 1])
        tree = ("and", 0, ("or", 1, 2))
        assert Reliability.mixed_grouping(tree) == Reliability.mixed_grouping(
            ("and", 0, ("or", 1, 2)))
        assert Reliability.mixed_grouping(tree) != Reliability.mixed_grouping(
            ("or", 0, ("and", 1, 2)))
        assert Reliability.mixed_grouping(("and", 0, 1)) != Reliability.mixed_grouping(
            ["and", 0, 1])
        assert Reliability() != ReliabilityKind.ALL_RELIABLE
