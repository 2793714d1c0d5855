"""Shared builders for recurring fusion scenarios and synthetic images."""

import numpy as np
import pytest

from fusionkit import (
    Annotation,
    EmptinessModel,
    Frame,
    GrayImage,
    Relationship,
    Reliability,
    UftScenario,
    make_bba,
)


def pytest_collection_modifyitems(items):
    """Let a failing Hypothesis test print its falsifying example under
    ``-W error``.  To report one, the Hypothesis plugin imports libcst,
    whose import raises this DeprecationWarning from mypy_extensions;
    as an error it ends the run in INTERNALERROR and drops the report.
    A ``filterwarnings`` line in pyproject.toml would not do: pytest
    ranks the command line's ``-W`` above it, and a marker above both."""
    ignore = pytest.mark.filterwarnings(
        "ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning")
    for item in items:
        item.add_marker(ignore)


def two_label_sources(frame=None):
    """A pair of sources over {A, B} with mass on both singletons and
    their union.  Used throughout the relationship-catalog tests."""
    frame = frame or Frame(("A", "B"))
    s1 = make_bba(frame, {"A": 0.2, "B": 0.5, "A|B": 0.3})
    s2 = make_bba(frame, {"A": 0.4, "B": 0.4, "A|B": 0.2})
    return frame, s1, s2


def four_label_sources():
    """The same pair embedded in a four-hypothesis frame, leaving two
    hypotheses untouched by either source."""
    frame = Frame(("A", "B", "C", "D"))
    s1 = make_bba(frame, {"A": 0.2, "B": 0.5, "A|B": 0.3})
    s2 = make_bba(frame, {"A": 0.4, "B": 0.4, "A|B": 0.2})
    return frame, s1, s2


def bayesian_scenario():
    """Two Bayesian sources over five hypotheses with a different
    pairwise relationship declared for almost every overlap."""
    frame = Frame(("A", "B", "C", "D", "E"))
    m1 = make_bba(frame, {"A": 0.2, "C": 0.3, "D": 0.4, "E": 0.1})
    m2 = make_bba(frame, {"A": 0.5, "B": 0.2, "C": 0.1, "E": 0.2})
    model = EmptinessModel.from_exprs(
        frame, ("A&C", "A&D", "A&E", "B&D", "C&D", "C&E", "D&E")
    )
    a = frame.atoms_of
    annotations = (
        Annotation((a("A"), a("B")), Relationship.CONSENSUS),
        Annotation((a("A"), a("C")), Relationship.OPTIMISTIC_BOTH),
        Annotation((a("A"), a("D")), Relationship.ONE_RIGHT_UNKNOWN),
        Annotation((a("A"), a("E")), Relationship.RIGHT_IS, side=a("A")),
        Annotation((a("B"), a("C")), Relationship.UNKNOWN_DEFAULT),
        Annotation(
            (a("B"), a("E")),
            Relationship.NEITHER_INTERSECTION_NOR_UNION_INTEREST,
        ),
        Annotation((a("C"), a("D")), Relationship.PESSIMISTIC_BOTH),
        Annotation((a("C"), a("E")), Relationship.VERY_PESSIMISTIC_CLOSED),
        Annotation((a("D"), a("E")), Relationship.NEITHER_RIGHT),
    )
    scenario = UftScenario(
        (m1, m2),
        model=model,
        reliability=Reliability.all_reliable(),
        annotations=annotations,
    )
    return frame, m1, m2, model, scenario


def negation_scenario():
    """Two sources whose focal elements include a complement and nested
    composites, under a model where A excludes B and C lies inside B."""
    frame = Frame(("A", "B", "C", "D"))
    model = EmptinessModel.from_exprs(frame, ("A&B", "C&~B"))
    m1 = make_bba(frame, {"A": 0.2, "B": 0.3, "~B": 0.1, "A&C": 0.1, "B|C": 0.3})
    m2 = make_bba(frame, {"A": 0.4, "B": 0.1, "~B": 0.2, "A&C": 0.2, "B|C": 0.1})
    a = frame.atoms_of
    annotations = (
        Annotation((a("A"), a("C")), Relationship.UNKNOWN_DEFAULT),
        Annotation((a("A"), a("B")), Relationship.OPTIMISTIC_BOTH),
        Annotation((a("A"), a("~B")), Relationship.CONSENSUS),
        Annotation((a("A"), a("B|C")), Relationship.ONE_RIGHT_UNKNOWN),
        Annotation((a("B"), a("~B")), Relationship.RIGHT_IS, side=a("B")),
        Annotation((a("~B"), a("A&C")), Relationship.VERY_PESSIMISTIC_CLOSED),
        Annotation((a("~B"), a("B|C")), Relationship.NEITHER_RIGHT),
    )
    scenario = UftScenario(
        (m1, m2),
        model=model,
        reliability=Reliability.all_reliable(),
        annotations=annotations,
    )
    return frame, m1, m2, model, scenario


def overlap_sources():
    """Two sources over {A, B}: one backs A, the other backs B, both
    hedge with the union."""
    frame = Frame(("A", "B"))
    m1 = make_bba(frame, {"A": 0.3, "A|B": 0.7})
    m2 = make_bba(frame, {"B": 0.6, "A|B": 0.4})
    model = EmptinessModel.from_exprs(frame, ("A&B",))
    return frame, m1, m2, model


def exclusive_triple_sources():
    """Three mutually exclusive hypotheses; the second source only
    separates the middle one from the other two."""
    frame = Frame(("O1", "O2", "O3"))
    m1 = make_bba(frame, {"O1": 0.2, "O2": 0.2, "O3": 0.3, "O1|O2|O3": 0.3})
    m2 = make_bba(frame, {"O2": 0.4, "O1|O3": 0.6})
    model = EmptinessModel.exclusive(frame)
    return frame, m1, m2, model


def flat_with_squares(size=128, background=30, foreground=220):
    """Flat background with two separated bright squares."""
    px = np.full((size, size), background, dtype=np.uint8)
    q = size // 8
    px[q : 3 * q, q : 3 * q] = foreground
    px[5 * q : 7 * q, 5 * q : 7 * q] = foreground
    return GrayImage(px)


def salt_pepper(img, fraction=0.02, seed=7):
    """Corrupt a fixed fraction of pixels with extreme values.

    Returns the noisy image and the corrupted (row, col) index arrays.
    """
    rng = np.random.default_rng(seed)
    px = np.array(img.pixels)
    count = int(round(fraction * px.size))
    flat = rng.choice(px.size, size=count, replace=False)
    rows, cols = np.unravel_index(flat, px.shape)
    values = np.where(rng.random(count) < 0.5, 0, 255).astype(np.uint8)
    px[rows, cols] = values
    return GrayImage(px), (rows, cols)
