"""Shared builders for recurring fusion scenarios and synthetic images,
and the reference forms the library's table and engine code is checked
against: the recursive-descent expression parser, the one-term
proportional split, the T-norm and T-conorm if-chains on floats, the
interval conjunction's loop over entries, the UFT audit writers'
one f-string per record, the test of what counts as a number, the recursive ``neutro eval`` reader, the recursive
grouping-tree readers, the graded and k-law operators by
inclusion-exclusion, the gamma-median by full-plane median filters and
the PGM reader's byte-stepping tokenizer."""

import json
import math
import numbers
import operator
import re

import numpy as np
import pytest
from scipy import ndimage

from fusionkit import (
    Annotation,
    Bba,
    EmptinessModel,
    Frame,
    GrayImage,
    Relationship,
    Reliability,
    TConorm,
    TNorm,
    UftScenario,
    make_bba,
)
from fusionkit.algebra import _IDENT_RE, EMPTY_NAME, _is_int
from fusionkit.errors import (
    BadDimensions,
    BadGrouping,
    BadMagic,
    ExprSyntaxError,
    FrameMismatch,
    InputError,
    SchemaError,
    TruncatedData,
    enum_member,
)
from fusionkit.neutro import NsRecipe, NsTriple, n_conorm, n_norm, ns_not
from fusionkit.nimage import NsImage, _indeterminacy


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


_REFERENCE_TOKEN_RE = re.compile(r"\s*([A-Za-z_][A-Za-z0-9_]*|[()&|~\\])")


def _reference_tokenize(text: str) -> list[str]:
    out, pos = [], 0
    while pos < len(text):
        m = _REFERENCE_TOKEN_RE.match(text, pos)
        if not m:
            if text[pos:].strip() == "":
                break
            raise ExprSyntaxError(f"bad character {text[pos:].lstrip()[0]!r} in {text!r}")
        out.append(m.group(1))
        pos = m.end()
    return out


class _ReferenceParser:
    def __init__(self, frame, text: str):
        self.frame = frame
        self.tokens = _reference_tokenize(text)
        self.pos = 0
        self.text = text

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def parse(self) -> int:
        if not self.tokens:
            raise ExprSyntaxError("empty expression")
        bits = self.expr()
        if self.peek() is not None:
            raise ExprSyntaxError(f"trailing input at {self.peek()!r} in {self.text!r}")
        return bits

    def expr(self) -> int:
        bits = self.term()
        while self.peek() in ("|", "\\"):
            op = self.take()
            rhs = self.term()
            bits = bits | rhs if op == "|" else bits & ~rhs
        return bits

    def term(self) -> int:
        bits = self.factor()
        while self.peek() == "&":
            self.take()
            bits &= self.factor()
        return bits

    def factor(self) -> int:
        tok = self.take()
        if tok is None:
            raise ExprSyntaxError(f"unexpected end of expression in {self.text!r}")
        if tok == "~":
            return self.frame.universe_bits & ~self.factor()
        if tok == "(":
            bits = self.expr()
            if self.take() != ")":
                raise ExprSyntaxError(f"missing ')' in {self.text!r}")
            return bits
        if tok == EMPTY_NAME:
            return 0
        if _IDENT_RE.fullmatch(tok):
            return self.frame.label_bits(tok)
        raise ExprSyntaxError(f"unexpected token {tok!r} in {self.text!r}")


def reference_parse_bits(frame, text: str) -> int:
    """The mask of a set expression by recursive descent: a ``re.match``
    tokenizer loop, then one method per grammar level (``expr`` for
    ``|`` and ``\\``, ``term`` for ``&``, ``factor`` for ``~``,
    parentheses and labels).  It recurses per parenthesis and per ``~``,
    so deep nesting raises ``RecursionError``.  This is the form that
    ``fusionkit.algebra._parse_bits`` replaces."""
    return _ReferenceParser(frame, text).parse()


def _reference_json_list(items: list, indent: int) -> str:
    if not items:
        return "[]"
    pad = " " * (indent + 2)
    return f"[\n{pad}" + f",\n{pad}".join(items) + f"\n{pad[:-2]}]"


def _reference_json_number(v) -> str:
    if type(v) is float and math.isfinite(v):
        return float.__repr__(v)
    return json.dumps(v)


def reference_write_json(result) -> str:
    """``UftResult.write_json`` record by record: the bba sections by
    ``json.dumps``, then one f-string per ``TransferRecord`` of
    ``result.audit`` and per deferred pair."""
    frame = result.m_uft.frame

    def name(bits) -> str:
        return json.dumps(frame.name_of(bits))

    def pair(bits, v, indent: int) -> str:
        return _reference_json_list([name(bits), _reference_json_number(v)], indent)

    def record(t) -> str:
        ops = _reference_json_list([name(b) for b in t.operands], 6)
        targets = _reference_json_list([pair(b, v, 8) for b, v in t.targets], 6)
        rel = json.dumps(t.relationship.value if t.relationship else "kept")
        return (f'{{\n      "operands": {ops},\n      "result": {name(t.result)},'
                f'\n      "mass": {_reference_json_number(t.mass)},'
                f'\n      "relationship": {rel},'
                f'\n      "targets": {targets}\n    }}')

    head = json.dumps(result._bba_sections(), indent=2)  # ends "\n}"
    audit = _reference_json_list([record(t) for t in result.audit], 2)
    deferred = _reference_json_list([pair(b, v, 4) for b, v in result.deferred], 2)
    return f'{head[:-2]},\n  "audit": {audit},\n  "deferred": {deferred}\n}}'


def reference_transfers(result) -> str:
    """``UftResult.write_transfers`` record by record: one f-string per
    ``TransferRecord`` of ``result.audit``."""
    name = result.m_uft.frame.name_of
    lines = ["transfers:"]
    for t in result.audit:
        ops = " , ".join([name(b) for b in t.operands])
        targets = ", ".join([f"{name(b)}: {v:.3f}" for b, v in t.targets])
        rel = t.relationship.value if t.relationship else "kept"
        lines.append(f"  ({ops}) {t.mass:.3f} [{rel}] -> {targets}")
    return "\n".join(lines)


def reference_split(v: float, parts):
    """``v`` shared over ``parts`` ((target, weight), ...) in proportion
    to the weights, targets in input order, or None when the weights sum
    to zero.  Weights whose sum overflows are split by their ratios to
    the largest.  The last target takes the remainder, so the k shares
    sum to ``v`` within (k-1) ulp(v): one rounding per remainder step.
    This is the one-term form of ``fusionkit.rules._split_columns``.
    """
    targets = [target for target, _ in parts]
    ws = [w for _, w in parts]
    try:
        den = math.fsum(ws)
    except OverflowError:
        top = max(ws)
        ws = [w / top for w in ws]
        den = math.fsum(ws)
    if den == 0.0:
        return None
    last = len(targets) - 1
    out, left = [], v
    for i, (target, w) in enumerate(zip(targets, ws)):
        x = left if i == last else w * v / den
        out.append((target, x))
        left -= x
    return out


def reference_is_real(value) -> bool:
    """Whether ``value`` is a :class:`numbers.Real` other than a bool: the
    values ``fusionkit.errors.real`` reads as a float."""
    return type(value) in (float, int) or (isinstance(value, numbers.Real)
                                           and not isinstance(value, bool))


def reference_tnorm(kind, a, b):
    """Each T-norm on two floats, written out as its own formula."""
    if kind is TNorm.MIN:
        return min(a, b)
    if kind is TNorm.PRODUCT:
        return a * b
    if kind is TNorm.BOUNDED:
        return max(0.0, a + b - 1.0)
    raise InputError(f"unknown T-norm {kind!r}")


def reference_tconorm(kind, a, b):
    """Each T-conorm on two floats, written out as its own formula."""
    if kind is TConorm.MAX:
        return max(a, b)
    if kind is TConorm.PROB_SUM:
        return a + b - a * b
    if kind is TConorm.BOUNDED_SUM:
        return min(1.0, a + b)
    raise InputError(f"unknown T-conorm {kind!r}")


def reference_conjunctive_intervals(m1, m2):
    """The interval conjunction as a loop over the two sources' entries:
    each pair's endpoint products added to its intersection from 0.0,
    in the order of :func:`itertools.product`."""
    if m1.frame != m2.frame:
        raise FrameMismatch("sources disagree on the frame")

    def as_iv(v):
        return v if isinstance(v, tuple) else (v, v)

    acc: dict = {}
    for b1, v1 in m1.entries:
        lo1, hi1 = as_iv(v1)
        for b2, v2 in m2.entries:
            lo2, hi2 = as_iv(v2)
            bits = b1 & b2
            lo, hi = acc.get(bits, (0.0, 0.0))
            acc[bits] = (lo + lo1 * lo2, hi + hi1 * hi2)
    out = {bits: (lo, hi) if lo != hi else lo for bits, (lo, hi) in acc.items()}
    return Bba._from_masses(m1.frame, out)


class _ReferenceNsParser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def _skip(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def _expect(self, ch: str):
        self._skip()
        if self.pos >= len(self.text) or self.text[self.pos] != ch:
            raise InputError(
                f"expected {ch!r} at position {self.pos} in {self.text!r}"
            )
        self.pos += 1

    def _word(self) -> str:
        self._skip()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isalpha():
            self.pos += 1
        return self.text[start:self.pos]

    def _number(self) -> float:
        self._skip()
        start = self.pos
        while self.pos < len(self.text) and (
            self.text[self.pos].isdigit() or self.text[self.pos] in ".eE+-"
        ):
            self.pos += 1
        try:
            return float(self.text[start:self.pos])
        except ValueError:
            raise InputError(f"bad number at position {start}") from None

    def parse(self) -> NsTriple:
        value = self._expr()
        self._skip()
        if self.pos != len(self.text):
            raise InputError(f"trailing input at position {self.pos}")
        return value

    def _expr(self) -> NsTriple:
        self._skip()
        if self.pos < len(self.text) and self.text[self.pos] == "(":
            self._expect("(")
            t, i, f = self._number(), None, None
            self._expect(",")
            i = self._number()
            self._expect(",")
            f = self._number()
            self._expect(")")
            return NsTriple(t, i, f)
        word = self._word()
        if word == "not":
            self._expect("(")
            inner = self._expr()
            self._expect(")")
            return ns_not(inner)
        if word in ("and", "or"):
            self._expect("[")
            recipe = enum_member(NsRecipe, self._word(), "recipe")
            self._expect("]")
            self._expect("(")
            x = self._expr()
            self._expect(",")
            y = self._expr()
            self._expect(")")
            op = n_norm if word == "and" else n_conorm
            return op(recipe, x, y)
        raise InputError(f"expected a triple or operator, got {word!r}")


def reference_ns_eval(text: str) -> NsTriple:
    """The value of a ``neutro eval`` expression by recursive descent:
    one method per step (whitespace, an expected character, a word, a
    number) and ``_expr`` calling itself once per nested operand, so
    deep nesting raises ``RecursionError``.  This is the form that
    ``fusionkit.cli._ns_eval`` replaces."""
    return _ReferenceNsParser(text).parse()


def _prod_of_sums(*vectors):
    """P(v1, ..., vm): the product over the indices of v1[i] + ... + vm[i]."""
    return math.prod(map(sum, zip(*vectors)))


def reference_klaw_mixed(z, w):
    """``klaw_mixed`` by inclusion-exclusion: P(z, w) - P(z) - P(w).  On
    floats the terms cancel, so the absolute error scales with P(z, w);
    on Fractions the value is exact."""
    return _prod_of_sums(z, w) - math.prod(z) - math.prod(w)


def reference_klaw3(z, w, u):
    """``klaw3`` by inclusion-exclusion: P(z,w,u) - P(z,w) - P(w,u) -
    P(z,u) + P(z) + P(w) + P(u), and 0.0 for k < 3."""
    if len(z) < 3:
        return 0.0
    return (_prod_of_sums(z, w, u) - _prod_of_sums(z, w) - _prod_of_sums(w, u)
            - _prod_of_sums(z, u) + math.prod(z) + math.prod(w) + math.prod(u))


def reference_combine_graded(order, rows):
    """``ns_combine_graded``'s (t, i, f) over ``rows`` of (t, i, f)
    numbers: with A, B, C the component columns in ``order``, weakest
    first, they get P(A), P(A, B) - P(A) and P(A, B, C) - P(A, B)."""
    a, b, c = ([dict(zip("tif", row))[name] for row in rows] for name in order)
    p_a, p_ab = _prod_of_sums(a), _prod_of_sums(a, b)
    acc = dict(zip(order, (p_a, p_ab - p_a, _prod_of_sums(a, b, c) - p_ab)))
    return acc["t"], acc["i"], acc["f"]


def reference_grouping(tree, n: int, where: str = ""):
    """The grouping star as a chain of closures, one per node, built by
    recursion over the tree (the form ``fusionkit.rules._grouping``
    replaces; deep trees raise ``RecursionError``)."""
    seen: set = set()

    def build(node):
        if _is_int(node):
            if not 0 <= node < n:
                raise BadGrouping(f"source index {node} out of range")
            if node in seen:
                raise BadGrouping(f"source index {node} used twice")
            seen.add(node)
            return operator.itemgetter(node)
        if not (isinstance(node, (list, tuple)) and len(node) == 3
                and node[0] in ("and", "or")):
            raise BadGrouping(f"bad grouping node {node!r}")
        op = operator.and_ if node[0] == "and" else operator.or_
        left, right = build(node[1]), build(node[2])
        return lambda ops: op(left(ops), right(ops))

    star = build(tree)
    if len(seen) != n:
        raise BadGrouping("every source must appear exactly once" + where)
    return star


def reference_tree_from_json(tree, ptr: str, n: int):
    """A document's grouping tree read by recursion (the form
    ``fusionkit.uft._tree_from_json`` replaces): 1-based leaves become
    0-based, errors carry the node's JSON pointer."""
    seen: set = set()

    def build(node, ptr: str):
        if isinstance(node, bool):
            raise SchemaError(ptr, "grouping leaf must be a source number, got "
                              + json.dumps(node))
        if isinstance(node, int):
            if node in seen or not 1 <= node <= n:
                raise SchemaError(ptr, f"source {node} " + (
                    "used twice" if node in seen else f"out of range 1..{n}"))
            seen.add(node)
            return node - 1
        if isinstance(node, list) and len(node) == 3 and node[0] in ("and", "or"):
            return node[0], build(node[1], f"{ptr}/1"), build(node[2], f"{ptr}/2")
        raise SchemaError(ptr, f"bad grouping node {node!r}")

    tree = build(tree, ptr)
    missing = min(set(range(1, n + 1)) - seen, default=None)
    if missing is not None:
        raise SchemaError(ptr, f"source {missing} missing")
    return tree


def reference_gamma_median(ns, gamma, s=3):
    """``gamma_median`` by two full-plane median filters, kept where I
    reaches ``gamma`` (the form ``fusionkit.nimage.gamma_median``
    replaces); ``gamma`` and ``s`` are taken as valid."""
    mask = ns.i >= gamma
    if not mask.any():
        return ns
    t_hat = np.where(mask, ndimage.median_filter(ns.t, size=s, mode="nearest"), ns.t)
    f_hat = np.where(mask, ndimage.median_filter(ns.f, size=s, mode="nearest"), ns.f)
    _, i_hat = _indeterminacy(t_hat, ns.w)
    return NsImage(t_hat, i_hat, f_hat, ns.w, ns.g_lo, ns.g_hi)


def reference_uniform_filter(g, w: int):
    """The ``w``-by-``w`` local mean, edge pixels replicated, by the
    filter that ``nimage._local_mean`` replaces: running window sums
    down the columns and then along the rows of a float64 plane."""
    return ndimage.uniform_filter(np.asarray(g, dtype=np.float64), size=w, mode="nearest")


def reference_label(mask):
    """8-connected components and their count, by the labelling that
    ``nimage._label`` replaces."""
    return ndimage.label(mask, structure=np.ones((3, 3), dtype=bool))


def reference_extreme3(plane, op, fill):
    """``op`` (``np.maximum`` or ``np.minimum``) over each 3-by-3
    window, outside pixels reading ``fill``, by the filter that
    ``nimage._extreme3`` replaces."""
    window = ndimage.maximum_filter if op is np.maximum else ndimage.minimum_filter
    return window(plane, size=3, mode="constant", cval=fill)


def _reference_pgm_tokens(data: bytes):
    """Header tokens, skipping '#' comments, one byte at a time."""
    i = 0
    while i < len(data):
        if data[i : i + 1].isspace():
            i += 1
            continue
        if data[i : i + 1] == b"#":
            j = data.find(b"\n", i)
            i = len(data) if j < 0 else j + 1
            continue
        j = i
        while j < len(data) and not data[j : j + 1].isspace():
            j += 1
        yield data[i:j], j
        i = j


def reference_load_pgm(path) -> GrayImage:
    """``load_pgm`` over the byte-stepping tokenizer it replaced."""
    with open(path, "rb") as fh:
        data = fh.read()
    tokens = _reference_pgm_tokens(data)
    try:
        magic, _ = next(tokens)
    except StopIteration:
        raise BadMagic("empty file") from None
    if magic not in (b"P2", b"P5"):
        raise BadMagic(f"not a PGM file (magic {magic!r})")
    try:
        (w, _), (h, _), (maxval, end) = next(tokens), next(tokens), next(tokens)
        width, height, maxval = int(w), int(h), int(maxval)
    except (StopIteration, ValueError):
        raise TruncatedData("incomplete PGM header") from None
    if width <= 0 or height <= 0:
        raise BadDimensions(f"bad dimensions {width}x{height}")
    if not 0 < maxval <= 255:
        raise BadDimensions(f"unsupported maxval {maxval}")
    n = width * height
    if magic == b"P5":
        raster = data[end + 1 : end + 1 + n]
        if len(raster) < n:
            raise TruncatedData(f"expected {n} raster bytes, got {len(raster)}")
        flat = np.frombuffer(raster, dtype=np.uint8, count=n)
    else:
        values = []
        for tok, _ in tokens:
            try:
                values.append(int(tok))
            except ValueError:
                raise TruncatedData(f"bad sample {tok!r}") from None
            if len(values) == n:
                break
        if len(values) < n:
            raise TruncatedData(f"expected {n} samples, got {len(values)}")
        flat = np.asarray(values, dtype=np.int64)
    if np.any(flat > maxval):
        raise TruncatedData("sample above declared maxval")
    return GrayImage(flat.reshape(height, width))


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
