"""Seeded job generators for the benchmark's three workloads.

Every job is built from two random streams (:class:`Draw`): its
structure from ``default_rng([stream, j])`` and its values from
``default_rng([seed, stream, j])``, so the same seed, stream and job
index always give the same job, however many jobs a run gets through.
Timed jobs use stream ``TIMED``, warm-up jobs stream ``WARMUP``; the two
never share inputs, so the warm-up cannot pre-fill the name cache for
timed inputs.

Generators use only ``json`` and ``numpy``: the program under test
receives nothing but the generated scenario JSON, PGM bytes and
argument lists.  Alongside its inputs each job carries the facts its
output check needs (``expect``), computed here from the generator's own
bitmask model of the frame rather than by the program.

Sizes, rules, formats and variants follow each kind's occurrence index
(a fixed cycle, or the low-discrepancy sequence of :func:`spread`), and
the structure stream does not depend on the seed: every seed runs the
same job shapes (sets, models, trees, annotations, image geometry), and
the seed draws the masses, triples, intensities and noise.  Job cost
depends mostly on the shapes, so throughput and latency quantiles do
not vary with the seed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

TIMED, WARMUP = 0, 1

#: One job in this many is a control job: a tiny job of a kind that
#: belongs to another workload.  It puts every layer on every workload,
#: so a change aimed at one layer also shows, slightly, where the
#: benchmark predicts no change, and no per-layer figure is an
#: unmeasured zero.
CONTROL_EVERY = 16

LABELS = ("A", "B", "C", "D", "E", "F")


@dataclass
class Job:
    """One closed-loop job: a CLI argument list or a direct call.

    ``argv`` entries starting with ``@`` name files in the job's work
    directory; ``files`` holds the inputs to write there first.
    """

    kind: str
    argv: list | None = None
    call: tuple | None = None  # (fusionkit.neutro function name, args)
    files: dict = field(default_factory=dict)
    expect: dict = field(default_factory=dict)


class Draw:
    """Random draws for one job.  Structural draws go to ``shape``
    (the default: attribute access falls through to it), which depends
    on the job index alone; ``value`` draws masses, triples, vectors,
    intensities and noise, and depends on the seed as well."""

    def __init__(self, shape, value):
        self.shape, self.value = shape, value

    def __getattr__(self, name):
        return getattr(self.shape, name)


def cycle(options, i: int):
    return options[i % len(options)]


def spread(i: int, lo: int, hi: int, step: int = 1, mult: float = 0.6180339887498949) -> int:
    """A value in [lo, hi] (a multiple of ``step`` above lo) from the
    low-discrepancy sequence frac(i * mult): sizes fill their range
    evenly instead of clustering, so latency quantiles do not jump
    between size classes from run to run."""
    frac = (i * mult) % 1.0
    return lo + step * round(frac * (hi - lo) / step)


# --- generator-side model of the set algebra ---------------------------------


def label_masks(n: int) -> list[int]:
    """Bitmask of each label over the 2**n - 1 Venn atoms (atom for
    label subset s at bit s - 1), as the program's algebra defines it."""
    masks = [0] * n
    for s in range(1, 1 << n):
        for i in range(n):
            if s >> i & 1:
                masks[i] |= 1 << (s - 1)
    return masks


def _group(text: str) -> str:
    """Parenthesise a compound operand; labels stand alone."""
    return text if text.isidentifier() else f"({text})"


class FrameGen:
    def __init__(self, n: int):
        self.labels = list(LABELS[:n])
        self.masks = label_masks(n)
        self.universe = (1 << ((1 << n) - 1)) - 1
        self.universe_text = "|".join(self.labels)

    def expr(self, rng, depth: int) -> tuple[str, int]:
        """Random nested expression over ~ & | \\ with its bitmask."""
        if depth == 0 or rng.random() < 0.25:
            i = int(rng.integers(len(self.labels)))
            return self.labels[i], self.masks[i]
        op = cycle("~&|\\", int(rng.integers(4)))
        if op == "~":
            text, bits = self.expr(rng, depth - 1)
            return f"~{_group(text)}", self.universe & ~bits
        lt, lb = self.expr(rng, depth - 1)
        rt, rb = self.expr(rng, depth - 1)
        bits = {"&": lb & rb, "|": lb | rb, "\\": lb & ~rb}[op]
        return f"{_group(lt)}{op}{_group(rt)}", bits

    def simple(self, rng) -> tuple[str, int]:
        """A union of one to three labels, or an intersection of two."""
        if rng.random() < 0.25:
            picks, op = rng.choice(len(self.labels), size=2, replace=False), "&"
        else:
            picks, op = rng.choice(len(self.labels), size=int(rng.integers(1, 4)),
                                   replace=False), "|"
        picks = sorted(int(i) for i in picks)
        bits = self.universe if op == "&" else 0
        for i in picks:
            bits = bits & self.masks[i] if op == "&" else bits | self.masks[i]
        return op.join(self.labels[i] for i in picks), bits

    def model(self, rng, count: int) -> tuple[list[str], int]:
        """``count`` distinct forced-empty intersections of label pairs
        or triples."""
        exprs, forced = [], 0
        while len(exprs) < count:
            k = 2 if rng.random() < 0.7 else 3
            picks = sorted(rng.choice(len(self.labels), size=k, replace=False))
            text = "&".join(self.labels[i] for i in picks)
            if text in exprs:
                continue
            bits = self.universe
            for i in picks:
                bits &= self.masks[i]
            exprs.append(text)
            forced |= bits
        return exprs, forced

    def source(self, rng, n_focal: int, depth: int, forced: int,
               ignorance: tuple[float, float] = (0.05, 0.3)):
        """One bba as [(text, bits, mass)]: ``n_focal - 1`` distinct
        random sets, nonempty modulo the model, plus total ignorance.
        ``depth`` 0 draws :meth:`simple` sets, otherwise nested
        expressions up to that depth.

        Every source keeps some mass on total ignorance, so no
        normalising rule meets total conflict.
        """
        focal, seen = [], {self.universe}
        while len(focal) < n_focal - 1:
            text, bits = self.expr(rng, depth) if depth else self.simple(rng)
            if bits & ~forced == 0 or bits in seen:
                continue
            seen.add(bits)
            focal.append((text, bits))
        ign = float(rng.value.uniform(*ignorance))
        w = rng.value.uniform(0.05, 1.0, len(focal))
        w = w / w.sum() * (1.0 - ign)
        out = [(t, b, float(m)) for (t, b), m in zip(focal, w)]
        out.append((self.universe_text, self.universe, ign))
        return out


def scenario_doc(fg: FrameGen, sources, model_exprs, **extra) -> dict:
    doc = {
        "frame": fg.labels,
        "sources": [{t: m for t, _, m in s} for s in sources],
    }
    if model_exprs:
        doc["model"] = model_exprs
    doc.update(extra)
    return doc


def random_tree(rng, leaves: list[int]):
    """Random binary and/or grouping tree over 1-based source indices."""
    if len(leaves) == 1:
        return leaves[0]
    cut = int(rng.integers(1, len(leaves)))
    op = "and" if rng.random() < 0.5 else "or"
    return [op, random_tree(rng, leaves[:cut]), random_tree(rng, leaves[cut:])]


def fusion_expect(fg: FrameGen, forced: int, model_exprs, sources, **extra):
    return {
        "labels": fg.labels,
        "model": model_exprs,
        "forced": forced,
        "source_bits": [[b for _, b, _ in s] for s in sources],
        "source_masses": [[m for _, _, m in s] for s in sources],
        **extra,
    }


def json_file(doc) -> bytes:
    return json.dumps(doc).encode()


# --- fuse-deep ----------------------------------------------------------------
#
# Many operands on small frames.  The exponential expansions in
# rules.product_terms, the uft audit and the neutro operators do nearly
# all the work; naming does little, because frames are small and output
# sets repeat.  The pairwise folds (dempster, pcr5, dsmh) over the same
# kind of sources are the in-workload control for an expansion rewrite.

#: (sources N, focal sets per source F) for N-ary expansion: F**N
#: product terms, at most 65,536.
EXPAND_SHAPES = [(4, 6), (8, 3), (5, 5), (6, 4), (5, 6), (6, 5), (7, 4),
                 (6, 6), (8, 4), (7, 3)]
EXPAND_RULES = ["conjunctive", "disjunctive", "exclusive_disjunctive", "mixed"]
FOLD_RULES = ["dempster", "pcr5", "dsmh"]
#: (sources, focal sets) for UFT: at most 7,776 audit records, since
#: the JSON audit of the 16k-record shapes alone takes about 2 s.
UFT_DEEP_SHAPES = [(4, 6), (5, 5), (3, 6), (6, 4), (4, 5), (5, 6), (6, 3)]
RELIABILITY = ["all_reliable", "some_unknown_unreliable",
               "exactly_one_reliable_unknown", "mixed_grouping", "discounts"]
RELATIONSHIPS = [
    "consensus", "neither_intersection_nor_union_interest",
    "optimistic_both", "one_right_unknown", "right_is", "pessimistic_both",
    "very_pessimistic_closed", "very_pessimistic_open", "neither_right",
    "neither_right_no_others", "unknown_default",
]


def _fusion_sources(rng, fg, n_sources, n_focal, depth, n_forced, **kw):
    model_exprs, forced = fg.model(rng, n_forced)
    sources = [fg.source(rng, n_focal, depth, forced, **kw)
               for _ in range(n_sources)]
    return model_exprs, forced, sources


def gen_expand(rng, i: int, tiny: bool) -> Job:
    rule = cycle(EXPAND_RULES, i)
    n_sources, n_focal = (3, 3) if tiny else cycle(EXPAND_SHAPES, i)
    fg = FrameGen(3 + i % 2)
    model_exprs, forced, sources = _fusion_sources(
        rng, fg, n_sources, n_focal, 0, i % 3)
    extra = {}
    if rule == "mixed":
        extra["grouping"] = random_tree(rng, list(range(1, n_sources + 1)))
    # A JSON ledger lists every conflicting term (up to ~44k here), and
    # that one job would set the run's peak memory only when the run
    # reaches it; text output prints the ledger as one total.
    fmt = "text" if rule == "conjunctive" else cycle(
        ["text", "json"], i // len(EXPAND_RULES))
    return Job(
        "expand",
        argv=["fuse", "--rule", rule, "--format", fmt, "@in.json"],
        files={"in.json": json_file(scenario_doc(fg, sources, model_exprs, **extra))},
        expect=fusion_expect(fg, forced, model_exprs, sources,
                             rule=rule, fmt=fmt),
    )


def gen_fold(rng, i: int, tiny: bool) -> Job:
    rule = cycle(FOLD_RULES, i)
    n_sources, n_focal = (3, 3) if tiny else cycle(EXPAND_SHAPES, i)
    fg = FrameGen(3 + i % 2)
    model_exprs, forced, sources = _fusion_sources(
        rng, fg, n_sources, n_focal, 0, 1 + i % 2)
    fmt = cycle(["text", "json"], i // len(FOLD_RULES))
    return Job(
        "fold",
        argv=["fuse", "--rule", rule, "--format", fmt, "@in.json"],
        files={"in.json": json_file(scenario_doc(fg, sources, model_exprs))},
        expect=fusion_expect(fg, forced, model_exprs, sources,
                             rule=rule, fmt=fmt),
    )


def _annotations(rng, fg: FrameGen, sources, count: int) -> list:
    """Up to ``count`` annotations on focal pairs of the first two
    sources, with distinct intersections and only relationships the
    pair can satisfy."""
    out, subjects = [], set()
    first, second = sources[0][:-1], sources[1][:-1]
    for _ in range(4 * count):
        if len(out) == count:
            break
        xt, xb, _ = first[int(rng.integers(len(first)))]
        yt, yb, _ = second[int(rng.integers(len(second)))]
        if xb & yb in subjects:
            continue
        rel = RELATIONSHIPS[int(rng.integers(len(RELATIONSHIPS)))]
        if rel == "neither_right" and not any(
            m & ~xb and m & ~yb for m in fg.masks
        ):
            rel = "pessimistic_both"
        ann = {"pair": [xt, yt], "rel": rel}
        if rel == "right_is":
            ann["side"] = xt
        subjects.add(xb & yb)
        out.append(ann)
    return out


def _uft_job(kind, rng, i, fg, n_sources, n_focal, depth, n_forced, fmt) -> Job:
    model_exprs, forced, sources = _fusion_sources(
        rng, fg, n_sources, n_focal, depth, n_forced)
    kind_name = cycle(RELIABILITY, i) if n_sources > 2 else cycle(
        ["all_reliable", "discounts"], i)
    reliability = {"kind": kind_name}
    if kind_name == "mixed_grouping":
        reliability["tree"] = random_tree(rng, list(range(1, n_sources + 1)))
    if kind_name == "discounts":
        reliability["alphas"] = [float(a) for a in rng.value.uniform(0.5, 1.0, n_sources)]
    doc = scenario_doc(
        fg, sources, model_exprs, reliability=reliability,
        annotations=_annotations(rng, fg, sources, 1 + i % 3),
    )
    return Job(
        kind,
        argv=["uft", "--format", fmt, "@in.json"],
        files={"in.json": json_file(doc)},
        expect=fusion_expect(fg, forced, model_exprs, sources, fmt=fmt),
    )


def gen_uft_deep(rng, i: int, tiny: bool) -> Job:
    n_sources, n_focal = (3, 3) if tiny else cycle(UFT_DEEP_SHAPES, i)
    fmt = cycle(["text", "json", "csv"], i // len(RELIABILITY))
    # n = 3 keeps the output among 128 sets, so naming stays a small
    # share even when an exclusive-or step scatters the mass.
    return _uft_job("uft_deep", rng, i, FrameGen(3),
                    n_sources, n_focal, 0, i % 3, fmt)


def _triples(rng, count: int) -> list:
    return [[float(v) for v in rng.value.uniform(0.0, 1.0, 3)] for _ in range(count)]


def gen_graded(rng, i: int, tiny: bool) -> Job:
    count = 2 if tiny else cycle([8, 9, 10, 11], i)
    order = [str(c) for c in rng.permutation(["t", "i", "f"])]
    return Job("graded", call=("ns_combine_graded", (order, _triples(rng, count))))


def _vectors(rng, n: int, k: int) -> list:
    return [[float(v) for v in rng.value.uniform(0.0, 1.0, k)] for _ in range(n)]


def gen_klaw_mixed(rng, i: int, tiny: bool) -> Job:
    k = 3 if tiny else cycle([12, 13, 14, 15, 16], i)
    return Job("klaw_mixed", call=("klaw_mixed", _vectors(rng, 2, k)))


def gen_klaw3(rng, i: int, tiny: bool) -> Job:
    k = 3 if tiny else cycle([8, 9, 10], i)
    return Job("klaw3", call=("klaw3", _vectors(rng, 3, k)))


# --- fuse-wide ----------------------------------------------------------------
#
# Few operands on wide frames (n = 5-6) with nested focal-set
# expressions.  At most 64 product terms per call, so expansion is
# negligible: the time goes to parsing, make_bba, the linear Bba.mass
# scans in PCR5 and canonical naming, which at n = 6 mostly ends in the
# explicit-atom fallback.  Many small rules calls also expose per-call
# overhead that a deep-fusion optimisation might add.

WIDE_RULES = ["dempster", "yager", "smets_tbm", "dubois_prade", "dsmh",
              "pcr5", "murphy_average"]
TCN_VARIANTS = ["conjunctive", "dempster", "yager", "smets",
                "pcr5_original", "pcr5v2"]
TNORMS = ["min", "product", "bounded"]
UFR_CONFIGS = [
    {},
    {"transfer": "discard", "normalize": True},
    {"transfer": "union"},
    {"transfer": "ignorance", "combiner": "min"},
    {"combiner": "min", "weight_1": "constant:1", "weight_2": "constant:2"},
    {"star": "disjunctive", "transferable": "never"},
    {"transferable": "listed", "transfer": "union", "combiner": "bounded"},
    {"combiner": "bounded", "normalize": True},
]
FORMATS = ["text", "json", "csv"]


def _wide_frame(i: int, tiny: bool) -> FrameGen:
    return FrameGen(3 if tiny else 5 + i % 2)


def _wide_sources(rng, i, tiny, n_sources, bounded=False):
    fg = _wide_frame(i, tiny)
    n_focal = 3 if tiny else cycle([4, 5, 6, 7, 8], i)
    # The bounded T-norm max(0, a + b - 1) is zero unless both masses
    # exceed one half, so those jobs give total ignorance the majority.
    ign = (0.55, 0.7) if bounded else (0.05, 0.3)
    model_exprs, forced, sources = _fusion_sources(
        rng, fg, n_sources, n_focal, 1 if tiny else 3, i % 4, ignorance=ign)
    return fg, model_exprs, forced, sources


def gen_fuse_wide(rng, i: int, tiny: bool) -> Job:
    rule = cycle(WIDE_RULES, i)
    fmt = cycle(FORMATS, i // len(WIDE_RULES))
    fg, model_exprs, forced, sources = _wide_sources(rng, i, tiny, 2 + i % 2)
    return Job(
        "fuse_wide",
        argv=["fuse", "--rule", rule, "--format", fmt, "@in.json"],
        files={"in.json": json_file(scenario_doc(fg, sources, model_exprs))},
        expect=fusion_expect(fg, forced, model_exprs, sources,
                             rule=rule, fmt=fmt),
    )


def gen_tcn(rng, i: int, tiny: bool) -> Job:
    variant = cycle(TCN_VARIANTS, i)
    tnorm = cycle(TNORMS, i // len(TCN_VARIANTS))
    fmt = cycle(FORMATS, i // (len(TCN_VARIANTS) * len(TNORMS)))
    fg, model_exprs, forced, sources = _wide_sources(
        rng, i, tiny, 2, bounded=tnorm == "bounded")
    argv = ["tcn", "--variant", variant, "--tnorm", tnorm, "--format", fmt]
    normalize = variant == "pcr5v2" and i // len(TCN_VARIANTS) % 2 == 1
    if normalize:
        argv.append("--normalize")
    if variant == "pcr5_original" and i % 2:
        argv += ["--tconorm", cycle(["max", "prob_sum", "bounded_sum"], i)]
    argv.append("@in.json")
    return Job(
        "tcn",
        argv=argv,
        files={"in.json": json_file(scenario_doc(fg, sources, model_exprs))},
        expect=fusion_expect(fg, forced, model_exprs, sources, variant=variant,
                             tnorm=tnorm, normalize=normalize, fmt=fmt),
    )


def gen_ufr(rng, i: int, tiny: bool) -> Job:
    config = dict(cycle(UFR_CONFIGS, i))
    fmt = cycle(FORMATS, i // len(UFR_CONFIGS))
    fg, model_exprs, forced, sources = _wide_sources(
        rng, i, tiny, 2, bounded=config.get("combiner") == "bounded")
    if config.get("transferable") == "listed":
        # mark the intersections of two focal pairs
        (a, b), listed, listed_bits = sources, [], set()
        for _ in range(2):
            x = a[int(rng.integers(len(a) - 1))]
            y = b[int(rng.integers(len(b) - 1))]
            listed.append(f"({x[0]})&({y[0]})")
            listed_bits.add(x[1] & y[1])
        config["transferable"] = listed
    else:
        listed_bits = None
    doc = scenario_doc(fg, sources, model_exprs, ufr=config)
    return Job(
        "ufr",
        argv=["ufr", "--format", fmt, "@in.json"],
        files={"in.json": json_file(doc)},
        expect=fusion_expect(
            fg, forced, model_exprs, sources, ufr=config, fmt=fmt,
            listed_bits=sorted(listed_bits) if listed_bits is not None else None),
    )


def gen_uft_wide(rng, i: int, tiny: bool) -> Job:
    fg = _wide_frame(i, tiny)
    n_focal = 3 if tiny else cycle([4, 5, 6, 7, 8], i)
    return _uft_job("uft_wide", rng, i, fg, 2, n_focal, 1 if tiny else 3,
                    i % 4, cycle(FORMATS, i // 2))


def gen_canon(rng, i: int, tiny: bool) -> Job:
    fg = _wide_frame(i, tiny)
    text, bits = fg.expr(rng, 2 if tiny else 3)
    fmt = cycle(["text", "json"], i)
    return Job(
        "canon",
        argv=["algebra", "canon", "--frame", ",".join(fg.labels),
              "--format", fmt, text],
        expect={"labels": fg.labels, "bits": bits, "fmt": fmt},
    )


_NS_RECIPES = {
    "min": (min, max),
    "product": (lambda a, b: a * b, lambda a, b: a + b - a * b),
    "bounded": (lambda a, b: max(0.0, a + b - 1.0), lambda a, b: min(1.0, a + b)),
}


def _ns_expr(rng, depth: int) -> tuple[str, list]:
    """Random and[recipe]/or[recipe]/not expression over crisp triples
    in [0, 1], with its value computed here."""
    if depth == 0 or rng.random() < 0.2:
        t = [float(v) for v in rng.value.uniform(0.0, 1.0, 3)]
        return f"({t[0]!r},{t[1]!r},{t[2]!r})", t
    op = cycle(["and", "or", "not"], int(rng.integers(3)))
    if op == "not":
        text, (t, i, f) = _ns_expr(rng, depth - 1)
        return f"not({text})", [f, 1.0 - i, t]
    recipe = cycle(list(_NS_RECIPES), int(rng.integers(3)))
    norm, conorm = _NS_RECIPES[recipe]
    xt, x = _ns_expr(rng, depth - 1)
    yt, y = _ns_expr(rng, depth - 1)
    if op == "and":
        value = [norm(x[0], y[0]), conorm(x[1], y[1]), conorm(x[2], y[2])]
    else:
        value = [conorm(x[0], y[0]), norm(x[1], y[1]), norm(x[2], y[2])]
    return f"{op}[{recipe}]({xt},{yt})", value


def gen_neutro_eval(rng, i: int, tiny: bool) -> Job:
    text, value = _ns_expr(rng, 1 if tiny else 3)
    return Job("neutro_eval", argv=["neutro", "eval", text],
               expect={"value": value})


# --- image --------------------------------------------------------------------
#
# All of the time is in nimage and PGM I/O, which neither fusion
# workload touches.  Few-region segmentation (fitted knots on blob
# images, where fit_abc dominates) and many-region segmentation (fixed
# knots on dot grids, where region growth dominates) use region growth
# in opposite ways, so a rewrite that helps one and hurts the other
# shows in the per-kind figures.


def pgm_bytes(px: np.ndarray) -> bytes:
    h, w = px.shape
    return f"P5 {w} {h} 255\n".encode("ascii") + px.astype(np.uint8).tobytes()


def gen_denoise(rng, i: int, tiny: bool) -> Job:
    size = 32 if tiny else spread(i, 256, 512, 8)
    p = 0.10 + 0.10 * spread(i, 0, 100, mult=0.41421356237309515) / 100
    theta = rng.uniform(0.0, 2.0 * np.pi)
    lo, hi = rng.value.uniform(20, 80), rng.value.uniform(170, 235)
    y, x = np.mgrid[0:size, 0:size] / (size - 1)
    ramp = x * np.cos(theta) + y * np.sin(theta)
    ramp = (ramp - ramp.min()) / (ramp.max() - ramp.min())
    px = np.rint(lo + (hi - lo) * ramp)
    hit = rng.value.random(px.shape) < p
    px[hit] = np.where(rng.value.random(int(hit.sum())) < 0.5, 0, 255)
    gamma = cycle(["0.3", "0.4"], i)
    return Job(
        "denoise",
        argv=["nimage", "denoise", "--gamma", gamma, "--delta", "0.01",
              "@in.pgm", "@out.pgm"],
        files={"in.pgm": pgm_bytes(px)},
        expect={"shape": [size, size]},
    )


def gen_segment_blobs(rng, i: int, tiny: bool) -> Job:
    size = 32 if tiny else spread(i, 128, 256, 8)
    n_blobs = 2 if tiny else spread(i, 4, 40, mult=0.41421356237309515)
    bg = rng.value.uniform(50, 80)
    px = np.full((size, size), bg)
    y, x = np.mgrid[0:size, 0:size]
    for _ in range(n_blobs):
        r = rng.uniform(3, max(4, size / 16))
        cy, cx = rng.uniform(r, size - r, 2)
        px[(y - cy) ** 2 + (x - cx) ** 2 <= r * r] = rng.value.uniform(150, 190)
    px = np.clip(np.rint(px + rng.value.normal(0.0, 6.0, px.shape)), 0, 255)
    return Job(
        "segment_blobs",
        argv=["nimage", "segment", "--t-low", "0.2", "--t-high", "0.8",
              "--i-threshold", "0.5", "@in.pgm", "@out.pgm"],
        files={"in.pgm": pgm_bytes(px)},
        expect={"shape": [size, size]},
    )


def gen_segment_grid(rng, i: int, tiny: bool) -> Job:
    """Gray field with bright and dark dots: every bright dot seeds one
    region and the field between dots is contested, so region growth
    runs many rounds over many regions."""
    size = 32 if tiny else spread(i, 80, 144, 8)
    per_side = 2 if tiny else spread(i, 4, 14, mult=0.41421356237309515)
    step = size // per_side
    px = np.full((size, size), float(rng.value.integers(120, 137)))
    jitter = rng.integers(0, max(1, step // 4), size=(per_side, per_side, 2))
    for r in range(per_side):
        for c in range(per_side):
            y0 = r * step + step // 4 + int(jitter[r, c, 0])
            x0 = c * step + step // 4 + int(jitter[r, c, 1])
            px[y0:y0 + 2, x0:x0 + 2] = 250
            yd, xd = y0 + step // 2, x0 + step // 2
            if r % 2 == 0 and c % 2 == 0 and yd < size and xd < size:
                px[yd, xd] = 0
    return Job(
        "segment_grid",
        argv=["nimage", "segment", "--a", "10", "--b", "100", "--c", "200",
              "--t-low", "0.1", "--t-high", "0.9", "--i-threshold", "1.01",
              "@in.pgm", "@out.pgm"],
        files={"in.pgm": pgm_bytes(px)},
        expect={"shape": [size, size], "objects": per_side * per_side},
    )


# --- workloads ----------------------------------------------------------------

GENERATORS = {
    "expand": gen_expand,
    "fold": gen_fold,
    "uft_deep": gen_uft_deep,
    "graded": gen_graded,
    "klaw_mixed": gen_klaw_mixed,
    "klaw3": gen_klaw3,
    "fuse_wide": gen_fuse_wide,
    "tcn": gen_tcn,
    "ufr": gen_ufr,
    "uft_wide": gen_uft_wide,
    "canon": gen_canon,
    "neutro_eval": gen_neutro_eval,
    "denoise": gen_denoise,
    "segment_blobs": gen_segment_blobs,
    "segment_grid": gen_segment_grid,
}

WORKLOADS = {
    "fuse-deep": ["expand", "fold", "uft_deep", "graded", "klaw_mixed", "klaw3"],
    "fuse-wide": ["fuse_wide", "tcn", "ufr", "uft_wide", "canon", "neutro_eval"],
    "image": ["denoise", "segment_blobs", "segment_grid"],
}


#: Control kinds per workload, ordered so that the first few control
#: jobs already reach every layer the workload itself does not load.
CONTROLS = {
    "fuse-deep": ["denoise", "tcn", "segment_blobs", "segment_grid", "fuse_wide",
                  "ufr", "uft_wide", "canon", "neutro_eval"],
    "fuse-wide": ["denoise", "expand", "segment_blobs", "segment_grid", "graded",
                  "fold", "uft_deep", "klaw_mixed", "klaw3"],
    "image": ["expand", "tcn", "uft_deep", "graded", "neutro_eval", "fuse_wide",
              "fold", "ufr", "uft_wide", "canon", "klaw_mixed", "klaw3"],
}


def _rng(seed: int, stream: int, j: int) -> Draw:
    return Draw(np.random.default_rng([stream, j]),
                np.random.default_rng([seed, stream, j]))


def timed_job(workload: str, seed: int, j: int, tiny: bool = False) -> Job:
    """The j-th timed job of a workload.  ``tiny`` shrinks every job to
    its smallest shape, for the benchmark's own tests."""
    rng = _rng(seed, TIMED, j)
    if j % CONTROL_EVERY == CONTROL_EVERY - 1:
        others = CONTROLS[workload]
        c = j // CONTROL_EVERY
        kind = cycle(others, c)
        return GENERATORS[kind](rng, c // len(others), True)
    kinds = WORKLOADS[workload]
    m = j - j // CONTROL_EVERY
    return GENERATORS[cycle(kinds, m)](rng, m // len(kinds), tiny)


def warmup_jobs(workload: str, seed: int) -> list[Job]:
    """One tiny job of every kind the workload runs, from the warm-up
    stream."""
    kinds = WORKLOADS[workload] + CONTROLS[workload]
    return [GENERATORS[k](_rng(seed, WARMUP, n), n, True)
            for n, k in enumerate(kinds)]
