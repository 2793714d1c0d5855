"""Command-line front end.

Scenario files are JSON documents:

    {
      "frame": ["A", "B"],
      "world": "closed",
      "sources": [{"A": 0.2, "B": 0.5, "A|B": 0.3}, ...],
      "model": ["A&B"],
      "reliability": {"kind": "all_reliable"},
      "annotations": [{"pair": ["A", "B"], "rel": "consensus"}],
      "grouping": ["and", 1, 2],
      "ufr": {"combiner": "product", "transfer": "pair_proportional"}
    }

Only "frame" and "sources" are required; each subcommand reads the
blocks it understands.  Exit codes: 0 success, 1 bad input, 2 a
computation that cannot proceed (total conflict, zero totals).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from .algebra import Frame, World, superpower_cardinality
from .errors import ComputationError, InputError, UsageError, enum_member
from .mass import Bba
from .neutro import NsRecipe, NsTriple, n_conorm, n_norm, ns_not
from .nimage import (
    DAM,
    GrayImage,
    SFunctionParams,
    denoise_detailed,
    fit_abc,
    load_pgm,
    save_pgm,
    segment,
)
from .rules import RuleId, conjunctive, fuse_many
from .tcn import (
    TConorm,
    TNorm,
    UfrConfig,
    pcr5v2_tn,
    tcn_conjunctive,
    tcn_pcr5_original,
    tn_family,
    ufr_combine,
)
from .uft import _tree_from_json, fusion_inputs_from_json, scenario_from_json, uft_fuse

FORMATS = ("text", "json", "csv")


# --- output helpers ----------------------------------------------------------


def _column_bits(frame: Frame, masses: dict) -> list:
    """Column order: singletons in frame order, then remaining sets by
    shrinking atom count, the empty set last."""
    singles = [frame.label_bits(lab) for lab in frame.labels]
    cols = [b for b in singles if b in masses]
    rest = sorted(
        (b for b in masses if b not in singles and b != 0),
        key=lambda b: (-bin(b).count("1"), b),
    )
    cols.extend(rest)
    if 0 in masses:
        cols.append(0)
    return cols


def _fmt_value(v, spec: str) -> str:
    if isinstance(v, (tuple, list)):
        lo, hi = v
        return f"[{_fmt_value(lo, spec)},{_fmt_value(hi, spec)}]"
    return spec % v


def emit_table(b: Bba, fmt: str, namer=None) -> str:
    """One fused assignment as text, JSON, or CSV."""
    if fmt == "json":
        return json.dumps(b.to_json(), indent=2)
    masses = dict(b.entries)
    cols = _column_bits(b.frame, masses)
    namer = namer or b.frame.name_of
    names = [namer(c) for c in cols]
    if fmt == "csv":
        values = [_fmt_value(masses[c], "%.12g") for c in cols]
        return ",".join(names) + "\n" + ",".join(values)
    values = [_fmt_value(masses[c], "%.3f") for c in cols]
    widths = [max(len(n), len(v)) for n, v in zip(names, values)]
    head = "  ".join(n.rjust(w) for n, w in zip(names, widths))
    body = "  ".join(v.rjust(w) for v, w in zip(values, widths))
    return head + "\n" + body


def _load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (ValueError, RecursionError) as exc:  # bad JSON, a too-long int, too deep
        raise InputError(f"{path}: invalid JSON ({exc})") from None


# --- subcommands -------------------------------------------------------------


def _cmd_algebra_card(args) -> int:
    print(superpower_cardinality(args.n))
    return 0


def _cmd_algebra_canon(args) -> int:
    labels = tuple(s.strip() for s in args.frame.split(","))
    frame = Frame(labels, World(args.world))
    s = frame.atoms_of(args.expr)
    if args.format == "json":
        print(json.dumps({
            "name": s.name,
            "atoms": len(s.atom_positions),
            "bits": s.bits,
        }))
    else:
        print(s.name)
    return 0


def _cmd_fuse(args) -> int:
    doc = _load_json(args.scenario)
    frame, sources, model = fusion_inputs_from_json(doc)
    rule = RuleId(args.rule)
    if rule is RuleId.CONJUNCTIVE:
        result, ledger = conjunctive(*sources, model=model)
        print(emit_table(result, args.format))
        if args.format != "csv" and len(ledger):
            if args.format == "json":
                print(json.dumps({"ledger": ledger.to_json()}, indent=2))
            else:
                print(f"conflict mass: {ledger.total():.3f}")
        return 0
    grouping = None
    if rule is RuleId.MIXED:
        if "grouping" not in doc:
            raise InputError("the mixed rule needs a \"grouping\" block")
        grouping = _tree_from_json(doc["grouping"], "/grouping", len(sources))
    print(emit_table(fuse_many(rule, sources, model, grouping), args.format))
    return 0


def _cmd_uft(args) -> int:
    doc = _load_json(args.scenario)
    result = uft_fuse(scenario_from_json(doc))
    if args.format == "json":
        print(result.write_json())
        return 0
    fused_names = result.model.name_of if result.model else None
    if args.format == "csv":
        print(emit_table(result.m_uft, "csv", fused_names))
        return 0
    for label, b, namer in (
        ("fused", result.m_uft, fused_names),
        ("lower (closed)", result.m_lower_closed, None),
        ("lower (open)", result.m_lower_open, None),
        ("middle", result.m_middle, None),
        ("upper", result.m_upper, None),
    ):
        print(f"{label}:")
        print(emit_table(b, "text", namer))
    print(result.write_transfers())
    return 0


def _cmd_tcn(args) -> int:
    doc = _load_json(args.scenario)
    _, sources, model = fusion_inputs_from_json(doc)
    if len(sources) != 2:
        raise InputError("T-norm rules combine exactly two sources")
    m1, m2 = sources
    norm = TNorm(args.tnorm)
    if args.variant == "conjunctive":
        result, ledger = tcn_conjunctive(m1, m2, norm=norm, model=model)
        print(emit_table(result, args.format))
        if args.format == "text" and len(ledger):
            print(f"conflict mass: {ledger.total():.3f}")
        return 0
    if args.variant in ("dempster", "yager", "smets"):
        result = tn_family(m1, m2, norm=norm, variant=args.variant, model=model)
    elif args.variant == "pcr5_original":
        conorm = TConorm(args.tconorm) if args.tconorm else None
        result = tcn_pcr5_original(m1, m2, norm=norm, conorm=conorm, model=model)
    else:  # pcr5v2
        result = pcr5v2_tn(m1, m2, norm=norm, model=model, normalize=args.normalize)
    print(emit_table(result, args.format))
    return 0


def _cmd_ufr(args) -> int:
    doc = _load_json(args.scenario)
    _, sources, model = fusion_inputs_from_json(doc)
    if len(sources) != 2:
        raise InputError("the master rule combines exactly two sources")
    config = UfrConfig.from_json(doc.get("ufr", {}))
    print(emit_table(ufr_combine(sources[0], sources[1], config, model), args.format))
    return 0


# --- neutro eval mini-grammar ------------------------------------------------


def _ns_eval(text: str) -> NsTriple:
    """The value of a ``neutro eval`` expression, read in one pass at any
    depth.  Operators wait on a stack for their operands (``not`` for
    ``)``, ``and``/``or`` for ``,`` then ``)``) and apply as their ``)``
    is read, so the first error raised is the first in the text.  Spaces,
    words and digits are what ``str.isspace``, ``isalpha`` and ``isdigit``
    say; a number is a run of digits and ``.eE+-`` read by ``float``."""
    pos, end = 0, len(text)

    def scan(test=None) -> str:
        """Skip whitespace, then read the run of characters passing ``test``."""
        nonlocal pos
        while pos < end and text[pos].isspace():
            pos += 1
        start = pos
        while test and pos < end and test(text[pos]):
            pos += 1
        return text[start:pos]

    def expect(ch: str) -> None:
        nonlocal pos
        scan()
        if text[pos:pos + 1] != ch:
            raise InputError(f"expected {ch!r} at position {pos} in {text!r}")
        pos += 1

    def number(close: str) -> float:
        nonlocal pos
        scan()
        start = pos
        while pos < end and (text[pos].isdigit() or text[pos] in ".eE+-"):
            pos += 1
        try:
            value = float(text[start:pos])
        except ValueError:
            raise InputError(f"bad number at position {start}") from None
        expect(close)
        return value

    stack = []  # [operator, recipe, first operand or None]
    while True:
        word = scan(str.isalpha)
        if word or text[pos:pos + 1] != "(":
            if word not in ("not", "and", "or"):
                raise InputError(f"expected a triple or operator, got {word!r}")
            recipe = None
            if word != "not":
                expect("[")
                recipe = enum_member(NsRecipe, scan(str.isalpha), "recipe")
                expect("]")
            expect("(")
            stack.append([word, recipe, None])
            continue
        pos += 1
        value = NsTriple(number(","), number(","), number(")"))
        while stack and (stack[-1][0] == "not" or stack[-1][2] is not None):
            word, recipe, x = stack.pop()
            expect(")")
            value = ns_not(value) if word == "not" else (
                n_norm if word == "and" else n_conorm)(recipe, x, value)
        if stack:
            expect(",")
            stack[-1][2] = value
            continue
        scan()
        if pos != end:
            raise InputError(f"trailing input at position {pos}")
        return value


def _cmd_neutro_eval(args) -> int:
    print(json.dumps(_ns_eval(args.expr).to_json()))
    return 0


# --- images ------------------------------------------------------------------


def _cmd_nimage_denoise(args) -> int:
    img = load_pgm(args.input)
    result = denoise_detailed(
        img,
        gamma=args.gamma,
        delta=args.delta,
        w=args.window,
        s=args.median,
        max_iters=args.max_iters,
    )
    save_pgm(result.image, args.output)
    print(json.dumps({
        "iterations": result.iterations,
        "entropy_trace": list(result.entropy_trace),
    }))
    return 0


def _cmd_nimage_segment(args) -> int:
    img = load_pgm(args.input)
    if args.a is None or args.b is None or args.c is None:
        params = fit_abc(img, w=args.window)
    else:
        params = SFunctionParams(args.a, args.b, args.c)
    result = segment(
        img,
        params,
        t_low=args.t_low,
        t_high=args.t_high,
        i_threshold=args.i_threshold,
        w=args.window,
    )
    n = result.n_objects
    if n > 253:
        raise InputError(f"{n} regions do not fit distinct 8-bit levels")
    step = 254 // (n + 1)
    gray = np.where(result.labels == DAM, 255, result.labels * step)
    save_pgm(GrayImage(gray), args.output)
    counts = result.counts()
    sidecar = {
        "background": counts.get(0, 0),
        "dam": counts.get(-1, 0),
        **{f"object_{rid}": counts.get(rid, 0) for rid in range(1, n + 1)},
    }
    with open(args.output + ".json", "w", encoding="utf-8") as fh:
        json.dump(sidecar, fh, indent=2)
    print(json.dumps({
        "objects": n,
        "params": {"a": params.a, "b": params.b, "c": params.c},
        "counts": sidecar,
    }))
    return 0


# --- wiring ------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _add_format(p) -> None:
    p.add_argument("--format", choices=FORMATS, default="text")


def build_parser() -> argparse.ArgumentParser:
    top = _Parser(prog="fusionkit", description=__doc__.splitlines()[0])
    sub = top.add_subparsers(dest="command")

    algebra = sub.add_parser("algebra", help="set algebra utilities")
    asub = algebra.add_subparsers(dest="subcommand")
    card = asub.add_parser("card", help="super-power-set cardinality")
    card.add_argument("n", type=int)
    card.set_defaults(func=_cmd_algebra_card)
    canon = asub.add_parser("canon", help="canonical form of an expression")
    canon.add_argument("--frame", required=True, help="comma-separated labels")
    canon.add_argument("--world", choices=("closed", "open"), default="closed")
    _add_format(canon)
    canon.add_argument("expr")
    canon.set_defaults(func=_cmd_algebra_canon)

    fuse = sub.add_parser("fuse", help="combine sources with a fixed rule")
    fuse.add_argument("--rule", required=True, choices=[r.value for r in RuleId])
    _add_format(fuse)
    fuse.add_argument("scenario")
    fuse.set_defaults(func=_cmd_fuse)

    uft = sub.add_parser("uft", help="scenario fusion with brackets and audit")
    _add_format(uft)
    uft.add_argument("scenario")
    uft.set_defaults(func=_cmd_uft)

    tcn = sub.add_parser("tcn", help="T-norm-valued combination rules")
    tcn.add_argument(
        "--variant",
        default="conjunctive",
        choices=("conjunctive", "dempster", "yager", "smets",
                 "pcr5_original", "pcr5v2"),
    )
    tcn.add_argument("--tnorm", default="min", choices=[t.value for t in TNorm])
    tcn.add_argument("--tconorm", choices=[t.value for t in TConorm])
    tcn.add_argument("--normalize", action="store_true")
    _add_format(tcn)
    tcn.add_argument("scenario")
    tcn.set_defaults(func=_cmd_tcn)

    ufr = sub.add_parser("ufr", help="configurable master combination rule")
    _add_format(ufr)
    ufr.add_argument("scenario")
    ufr.set_defaults(func=_cmd_ufr)

    neutro = sub.add_parser("neutro", help="neutrosophic triple operations")
    nsub = neutro.add_subparsers(dest="subcommand")
    neval = nsub.add_parser("eval", help="evaluate and[recipe](...)/or/not")
    neval.add_argument("expr")
    neval.set_defaults(func=_cmd_neutro_eval)

    nimage = sub.add_parser("nimage", help="grayscale image pipeline")
    isub = nimage.add_subparsers(dest="subcommand")
    dn = isub.add_parser("denoise", help="iterative gamma-median filtering")
    dn.add_argument("--gamma", type=float, required=True)
    dn.add_argument("--delta", type=float, required=True)
    dn.add_argument("--window", type=int, default=3)
    dn.add_argument("--median", type=int, default=3)
    dn.add_argument("--max-iters", type=int, default=10)
    dn.add_argument("input")
    dn.add_argument("output")
    dn.set_defaults(func=_cmd_nimage_denoise)
    sg = isub.add_parser("segment", help="S-function watershed segmentation")
    sg.add_argument("--a", type=float)
    sg.add_argument("--b", type=float)
    sg.add_argument("--c", type=float)
    sg.add_argument("--t-low", type=float, required=True)
    sg.add_argument("--t-high", type=float, required=True)
    sg.add_argument("--i-threshold", type=float, required=True)
    sg.add_argument("--window", type=int, default=3)
    sg.add_argument("input")
    sg.add_argument("output")
    sg.set_defaults(func=_cmd_nimage_segment)

    return top


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The parser :func:`main` uses, built on first use; ``parse_args``
    leaves a parser unchanged, so one serves every call."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        if not hasattr(args, "func"):
            raise UsageError("missing subcommand (see --help)")
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except ComputationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
