"""CLI output pinned byte for byte.

Every fixture in ``tests/data`` goes through ``uft`` (text, json, csv),
``fuse`` (every rule, text and json), ``tcn`` (every variant under every
T-norm) and ``ufr``; a fixed set of ``neutro eval`` expressions covers
every recipe and the parser's errors.  The 8-source, 4-focal-set
scenario in ``tests/data/deep`` (65,536 product terms, under a model)
goes through ``fuse`` under the four pooling rules, text and json, and
the four ``uft_*`` scenarios there (3 and 4 sources, up to 192 terms,
every relationship and the discounts, grouping and exactly-one kinds)
through ``uft`` (text, json, csv).
Each run's exit code, stdout and
stderr must equal the recorded run in ``golden/cli_runs.json``.

To re-record after a deliberate output change, name the runs that move:

    PYTHONPATH=src python tests/test_cli_golden.py "uft --format json tests/data/x.json"

With no arguments every run is recorded again.
"""

import contextlib
import io
import json
import os
import pathlib
import sys

import pytest

from fusionkit.cli import main
from fusionkit.neutro import NsRecipe
from fusionkit.rules import RuleId
from fusionkit.tcn import TNorm

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden" / "cli_runs.json"

TCN_VARIANTS = ("conjunctive", "dempster", "yager", "smets", "pcr5_original", "pcr5v2")

_X, _Y = "(0.5,0.3,0.2)", "(0.4,0.6,0.1)"
NEUTRO_EXPRS = (
    *(f"{op}[{recipe.value}]({_X},{_Y})" for op in ("and", "or") for recipe in NsRecipe),
    f"not({_X})",
    f"or[product](and[min](not({_X}),{_Y}),and[bounded]((0.9,0.1,0.0),(0.7,0.2,0.4)))",
    f"and[median]({_X},{_Y})",
    f"{_X} extra",
    "(0.5,abc,0.2)",
    f"and[min]({_X}{_Y})",
)

DEEP = "tests/data/deep/eight_sources.json"
POOLING_RULES = (RuleId.CONJUNCTIVE, RuleId.DISJUNCTIVE,
                 RuleId.EXCLUSIVE_DISJUNCTIVE, RuleId.MIXED)
DEEP_UFT = sorted(p.relative_to(ROOT).as_posix()
                  for p in (ROOT / "tests" / "data" / "deep").glob("uft_*.json"))


def runs() -> list:
    """Every pinned argv, fixture paths relative to the repository root."""
    out = []
    for path in sorted((ROOT / "tests" / "data").glob("*.json")):
        scenario = path.relative_to(ROOT).as_posix()
        out += [["uft", "--format", fmt, scenario] for fmt in ("text", "json", "csv")]
        out += [["fuse", "--rule", rule.value, "--format", fmt, scenario]
                for rule in RuleId for fmt in ("text", "json")]
        out += [["tcn", "--variant", variant, "--tnorm", norm.value, scenario]
                for variant in TCN_VARIANTS for norm in TNorm]
        out.append(["ufr", scenario])
    out += [["fuse", "--rule", rule.value, "--format", fmt, DEEP]
            for rule in POOLING_RULES for fmt in ("text", "json")]
    out += [["uft", "--format", fmt, scenario]
            for scenario in DEEP_UFT for fmt in ("text", "json", "csv")]
    out += [["neutro", "eval", expr] for expr in NEUTRO_EXPRS]
    return out


def record(argv) -> dict:
    """Exit code, stdout and stderr of one in-process run; the streams
    are kept as lists of lines so that a changed line diffs alone."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return {"exit": code, "stdout": out.getvalue().split("\n"),
            "stderr": err.getvalue().split("\n")}


def load_golden() -> dict:
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


RUNS = runs()


@pytest.mark.parametrize("argv", RUNS, ids=[" ".join(a) for a in RUNS])
def test_cli_run_matches_the_recording(argv, monkeypatch):
    monkeypatch.chdir(ROOT)
    assert record(argv) == load_golden()[" ".join(argv)]


def test_every_recording_is_run():
    assert sorted(load_golden()) == sorted(" ".join(a) for a in RUNS)


if __name__ == "__main__":
    os.chdir(ROOT)
    names = sys.argv[1:]
    golden = load_golden() if names else {}
    for argv in RUNS:
        key = " ".join(argv)
        if not names or key in names:
            golden[key] = record(argv)
    GOLDEN.parent.mkdir(exist_ok=True)
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
