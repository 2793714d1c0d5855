"""The benchmark's own tests: tiny workloads pass their checks, corrupted
outputs fail them, and the command behaves as its contract says.

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import pathlib
import shutil
import subprocess
import sys

import pytest

BENCH = pathlib.Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

TINY_JOBS = 2 * workloads.CONTROL_EVERY


@pytest.fixture
def runner(tmp_path):
    r = run.Runner(str(tmp_path))
    _, failures = run.set_up(workloads, r, "image", 1)
    assert failures == []
    return r


def execute(runner, job):
    _, code, output, _ = runner.execute(job, runner.prepare(job))
    return code, output


def first_job(workload, kind, fmt=None, seed=1, tiny=True):
    for j in range(200):
        job = workloads.timed_job(workload, seed, j, tiny)
        if job.kind == kind and (fmt is None or job.expect.get("fmt") == fmt):
            return j, job
    raise AssertionError(f"no {kind} job")


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_tiny_workload_passes_its_checks(runner, workload):
    kinds = set()
    for j in range(TINY_JOBS):
        job = workloads.timed_job(workload, 3, j, tiny=True)
        _, record, failure = runner.run(job, checks)
        assert failure is None, (j, job.kind, failure)
        assert record
        kinds.add(job.kind)
    assert set(workloads.WORKLOADS[workload]) <= kinds


def test_same_seed_same_jobs_and_disjoint_warmup():
    a = workloads.timed_job("fuse-wide", 5, 7)
    b = workloads.timed_job("fuse-wide", 5, 7)
    assert (a.argv, a.files) == (b.argv, b.files)
    timed = {workloads.timed_job("fuse-deep", 5, j, tiny=True).files.get("in.json")
             for j in range(30)}
    warm = {job.files.get("in.json") for job in workloads.warmup_jobs("fuse-deep", 5)}
    assert not (timed & warm) - {None}


def test_mass_off_by_one_millionth_fails(runner):
    _, job = first_job("fuse-wide", "fuse_wide", fmt="json")
    code, out = execute(runner, job)
    checks.check(job, code, out, runner.workdir)
    doc = json.loads(out)
    name = next(iter(doc["masses"]))
    doc["masses"][name] += 1e-6
    with pytest.raises(checks.CheckFailed, match="total"):
        checks.check(job, code, json.dumps(doc), runner.workdir)


def test_mass_off_by_one_millionth_differs_from_reference(runner):
    _, job = first_job("fuse-deep", "fold", fmt="json")
    code, out = execute(runner, job)
    record = checks.check(job, code, out, runner.workdir)
    shifted = json.loads(json.dumps(record))
    fused = shifted["masses"]["fused"]
    key = next(iter(fused))
    fused[key] += 1e-6
    checks.compare_reference(record, json.loads(json.dumps(record)))
    with pytest.raises(checks.CheckFailed, match="reference"):
        checks.compare_reference(shifted, record)


def test_name_that_does_not_reparse_fails(runner):
    _, job = first_job("fuse-deep", "expand", fmt="text")
    code, out = execute(runner, job)
    checks.check(job, code, out, runner.workdir)
    head, rest = out.split("\n", 1)
    names = head.split()
    bad = head.replace(names[0], "Q" * len(names[0]), 1)
    with pytest.raises(checks.CheckFailed, match="does not parse"):
        checks.check(job, code, bad + "\n" + rest, runner.workdir)


def _flip_first_raster_byte(path):
    data = bytearray(pathlib.Path(path).read_bytes())
    data[-1] ^= 0x01
    pathlib.Path(path).write_bytes(bytes(data))


def test_flipped_segment_byte_fails(runner):
    _, job = first_job("image", "segment_grid")
    code, out = execute(runner, job)
    checks.check(job, code, out, runner.workdir)
    _flip_first_raster_byte(runner.path("out.pgm"))
    with pytest.raises(checks.CheckFailed, match="gray levels"):
        checks.check(job, code, out, runner.workdir)


def test_flipped_denoise_byte_differs_from_reference(runner):
    j, job = first_job("image", "denoise", seed=run.DEFAULT_SEED, tiny=False)
    reference = run.load_reference("image", run.DEFAULT_SEED)
    assert j < len(reference)
    code, out = execute(runner, job)
    checks.compare_reference(checks.check(job, code, out, runner.workdir), reference[j])
    _flip_first_raster_byte(runner.path("out.pgm"))
    with pytest.raises(checks.CheckFailed, match="reference"):
        checks.compare_reference(checks.check(job, code, out, runner.workdir), reference[j])


def test_tracer_counts_layers_and_restores(runner):
    import fusionkit.algebra
    import fusionkit.cli
    import fusionkit.rules

    originals = (fusionkit.cli.main, fusionkit.cli.conjunctive,
                 fusionkit.algebra.Frame.name_of)
    tracer = spans.Tracer()
    tracer.install()
    try:
        for j in range(TINY_JOBS):
            runner.run(workloads.timed_job("fuse-deep", 2, j, tiny=True), checks,
                       tracer, j)
        metrics = tracer.layer_metrics()
    finally:
        tracer.uninstall()
    assert (fusionkit.cli.main, fusionkit.cli.conjunctive,
            fusionkit.algebra.Frame.name_of) == originals
    for name in ("rules.calls", "rules.product_terms", "uft.audit_records",
                 "neutro.monomials", "algebra.name_calls", "mass.focal_sets",
                 "cli.load_s", "cli.emit_s", "tcn.pairs", "nimage.pixels"):
        assert metrics.get(name, 0) > 0, name
    roots = [s for s in tracer.spans if s.parent is None]
    assert {s.job for s in roots} == set(range(TINY_JOBS))
    assert all(s.self_s >= 0 for s in tracer.spans)


def _bench(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_command_at_default_seed_matches_reference(workload):
    proc = _bench(ROOT, "--workload", workload, "--seed", "0", "--jobs", "4",
                  "--setup-samples", "1", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] == 4
    assert set(result["metrics"]) == set(run.END_TO_END)


def test_command_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _bench(tmp_path, "--workload", "image", "--seed", "1",
                  "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
    assert not os.path.exists(tmp_path / ".perfbench")
