#!/usr/bin/env python3
"""fusionkit benchmark: one closed-loop caller, three workloads.

Run from the repository root:

    python3 perfbench/run.py --workload fuse-deep --seed 1 --seconds 30 --trace 0

Workloads are ``fuse-deep``, ``fuse-wide`` and ``image`` (see
``workloads.py`` for what each one loads and why).  One single-threaded
process runs the jobs one after another, each starting when the
previous one returns, for ``--seconds`` seconds of calibrated job time.
Fusion and image jobs go through ``fusionkit.cli.main(argv)`` in-process
with stdout captured; neutro jobs call ``fusionkit.neutro`` directly.
Every output is checked outside the timed span (``checks.py``), and at the
default seed also compared with the values recorded in ``reference/``.

Wall times are calibrated for the machine's speed drift (``speed.py``):
each job's time is divided by the slowness a fixed probe measures
around it.  The text output also prints the raw wall-clock figures.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs a
fixed number of jobs with spans around every layer boundary
(``spans.py``), prints the per-layer metrics, and writes the spans to
``.perfbench/``; it also runs the same jobs untraced in a fresh
interpreter to report the tracing overhead.  The last line of stdout is
always one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

import os

# One thread for every BLAS/OpenMP pool, set before numpy loads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")
DEFAULT_SEED = 0
CHILD_TIMEOUT_S = 170
#: A traced run runs a fixed number of jobs, this rate times --seconds,
#: so its per-layer counts repeat exactly from commit to commit.  The
#: rates are about the raw throughput when the benchmark was introduced,
#: so a traced run and its untraced replay take about 2 x --seconds.
TRACE_JOBS_PER_S = {"fuse-deep": 13, "fuse-wide": 8, "image": 4}

#: End-to-end metrics, printed with --trace 0: name -> unit.
END_TO_END = {
    "setup_s": "s",
    "jobs_per_s": "1/s",
    "job_p50_ms": "ms",
    "job_p90_ms": "ms",
    "ok_ratio": "ratio",
    "peak_rss_mb": "MB",
}
#: Per-layer metrics, printed with --trace 1: name -> unit.
PER_LAYER = {
    "rules.calls": "count",
    "rules.self_s": "s",
    "rules.product_terms": "count",
    "rules.product_terms_per_s": "1/s",
    "rules.ledger_entries": "count",
    "uft.calls": "count",
    "uft.self_s": "s",
    "uft.audit_records": "count",
    "neutro.calls": "count",
    "neutro.self_s": "s",
    "neutro.monomials": "count",
    "algebra.name_calls": "count",
    "algebra.name_s": "s",
    "algebra.name_distinct_ratio": "ratio",
    "algebra.parse_calls": "count",
    "algebra.parse_s": "s",
    "mass.make_bba_calls": "count",
    "mass.make_bba_s": "s",
    "mass.focal_sets": "count",
    "tcn.calls": "count",
    "tcn.self_s": "s",
    "tcn.pairs": "count",
    "cli.load_s": "s",
    "cli.emit_s": "s",
    "cli.self_s": "s",
    "nimage.pixels": "count",
    "nimage.pgm_io_s": "s",
    "nimage.to_ns_s": "s",
    "nimage.denoise_s": "s",
    "nimage.denoise_passes": "count",
    "nimage.fit_abc_s": "s",
    "nimage.fit_abc_candidates": "count",
    "nimage.segment_grid_s": "s",
    "nimage.segment_blobs_s": "s",
    "nimage.segment_regions": "count",
    "nimage.segment_dams": "count",
    "trace.overhead_ratio": "ratio",
}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("fuse-deep", "fuse-wide", "image"))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=30.0,
                   help="calibrated job time to measure")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--jobs", type=int,
                   help="run exactly this many jobs instead of --seconds")
    p.add_argument("--setup-samples", type=int, default=3,
                   help="fresh interpreters whose set-up time gives setup_s")
    p.add_argument("--setup-only", action="store_true",
                   help="set up once and print the set-up time (used for sampling)")
    return p.parse_args(argv)


class Runner:
    """Writes a job's inputs, times the call, checks the output."""

    def __init__(self, workdir: str):
        self.workdir = workdir
        self.cli = None
        self.neutro = None

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def prepare(self, job):
        """Everything up to the timed call: files, argv, call arguments."""
        for name in os.listdir(self.workdir):
            os.remove(self.path(name))
        for name, data in job.files.items():
            with open(self.path(name), "wb") as fh:
                fh.write(data)
        if job.call is None:
            return [self.path(a[1:]) if a.startswith("@") else a for a in job.argv]
        name, args = job.call
        if name == "ns_combine_graded":
            order, triples = args
            return (tuple(order), *(self.neutro.NsTriple(*t) for t in triples))
        return tuple(args)

    def execute(self, job, prepared):
        """The timed part: returns (seconds, exit code, output, error)."""
        if job.call is not None:
            fn = getattr(self.neutro, job.call[0])
            start = perf_counter()
            try:
                result = fn(*prepared)
            except Exception:  # a failed job, reported by kind
                return perf_counter() - start, None, None, traceback.format_exc()
            return perf_counter() - start, 0, result, ""
        out, err = io.StringIO(), io.StringIO()
        start = perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.main(prepared)
        except Exception:  # an uncaught exception is a failed job
            return perf_counter() - start, None, None, traceback.format_exc()
        return perf_counter() - start, code, out.getvalue(), err.getvalue()

    def run(self, job, checks, tracer=None, index=0):
        """Run and check one job: (seconds, record or None, failure or None)."""
        prepared = self.prepare(job)
        if tracer is not None:
            tracer.begin_job(index, job.kind)
        dt, code, output, err = self.execute(job, prepared)
        if tracer is not None:
            tracer.end_job()
        if code is None:
            return dt, None, f"exception: {err.strip().splitlines()[-1]}"
        try:
            return dt, checks.check(job, code, output, self.workdir), None
        except checks.CheckFailed as exc:
            detail = f" ({err.strip()})" if code else ""
            return dt, None, f"{exc}{detail}"
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            return dt, None, f"malformed output: {exc!r}"


def set_up(workloads, runner, workload: str, seed: int):
    """Import the program and run the warm-up jobs; returns the set-up
    time (input generation and checks excluded, calibrated by the speed
    probes taken right after it) and warm-up failures."""
    jobs = workloads.warmup_jobs(workload, seed)
    start = perf_counter()
    import fusionkit  # noqa: F401
    import fusionkit.cli
    import fusionkit.neutro

    elapsed = perf_counter() - start
    runner.cli, runner.neutro = fusionkit.cli, fusionkit.neutro
    import checks

    failures = []
    for job in jobs:
        dt, _, failure = runner.run(job, checks)
        elapsed += dt
        if failure:
            failures.append(f"warm-up {job.kind}: {failure}")
    import speed

    return elapsed / statistics.median(speed.probe() for _ in range(speed.WINDOW)), failures


def setup_sample(args) -> float:
    """Set-up time of a fresh interpreter."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    out = subprocess.run(cmd, capture_output=True, text=True, check=True,
                         timeout=CHILD_TIMEOUT_S).stdout
    return float(out.strip().splitlines()[-1])


def load_reference(workload: str, seed: int):
    if seed != DEFAULT_SEED:
        return []
    path = os.path.join(HERE, "reference", f"{workload}.json")
    if not os.path.exists(path):
        print(f"no reference values in {os.path.relpath(path, ROOT)}")
        return []
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["jobs"]


@dataclass
class Loop:
    """What the closed loop measured, job by job."""

    latencies: list = field(default_factory=list)  # raw wall seconds
    slowness: list = field(default_factory=list)  # speed probe before each job
    kinds: list = field(default_factory=list)
    failures: Counter = field(default_factory=Counter)
    first_failure: dict = field(default_factory=dict)

    @property
    def busy(self) -> float:
        return sum(self.latencies)

    def calibrated(self) -> list:
        import speed

        return speed.calibrate(self.latencies, self.slowness)


def run_loop(workloads, checks, runner, args, tracer=None, reference=(),
             on_record=None) -> Loop:
    """The closed loop: jobs until --seconds of calibrated job time (or
    --jobs), so the job count does not follow the machine's drift."""
    import speed

    loop, measured, j = Loop(), 0.0, 0
    while (measured < args.seconds) if args.jobs is None else (j < args.jobs):
        job = workloads.timed_job(args.workload, args.seed, j)
        loop.slowness.append(speed.probe())
        dt, record, failure = runner.run(job, checks, tracer, j)
        if failure is None and j < len(reference):
            try:
                checks.compare_reference(record, reference[j])
            except checks.CheckFailed as exc:
                failure = f"differs from the reference: {exc}"
        if failure is not None:
            loop.failures[job.kind] += 1
            loop.first_failure.setdefault(job.kind, f"job {j}: {failure}")
        if on_record is not None:
            on_record(j, job, record, failure)
        loop.latencies.append(dt)
        loop.kinds.append(job.kind)
        measured += dt / speed.current(loop.slowness)
        j += 1
    return loop


def environment(seed: int) -> dict:
    import numpy
    import scipy

    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "seed": seed,
    }


def git_sha() -> str:
    """HEAD of the checkout, read from .git without leaving it."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def latency_metrics(latencies, ok: int) -> dict:
    p90 = statistics.quantiles(latencies, n=10)[8] if len(latencies) > 1 else latencies[0]
    return {
        "jobs_per_s": ok / sum(latencies),
        "job_p50_ms": statistics.median(latencies) * 1e3,
        "job_p90_ms": p90 * 1e3,
    }


def end_to_end(loop: Loop, setup_samples) -> dict:
    attempted = len(loop.latencies)
    ok = attempted - sum(loop.failures.values())
    return {
        "setup_s": statistics.median(setup_samples),
        **latency_metrics(loop.calibrated(), ok),
        "ok_ratio": ok / attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def untraced_busy(args, jobs: int) -> float:
    """Calibrated job time of the same jobs, untraced, in a fresh
    interpreter."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--trace", "0", "--jobs", str(jobs),
           "--setup-samples", "1"]
    out = subprocess.run(cmd, capture_output=True, text=True, check=True,
                         timeout=CHILD_TIMEOUT_S).stdout
    return float(re.search(r"^calibrated busy_s: (\S+)$", out, re.M).group(1))


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "fusionkit", "__init__.py")):
        print(f"error: no fusionkit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    import numpy  # noqa: F401  (the generators need it; keep it out of setup_s)

    import workloads

    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    os.makedirs(workdir)
    try:
        return bench(args, workloads, Runner(workdir))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def bench(args, workloads, runner) -> int:
    if args.setup_only:  # warm-up failures are reported by the parent's own set-up
        print(repr(set_up(workloads, runner, args.workload, args.seed)[0]))
        return 0

    extra_samples = 0 if args.trace else args.setup_samples - 1
    samples = [setup_sample(args) for _ in range(extra_samples)]
    elapsed, warm_failures = set_up(workloads, runner, args.workload, args.seed)
    samples.append(elapsed)
    import checks

    tracer = None
    if args.trace:
        import spans

        if args.jobs is None:
            args.jobs = int(TRACE_JOBS_PER_S[args.workload] * args.seconds)
        tracer = spans.Tracer()
        tracer.install()
    try:
        loop = run_loop(workloads, checks, runner, args, tracer,
                        load_reference(args.workload, args.seed))
    finally:
        if tracer is not None:
            tracer.uninstall()

    attempted = len(loop.latencies)
    failed = sum(loop.failures.values())
    calibrated = loop.calibrated()
    print(f"workload: {args.workload}")
    print("environment: " + json.dumps(environment(args.seed)))
    print(f"jobs: {attempted} attempted, {failed} failed, "
          f"fail_ratio {failed / attempted!r}")
    for kind, count in sorted(loop.failures.items()):
        print(f"failed kind {kind}: {count} ({loop.first_failure[kind]})")
    for failure in warm_failures:
        print(failure)
    print(f"busy_s: {loop.busy!r}")
    print(f"calibrated busy_s: {sum(calibrated)!r}")
    print(f"median slowness: {statistics.median(loop.slowness)!r}")
    for kind in sorted(set(loop.kinds)):
        times = [t for t, k in zip(loop.latencies, loop.kinds) if k == kind]
        print(f"kind {kind}: {len(times)} jobs, raw {sum(times):.3f} s, "
              f"median {statistics.median(times) * 1e3:.3f} ms")
    if args.trace:
        path = os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.jsonl")
        tracer.write(path)
        print(f"spans: {len(tracer.spans)} written to {os.path.relpath(path, ROOT)}")
        layer = tracer.layer_metrics()
        layer["trace.overhead_ratio"] = (
            sum(calibrated) / untraced_busy(args, attempted) - 1.0)
        metrics = {name: layer.get(name, 0) for name in PER_LAYER}
        units = PER_LAYER
    else:
        metrics = end_to_end(loop, samples)
        units = END_TO_END
        raw = latency_metrics(loop.latencies, attempted - failed)
        print("raw (uncalibrated): " + ", ".join(f"{k} {v!r}" for k, v in raw.items()))
        beyond = sum(1 for x in calibrated if x * 1e3 > metrics["job_p90_ms"])
        print(f"latency samples: {attempted}, beyond p90: {beyond}")
        print(f"setup samples (s): {[round(s, 4) for s in samples]}")
    for name, value in metrics.items():
        print(f"{name}: {value!r} {units[name]}")
    print(json.dumps({
        "correct": failed == 0 and not warm_failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
