"""infoqm benchmark: closed-loop, single-client runs of the CLI and library.

    python3 perfbench/run.py --workload closed_form --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  One client in this process runs a workload's job list back to
back (a pass), a fixed number of times that fills about ``--seconds`` on
the reference box, and checks every output.  ``--trace 0`` prints the
end-to-end metrics, measured with tracing off and normalized by the
machine's speed sampled while each job ran (bench_speed.py).
``--trace 1`` runs one untraced pass and then traced passes, and prints
the per-layer metrics.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  The
lines before it record the environment and the details.
See README.md beside this file for the workloads and the metric map.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from bench_speed import SpeedSampler

# bench_jobs and bench_trace import infoqm, so they are imported only
# after main() has checked that the sources are there.
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 9
MIN_PASSES = 3
# Typical seconds of one pass of each workload on the reference box
# (2 cores, Python 3.11, numpy 2.4).  A run makes round(--seconds /
# PASS_SECONDS) passes, so that runs of a workload have the same samples;
# it starts no pass past OVERRUN x --seconds, so that a slow machine or
# program still ends in time.
PASS_SECONDS = {"closed_form": 1.8, "nls_lambda": 6.0, "nls_fixed_b": 4.7}
OVERRUN = 1.15


def _child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != "INFOQM_THREADS"}
    env["PYTHONPATH"] = str(SRC)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def time_import() -> float:
    """Time of a fresh interpreter until ``import infoqm`` completes, less
    the sampler's own time, over the speed factor sampled during it."""
    start = time.perf_counter()
    probe = subprocess.run([sys.executable, str(HERE / "import_probe.py")], env=_child_env(),
                           cwd=ROOT, check=True, capture_output=True, text=True)
    wall = time.perf_counter() - start
    sample = json.loads(probe.stdout)
    return (wall - sample["spent_s"]) / sample["factor"]


def environment(args) -> dict:
    import numpy

    src_digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        src_digest.update(path.relative_to(SRC).as_posix().encode())
        src_digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            probe = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                   text=True, timeout=10)
            if probe.returncode == 0:
                commit = probe.stdout.strip()
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": commit,
        "src_sha256": src_digest.hexdigest(),
        "loadavg_start": os.getloadavg(),
    }


class Runner:
    """Runs jobs, times the program calls and keeps every outcome."""

    def __init__(self):
        self.tracer = None  # set while the layers are traced
        self.sampler = SpeedSampler()  # samples only while entered
        # label -> (kind, runs); a run is (seconds, first sample, last sample)
        self.latency: dict[str, tuple[str, list[tuple[float, int, int]]]] = {}
        self.attempted = 0
        self.program_failures = 0
        self.broken: list[str] = []
        self.digests: dict[str, str] = {}

    def run_job(self, job, record: bool) -> int:
        """Run one job; returns the size of its CLI output file, else 0."""
        from bench_jobs import CheckFailed, ProgramFailure

        if job.out is not None and job.out.exists():
            job.out.unlink()
        sink = io.StringIO()
        with contextlib.redirect_stderr(sink):
            first, spent = self.sampler.mark()
            start = time.perf_counter()
            try:
                result = job.call()
            except Exception as exc:  # an untyped error escaping the program
                result = exc
            elapsed = time.perf_counter() - start
            last, spent_after = self.sampler.mark()
        self.attempted += 1
        if record:
            run = (elapsed - (spent_after - spent), first, last)
            self.latency.setdefault(job.label, (job.kind, []))[1].append(run)
        if isinstance(result, Exception):
            self.broken.append(f"{job.label}: untyped {type(result).__name__}: {result}")
            return 0
        try:
            data = job.check(result)
        except ProgramFailure:
            self.program_failures += 1
            return 0
        except CheckFailed as exc:
            self.broken.append(str(exc))
            return 0
        except Exception as exc:  # an output the checks could not read
            self.broken.append(f"{job.label}: unreadable output: {type(exc).__name__}: {exc}")
            return 0
        digest = hashlib.sha256(data).hexdigest()
        first = self.digests.setdefault(job.label, digest)
        if first != digest:
            self.broken.append(f"{job.label}: output differs from its first run")
        return len(data) if job.out is not None else 0

    def run_pass(self, jobs, record: bool = True) -> tuple[float, int]:
        """Run the jobs once; returns (wall seconds, CLI output bytes)."""
        out_bytes = 0
        start = time.perf_counter()
        if self.tracer is None:
            for job in jobs:
                out_bytes += self.run_job(job, record)
        else:
            with self.tracer.span("bench.pass"):
                for job in jobs:
                    with self.tracer.span("bench.job"):
                        out_bytes += self.run_job(job, record)
        return time.perf_counter() - start, out_bytes


def pass_count(workload: str, seconds: float) -> int:
    return max(MIN_PASSES, round(seconds / PASS_SECONDS[workload]))


def run_passes(runner: Runner, jobs, count: int, seconds: float) -> tuple[list, list]:
    """``count`` passes back to back (fewer only past OVERRUN x ``seconds``),
    with SETUP_REPEATS import timings spread between them; returns
    (passes, import times)."""
    passes, imports = [], []
    every = max(1, count // SETUP_REPEATS)
    start = time.perf_counter()
    while len(passes) < count:
        if len(passes) >= MIN_PASSES and time.perf_counter() - start > OVERRUN * seconds:
            break
        if len(passes) % every == 0 and len(imports) < SETUP_REPEATS:
            imports.append(time_import())
        with runner.sampler:
            passes.append(runner.run_pass(jobs))
    while len(imports) < SETUP_REPEATS:
        imports.append(time_import())
    return passes, imports


def tail(values: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond): the highest percentile that
    leaves at least ten samples above it; the maximum if there are fewer
    than eleven samples."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, 0
    idx = n - 11
    return ordered[idx], 100.0 * (idx + 1) / n, n - idx - 1


def end_to_end(runner: Runner, passes, imports: list[float], count: int) -> tuple[dict, dict]:
    """End-to-end metrics from speed-normalized job times.

    Other tenants of the shared reference box change its speed by up to
    1.6x from one stretch of a run to the next, so each run of a job is
    divided by the speed factor sampled while it ran (bench_speed.py), and
    a job's latency is the median of its normalized runs.  ``wall_s`` is
    one pass of the job list at those latencies.  A subcommand's latency
    is the median over its jobs.  The tail counts each job once per run it
    makes in ``count`` passes, so that its rank does not move when a slow
    machine cuts a run short.
    """
    from bench_jobs import SUBCOMMAND_METRICS

    sampler = runner.sampler
    per_kind: dict[str, list[float]] = {}
    per_job: dict[str, float] = {}
    weighted: list[float] = []
    raw: dict[str, list[float]] = {}
    factors: list[float] = []
    for label, (kind, runs) in runner.latency.items():
        normalized = []
        for seconds, first, last in runs:
            factors.append(sampler.factor(first, last))
            normalized.append(seconds / factors[-1])
        per_job[label] = latency = statistics.median(normalized)
        per_kind.setdefault(kind, []).append(latency)
        weighted += [latency] * (len(runs) // len(passes) * count)
        raw.setdefault(kind, []).extend(seconds for seconds, _, _ in runs)
    metrics = {"setup_s": statistics.median(imports), "wall_s": sum(weighted) / count}
    for kind, name in SUBCOMMAND_METRICS.items():
        metrics[name] = statistics.median(per_kind[kind])
    value, pct, beyond = tail(weighted)
    metrics["job_tail_s"] = value
    failed = runner.program_failures + len(runner.broken)
    metrics["ok_frac"] = 1.0 - failed / runner.attempted
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    details = {
        "passes": len(passes),
        "setup_s": imports,
        "pass_wall_s": [p[0] for p in passes],  # raw, checks included
        "job_tail": {"percentile": pct, "samples": len(weighted), "beyond": beyond},
        "failed_frac": failed / runner.attempted,
        "program_failures": runner.program_failures,
        "latency_samples": {k: len(v) for k, v in raw.items()},
        "raw_median_latency_s": {k: statistics.median(v) for k, v in raw.items()},
        "speed_samples": len(sampler.cost),
        "speed_factor_quartiles": statistics.quantiles(factors, n=4),
        "job_latency_s": per_job,
    }
    return metrics, details


def traced(runner: Runner, jobs, count: int, seconds: float) -> tuple[dict, dict]:
    """One untraced pass, then ``count - 1`` traced passes; per-layer
    values are medians over the traced passes, each for one pass."""
    from bench_trace import Tracer, layer_metrics

    start = time.perf_counter()
    untraced_wall, _ = runner.run_pass(jobs)
    tracer = Tracer()
    tracer.install()
    runner.tracer = tracer
    per_pass = []
    try:
        while len(per_pass) < count - 1:
            if per_pass and time.perf_counter() - start > OVERRUN * seconds:
                break
            wall, out_bytes = runner.run_pass(jobs)
            per_pass.append(layer_metrics(tracer.end_pass(), wall, out_bytes))
    finally:
        runner.tracer = None
        tracer.uninstall()
    # counts are exact: take the first traced pass's and say whether they repeated
    metrics = {name: value if isinstance(value, int) else
               statistics.median(p[name] for p in per_pass)
               for name, value in per_pass[0].items()}
    metrics["trace.overhead_ratio"] = metrics["trace.wall_s"] / untraced_wall
    counts = [{k: v for k, v in p.items() if isinstance(v, int)} for p in per_pass]
    details = {
        "traced_passes": len(per_pass),
        "untraced_wall_s": untraced_wall,
        "counts_repeat": all(c == counts[0] for c in counts),
        # layers' self time plus the harness's own equals the traced wall time
        "self_s_sum": metrics["bench.self_s"] + metrics["trace.layers_s"],
    }
    return metrics, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny grids for a quick schema check (not a measurement)")
    args = parser.parse_args(argv)

    if not (SRC / "infoqm" / "__init__.py").is_file():
        print(f"error: no infoqm sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.pop("INFOQM_THREADS", None)
    sys.path.insert(0, str(SRC))
    import infoqm

    if Path(infoqm.__file__).resolve().parent != SRC / "infoqm":
        print(f"error: imported infoqm from {infoqm.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import bench_jobs

    if args.workload not in bench_jobs.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(bench_jobs.WORKLOADS)}", file=sys.stderr)
        return 2

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    env = environment(args)
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        warm_jobs, jobs = bench_jobs.build(args.workload, args.seed, workdir, args.smoke)
        runner = Runner()
        time_import()  # writes the bytecode cache, as any first start does
        runner.run_pass(warm_jobs, record=False)
        count = pass_count(args.workload, args.seconds)
        if args.trace:
            metrics, details = traced(runner, jobs, count, args.seconds)
        else:
            passes, imports = run_passes(runner, jobs, count, args.seconds)
            metrics, details = end_to_end(runner, passes, imports, count)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()

    details["broken"] = runner.broken[:20]
    print(json.dumps({"environment": env}))
    print(json.dumps({"details": details}))
    result = {
        "correct": not runner.broken,
        "attempted": runner.attempted,
        "failed": len(runner.broken),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in spec["per_layer" if args.trace else "end_to_end"]},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
