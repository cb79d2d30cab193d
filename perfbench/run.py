"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload in this process as a single-client closed loop: the
workload's fixed job list (one pass) is repeated as many times as fill
``--seconds`` at the workload's nominal pass time.  With ``--trace 0`` the
last stdout line holds the end-to-end metrics; with ``--trace 1`` untraced
and traced passes alternate and the last line holds the per-layer metrics.  The line before it is a
report with the environment, the seed, fail_ratio and the tail percentile.
See perfbench/README.md.
"""

import os
import sys
import time

# BLAS thread pools are sized when numpy is first imported.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_PROBES = 5
TAIL_SAMPLES_ABOVE = 10


def import_library():
    """Import graywyner from this checkout's src/, and only from there."""
    sys.path.insert(0, str(SRC))
    import graywyner

    origin = Path(graywyner.__file__).resolve().parent
    if origin != SRC / "graywyner":
        raise ImportError(f"graywyner imported from {origin}, not from {SRC}")
    return graywyner


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="set the workload up, print 'ready' and exit (used to time setup)")
    return p.parse_args(argv)


def environment(gw) -> dict:
    import numpy
    import scipy

    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10).stdout.split()
    except (OSError, subprocess.SubprocessError):
        out = []
    # Only a repository rooted at this checkout says which commit is measured.
    if len(out) == 2 and Path(out[0]).resolve() == ROOT:
        commit = out[1]
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "graywyner": gw.__version__,
        "git_commit": commit,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


# ---------------------------------------------------------------------------
# Passes
# ---------------------------------------------------------------------------


class PassResult:
    def __init__(self):
        self.wall = 0.0
        self.latencies = []
        self.outputs = {}
        self.failures = {}


def run_pass(workload, CheckFailed, tracer=None) -> PassResult:
    res = PassResult()
    ctx = {}
    start = time.perf_counter()
    for job in workload.jobs:
        if tracer is not None:
            tracer.job = job.name
        t = time.perf_counter()
        try:
            res.outputs[job.name] = job.run(ctx)
        except CheckFailed as exc:
            res.outputs[job.name] = None
            res.failures[job.name] = f"check: {exc}"
        except Exception as exc:  # a job that raises is a counted failure, not a crash
            res.outputs[job.name] = None
            res.failures[job.name] = f"raised {type(exc).__name__}: {exc}"
        res.latencies.append(time.perf_counter() - t)
    res.wall = time.perf_counter() - start
    return res


def compare(reference: PassResult, later: PassResult, what: str) -> None:
    """Count a job as failed where its outputs differ from the reference pass."""
    for name, out in later.outputs.items():
        if name not in later.failures and out != reference.outputs[name]:
            later.failures[name] = f"outputs differ from {what}"


def tail(latencies):
    """Latency with TAIL_SAMPLES_ABOVE samples above it, and its percentile."""
    xs = sorted(latencies)
    i = max(0, len(xs) - TAIL_SAMPLES_ABOVE - 1)
    pct = 100.0 * i / (len(xs) - 1) if len(xs) > 1 else 100.0
    return xs[i], pct


def best_latencies(passes) -> list:
    """Each job's fastest latency over the run's passes.

    The host's speed drifts by up to 40% within a second and for minutes, so
    a job timed once measures the host as much as the job.  Its fastest
    repeat is the time it takes when nothing else slows it down.
    """
    return [min(xs) for xs in zip(*(p.latencies for p in passes))]


def end_to_end(passes) -> tuple[dict, dict]:
    best = best_latencies(passes)
    # Every run of a job is one sample, at that job's best time.
    samples = best * len(passes)
    tail_s, tail_pct = tail(samples)
    metrics = {
        "wall_s": (sum(best), "s"),
        "job_ms_p50": (statistics.median(best) * 1e3, "ms"),
        "job_ms_tail": (tail_s * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    info = {"tail_percentile": round(tail_pct, 2), "tail_samples": len(samples),
            "tail_samples_above": min(TAIL_SAMPLES_ABOVE, len(samples) - 1),
            "repeats_per_job": len(passes),
            "pass_wall_s_median": statistics.median(p.wall for p in passes)}
    return metrics, info


def timed_setup_probes(args) -> list:
    """Wall time from spawning a fresh process of this script until its setup is done."""
    times = []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, cwd=ROOT) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            try:
                _, err = proc.communicate(timeout=120)
            except subprocess.TimeoutExpired:
                proc.kill()
                raise
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {err.strip()[-500:]}")
        times.append(elapsed)
    return times


def pass_count(workload, seconds: float, traced: bool) -> int:
    """Passes (or untraced/traced pairs) that fill ``seconds`` at nominal speed.

    The count depends only on ``seconds``, never on how fast this run goes,
    so every run of a workload times the same jobs and the tail percentile
    always falls on the same rank.
    """
    per_pass = workload.pass_s * (2 if traced else 1)
    return max(1 if traced else workload.min_passes, int(seconds // per_pass))


def measure(workload, CheckFailed, passes: int, tracer_factory=None):
    """Run ``passes`` untraced passes, each followed by a traced one if asked.

    The first untraced pass is the reference every later pass must reproduce.
    """
    untraced, traced = [], []
    for _ in range(passes):
        p = run_pass(workload, CheckFailed)
        if untraced:
            compare(untraced[0], p, "the first pass")
        untraced.append(p)
        if tracer_factory is not None:
            tracer = tracer_factory()
            tracer.install()
            try:
                t = run_pass(workload, CheckFailed, tracer)
            finally:
                tracer.uninstall()
            compare(untraced[0], t, "the untraced pass")
            traced.append((t, tracer))
    return untraced, traced


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        gw = import_library()
    except ImportError as exc:
        print(f"perfbench: cannot import graywyner from {SRC}: {exc}", file=sys.stderr)
        return 3
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    with tempfile.TemporaryDirectory(prefix=".perfbench-work-", dir=ROOT) as workdir:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        if args.setup_probe:
            print("ready", flush=True)
            return 0
        passes = pass_count(workload, args.seconds, bool(args.trace))
        untraced, traced = measure(workload, workloads.CheckFailed, passes,
                                   tracing.Tracer if args.trace else None)

    every_pass = untraced + [t for t, _ in traced]
    attempted = sum(len(p.latencies) for p in every_pass)
    failed = sum(len(p.failures) for p in every_pass)
    failures = {name: why for p in every_pass for name, why in p.failures.items()}
    extra, run_problems = workload.summarize(untraced[0].outputs)
    e2e, tail_info = end_to_end(untraced)
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(gw),
        "passes": len(untraced), "traced_passes": len(traced),
        "jobs_per_pass": len(workload.jobs), "fail_ratio": failed / attempted,
        "failures": dict(sorted(failures.items())[:20]), "run_checks_failed": run_problems,
        **tail_info, **extra,
    }

    if args.trace:
        per_pass = [tracing.pass_metrics(tracer.spans) for _, tracer in traced]
        call_counts = [{k: v for k, v in m.items() if k.endswith(".calls")} for m in per_pass]
        if any(c != call_counts[0] for c in call_counts):
            run_problems.append("call counts differ between traced passes")
        layer = tracing.combine_passes(per_pass)
        layer["trace.overhead_s"] = (
            statistics.median(t.wall - tracer.alloc_probe_s for t, tracer in traced)
            - statistics.median(p.wall for p in untraced))
        units = {name: unit for name, unit, _ in tracing.layer_metric_names()}
        metrics = {name: {"value": layer[name], "unit": units[name]} for name in units}
        report["end_to_end_untraced"] = {k: v for k, (v, _) in e2e.items()}
        out_dir = ROOT / ".perfbench-out"
        out_dir.mkdir(exist_ok=True)
        spans_file = out_dir / f"{args.workload}-seed{args.seed}.spans.jsonl"
        with open(spans_file, "w", encoding="utf-8") as fh:
            for i, (_, tracer) in enumerate(traced):
                fh.write(json.dumps({"traced_pass": i}) + "\n")
                tracer.dump(fh)
        report["spans_file"] = str(spans_file.relative_to(ROOT))
    else:
        e2e["setup_s"] = (statistics.median(timed_setup_probes(args)), "s")
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in e2e.items()}

    print(json.dumps({"report": report}))
    print(json.dumps({"correct": failed == 0 and not run_problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
