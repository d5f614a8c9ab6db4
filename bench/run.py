#!/usr/bin/env python3
"""Benchmark of innoreg's documented CLI workflows.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace {0,1}

Runs one workload (see workloads.py) in this process through the public CLI,
``innoreg.cli.main``, in-process with ``--jobs 1`` and BLAS/OpenMP threads
pinned to 1. After one warm-up pass it repeats closed-loop passes for
``--seconds`` and checks every pass against the oracles in oracles.py.

``wall_s`` is the mean pass of the run (its measured time over its passes);
every pass time is printed in the info line. ``setup_s`` is the median of
seven fresh-interpreter imports of ``innoreg.cli`` spread over the run.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. A traced run
alternates untraced and traced passes, so it also reports the tracing
overhead. Earlier lines carry the run manifest and run information.
"""

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:  # before numpy is imported anywhere
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from contextlib import nullcontext, redirect_stderr, redirect_stdout  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 7
SYNTH_SEED = 42  # the CLI default; synth cost depends strongly on it
# per-layer metrics that come from the checks, not from the spans; 0 on
# workloads without synth
CHECK_METRICS = ("synth.best_iteration", "synth.corr_max_abs_err",
                 "synth.moment_max_rel_err")
TRACE_METRICS = ("trace.overhead_s", "trace.span_coverage")


@dataclass
class Step:
    argv: list
    code: int
    out: str
    err: str


def call(main, argv):
    """One CLI invocation with its standard output and error captured."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv + ["--jobs", "1"])
    except SystemExit as exc:  # argparse rejected the arguments
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # a traceback is a failed operation; the run goes on
        err.write(traceback.format_exc())
        code = 1
    return Step(argv, code, out.getvalue(), err.getvalue())


def import_seconds():
    """Wall time of importing innoreg.cli in a fresh interpreter."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import innoreg.cli"],
                   env=dict(os.environ, PYTHONPATH=str(SRC)), cwd=ROOT, check=True)
    return time.perf_counter() - start


def git_commit():
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                         capture_output=True, text=True)
    return res.stdout.strip() if res.returncode == 0 else "unknown"


def manifest(args, inputs):
    import numpy
    import scipy
    return {
        "workload": args.workload, "seed": args.seed, "synth_seed": args.synth_seed,
        "seconds": args.seconds, "trace": args.trace, "git_commit": git_commit(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "inputs_sha256": {str(p.relative_to(HERE / ".work")):
                          hashlib.sha256(p.read_bytes()).hexdigest() for p in inputs},
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--synth-seed", type=int, default=SYNTH_SEED,
                    help="synth seed of pipeline_bundled (default 42), for "
                         "checking a claim on an unseen seed")
    args = ap.parse_args(argv)

    if not (SRC / "innoreg" / "cli.py").is_file():
        print(f"error: innoreg sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from innoreg import cli

    import spans
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    work = HERE / ".work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    wl = workloads.WORKLOADS[args.workload](work, args.seed, args.synth_seed)
    start = time.perf_counter()
    inputs = wl.prepare()
    gen_s = time.perf_counter() - start
    keep = set(inputs)
    steps = wl.steps()
    tally = workloads.Tally()
    info = {}
    cpu = []  # process CPU time of each untraced pass, for information

    def one_pass(tracer=None):
        for p in work.rglob("*"):  # no output of an earlier pass survives
            if p.is_file() and p not in keep:
                p.unlink()
        entry = cli.main if tracer is None else tracer.wrap("cli.main", cli.main)
        with spans.installed(tracer) if tracer else nullcontext():
            t0, c0 = time.perf_counter(), time.process_time()
            results = [call(entry, argv) for argv in steps]
            seconds = time.perf_counter() - t0
        if tracer is None:
            cpu.append(time.process_time() - c0)
        for res in results:
            tally.check(res.code == 0, f"{res.argv[0]}: exit code {res.code}")
            if res.code != 0:
                print(f"step {res.argv} exited {res.code}:\n{res.err}", file=sys.stderr)
        info.update(workloads.run_check(wl, results, tally))
        return seconds

    one_pass()  # warm-up: first-use caches and file creation, not measured
    plain, traced, setup = [], [], []
    busy = 0.0
    while not plain or busy < args.seconds:
        start = time.perf_counter()
        plain.append(one_pass())
        if args.trace:
            tracer = spans.Tracer()
            traced.append((one_pass(tracer), tracer))
        busy += time.perf_counter() - start
        # set-up samples are spread evenly over the run's measured time,
        # outside it, so that each run samples the host's slow and fast phases
        while not args.trace and len(setup) < min(
                SETUP_REPEATS, math.ceil(SETUP_REPEATS * busy / args.seconds)):
            setup.append(import_seconds())
    while not args.trace and len(setup) < SETUP_REPEATS:
        setup.append(import_seconds())

    fail_frac = tally.failed / tally.attempted
    if args.trace:
        per_pass = [tr.layer_metrics() for _, tr in traced]
        metrics = {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
        for k in CHECK_METRICS:
            metrics[k] = info.get(k, 0)
        metrics["trace.overhead_s"] = (statistics.fmean(s for s, _ in traced)
                                       - statistics.fmean(plain))
        metrics["trace.span_coverage"] = statistics.median(
            tr.root_seconds() / s for s, tr in traced)
    else:
        metrics = {
            # the mean, not the median: other tenants of a shared host slow
            # it in phases, and a median of a few passes jumps between them
            "wall_s": statistics.fmean(plain),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "ok_frac": 1.0 - fail_frac,
        }
    if tally.failed:
        print(f"{tally.failed} of {tally.attempted} operations failed:",
              file=sys.stderr)
        for reason, n in tally.reasons.most_common():
            print(f"  {n:6d}  {reason}", file=sys.stderr)

    declared = {m["name"]: m["unit"] for m in
                json.loads((ROOT / "BENCHMARK.json").read_text())[
                    "per_layer" if args.trace else "end_to_end"]}
    missing = sorted(set(declared) - set(metrics))
    if missing:
        print(f"error: metrics {missing} of BENCHMARK.json were not measured",
              file=sys.stderr)
        return 1
    # layers that no listed workload runs (game region) are measured but
    # not in BENCHMARK.json; they go to the info line
    unlisted = {k: v for k, v in metrics.items() if k not in declared}
    print(json.dumps({"manifest": manifest(args, inputs)}))
    print(json.dumps({"info": {"passes": len(plain), "traced_passes": len(traced),
                               "wall_s_per_pass": plain, "cpu_s_per_pass": cpu[1:],
                               "setup_s_samples": setup,
                               "input_generation_s": gen_s,
                               "fail_frac": fail_frac,
                               "unlisted_metrics": unlisted}}))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": metrics[k], "unit": unit}
                    for k, unit in declared.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
