"""fermicov benchmark.

    python3 perfbench/run.py --workload bound_suite --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0

Runs one workload (see workloads.py and README.md) from the root of a fermicov
checkout, importing the package from its src/ directory.  With --trace 0 it
reports the end-to-end metrics; with --trace 1 it times untraced passes, then
traced passes, and reports the per-layer metrics.  `--workload all` runs
every workload with tracing off and on, each in its own process.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; metric names and units come from
BENCHMARK.json.  Spans and a full result record go to perfbench/.out/.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / ".out"
WORKLOADS = ("bound_suite", "modular_rep", "wick_exhaustive")
CHILD_TIMEOUT_S = 170


def limit_blas_threads():
    """Single-threaded BLAS, for this process and its children; must run
    before numpy is imported.

    The run is not pinned to a CPU: bound-check's default thread pool runs
    as users run it, so the cost of its lock hand-offs across CPUs is part of
    the measurement.  With one BLAS thread no run uses more than nproc
    threads, and a D=10 representation pass varied by about 4 %, against
    13 % with two BLAS threads."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def measure_setup(workload: str, seed: int):
    """Import numpy and fermicov, then make the workload's first call.

    Returns (workload object, import seconds, first-call seconds); input
    generation between the two is not timed."""
    t0 = time.perf_counter()
    import numpy  # noqa: F401
    import fermicov  # noqa: F401
    import fermicov.cli  # noqa: F401

    import_s = time.perf_counter() - t0
    if not Path(fermicov.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"fermicov was imported from {fermicov.__file__}, not {SRC}")
    from workloads import WORKLOADS as CLASSES

    OUT.mkdir(exist_ok=True)
    work = CLASSES[workload](seed, OUT / f"{workload}-s{seed}")
    with contextlib.redirect_stdout(io.StringIO()):
        t1 = time.perf_counter()
        work.first_call()
        first_call_s = time.perf_counter() - t1
    return work, import_s, first_call_s


def child_setup_sample(workload: str, seed: int) -> float:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--probe"],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes = []

    def add(self, attempted: int, failed: int, notes: list):
        self.attempted += attempted
        self.failed += failed
        self.notes += notes


def run_passes(work, seconds: float, tally: Tally) -> list:
    """Repeat passes until `seconds` have elapsed (at least one); each pass is
    timed alone and checked afterwards, outside the timed region."""
    times = []
    start = time.perf_counter()
    while not times or time.perf_counter() - start < seconds:
        with contextlib.redirect_stdout(io.StringIO()):
            t0 = time.perf_counter()
            try:
                out = work.run_pass()
            except Exception as exc:  # counted as failed checks below
                out = exc
                tally.notes.append(traceback.format_exc())
            times.append(time.perf_counter() - t0)
        tally.add(*work.check_pass(out))
    return times


def environment(jobs) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu_model = platform.processor()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    return {
        "cpu_model": cpu_model,
        "nproc": len(os.sched_getaffinity(0)),
        "os_cpu_count": os.cpu_count(),
        "jobs": jobs,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(np) or os.environ["OPENBLAS_NUM_THREADS"],
        "git_commit": _git_commit(),
    }


def _blas_threads(np):
    """Thread count reported by numpy's bundled OpenBLAS, if it can be asked."""
    import ctypes

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("libscipy_openblas*.so")) if libs.is_dir() else []:
        with contextlib.suppress(OSError, AttributeError):
            fn = ctypes.CDLL(str(lib)).scipy_openblas_get_num_threads64_
            fn.restype = ctypes.c_int
            return int(fn())
    return None


def _git_commit() -> str:
    """HEAD of the checkout, or 'unknown' outside a git work tree."""
    with contextlib.suppress(OSError, subprocess.SubprocessError):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
        if proc.returncode == 0:
            return proc.stdout.strip()
    return "unknown"


def load_contract() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def emit(metrics: dict, specs: list, tally: Tally, ok: bool) -> dict:
    """Print every metric by name with its unit; return the result object."""
    out = {}
    for spec in specs:
        value = float(metrics.get(spec["name"], 0.0))
        out[spec["name"]] = {"value": value, "unit": spec["unit"]}
        print(f"  {spec['name']:<48} {value:>16.6g} {spec['unit']}")
    return {
        "correct": bool(ok and tally.failed == 0),
        "attempted": int(tally.attempted),
        "failed": int(tally.failed),
        "metrics": out,
    }


def layer_metrics(tracer, traced_times: list, untraced_median: float, workload: str) -> tuple:
    """Per-pass self times and counts from the traced passes, plus the shares."""
    passes = len(traced_times)
    cpu = {name: t / passes for name, t in tracer.self_cpu_times().items()}
    metrics = {f"{name}.s": t for name, t in cpu.items()}
    metrics.update({name: c / passes for name, c in tracer.counts.items()})
    traced_median = statistics.median(traced_times)
    residual = untraced_median - sum(cpu.values())
    metrics["trace.overhead_s"] = traced_median - untraced_median
    if workload == "bound_suite":
        metrics["verify.schedule_wait_s"] = residual
    shares = {name: t / untraced_median for name, t in sorted(cpu.items(), key=lambda kv: -kv[1])}
    shares["(untraced remainder)"] = residual / untraced_median
    return metrics, shares


def run_workload(args) -> int:
    limit_blas_threads()
    sys.path.insert(0, str(SRC))
    work, import_s, first_call_s = measure_setup(args.workload, args.seed)
    if args.probe:
        print(json.dumps({"setup_s": import_s + first_call_s, "import_s": import_s,
                          "first_call_s": first_call_s}))
        return 0

    contract = load_contract()
    env = environment(work.jobs())
    tally = Tally()
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env,
              "setup_in_process": {"import_s": import_s, "first_call_s": first_call_s}}
    print(f"fermicov benchmark: workload {args.workload}, seed {args.seed}, "
          f"{args.seconds} s, trace {args.trace}")
    print("environment: " + json.dumps(env))

    if work.warm_up:
        run_passes(work, 0.0, tally)  # checked but not timed
    if args.trace == 0:
        times = run_passes(work, 0.0, tally)
        # read after a fixed amount of work: freed 2^D buffers fragment the
        # heap, so the high-water mark keeps rising with the number of passes
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        times += run_passes(work, args.seconds - times[0], tally)
        # this process's sample plus fresh child processes, a fixed number per
        # workload: import times alone vary by tens of percent
        setups = [import_s + first_call_s]
        while len(setups) < work.setup_samples:
            setups.append(child_setup_sample(args.workload, args.seed))
        metrics = {
            "checks_per_s": work.checks / statistics.median(times),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": peak_rss_mb,
        }
        record.update(pass_times_s=times, setup_samples_s=setups)
        specs = contract["end_to_end"]
    else:
        from tracing import Tracer

        untraced = run_passes(work, args.seconds / 2, tally)
        tracer = Tracer()
        tracer.install()
        traced = []
        try:
            while not traced or sum(traced) < args.seconds / 2:
                tracer.pass_index, tracer.active = len(traced), True
                traced += run_passes(work, 0.0, tally)
                tracer.active = False
        finally:
            tracer.active = False
            tracer.uninstall()
        metrics, shares = layer_metrics(tracer, traced, statistics.median(untraced),
                                        args.workload)
        spans_path = OUT / f"{args.workload}-s{args.seed}-spans.jsonl"
        tracer.dump(spans_path)
        record.update(untraced_pass_times_s=untraced, traced_pass_times_s=traced,
                      shares_of_untraced_pass=shares, spans=str(spans_path.relative_to(ROOT)))
        print("share of the untraced pass (self time per layer):")
        for name, share in shares.items():
            print(f"  {name:<48} {100 * share:>7.2f} %")
        specs = contract["per_layer"]

    final = work.final_check()
    tally.add(*final)
    ok = not final[2]
    metrics["pass_frac"] = 1.0 - tally.failed / max(tally.attempted, 1)
    print(f"checks: {tally.attempted} attempted, {tally.failed} failed"
          + "".join(f"\n  {note}" for note in tally.notes[:20]))
    print("metrics:")
    result = emit(metrics, specs, tally, ok)
    record.update(result=result, notes=tally.notes)
    (OUT / f"{args.workload}-s{args.seed}-t{args.trace}-result.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload, tracing off then on, each in its own process."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace)],
                capture_output=True, text=True, cwd=ROOT,
            )
            sys.stdout.write(proc.stdout)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                return proc.returncode
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            for name, metric in result["metrics"].items():
                combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true",
                        help="only measure set-up: import plus the first call")
    args = parser.parse_args(argv)
    if not (SRC / "fermicov" / "__init__.py").is_file():
        print(f"error: no fermicov sources under {SRC}; run from a fermicov checkout",
              file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = float(load_contract()["run_seconds"])
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
