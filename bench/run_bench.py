"""otpath benchmark: three solver workloads, end-to-end and per-layer metrics.

BENCHMARK.json gates `parabola2d` and `p4_2d`; `sweep1d` runs on request (see
README.md for why its timings are not gated).

Usage, from the repository root:

    python3 bench/run_bench.py --workload parabola2d --seed 1 --seconds 45 --trace 0
    python3 bench/run_bench.py --workload all            # every workload in turn
    python3 bench/run_bench.py --record-reference        # rewrite reference.json

A run sets every instance of the workload up several times (median is
`setup_s`), then repeats the whole workload -- solve, Newton baseline, CSV
writes -- for about `--seconds` (at least MIN_REPS times) and reports
medians.  Every repetition is checked against `reference.json`, and the
trajectory CSVs of all repetitions must hash identically.  With `--trace 1`
untraced and traced repetitions alternate (see spans.py), and the per-layer
metrics replace the end-to-end ones.  The last line of stdout is one JSON
object: correct, attempted, failed, metrics.

Exits 2 without a result when the library under src/ cannot be imported.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".bench_out"
REFERENCE = BENCH_DIR / "reference.json"
WORKLOAD_NAMES = ("parabola2d", "p4_2d", "sweep1d")
MIN_REPS = 3
MIN_SETUP_ROUNDS = 3
SETUP_SECONDS = 2.0  # set-up rounds continue until this much time has passed
MAX_SETUP_ROUNDS = 100
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END_UNITS = {
    "setup_s": "s",
    "solve_s": "s",
    "run_s": "s",
    "error_sup": "1",
    "peak_rss_mb": "MB",
}


def _pin_blas_threads():
    """At most one BLAS thread per usable core; must run before numpy loads."""
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        current = os.environ.get(var, "")
        wanted = min(int(current), nproc) if current.isdigit() and int(current) > 0 else nproc
        os.environ[var] = str(wanted)
    return nproc


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _context(args, nproc):
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": nproc,
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
    }


def _set_up_rounds(wl, instances):
    """Set every instance up repeatedly; returns (round times, objects)."""
    times = []
    start = time.perf_counter()
    while len(times) < MAX_SETUP_ROUNDS and (
        len(times) < MIN_SETUP_ROUNDS or time.perf_counter() - start < SETUP_SECONDS
    ):
        t0 = time.perf_counter()
        problems = [wl.set_up(inst) for inst in instances]
        times.append(time.perf_counter() - t0)
    return times, problems


class _Checker:
    """Counts solves attempted and failed, and trajectory hash mismatches."""

    def __init__(self, reference, mismatches):
        self.reference = reference
        self.mismatches = mismatches
        self.attempted = 0
        self.failed = 0
        self.hash_mismatches = 0
        self.first_hashes = None
        self.messages = []
        self.error_sup = 0.0

    def check(self, outcomes):
        hashes = {}
        for out in outcomes:
            self.attempted += 1
            problems = self.mismatches(out, self.reference.get(out.key))
            if problems:
                self.failed += 1
                self.messages.append(f"{out.key}: " + "; ".join(problems))
            if out.error_sup is not None:
                self.error_sup = max(self.error_sup, out.error_sup)
            hashes[out.key] = out.trajectory_sha256
        if self.first_hashes is None:
            self.first_hashes = hashes
        else:
            self.hash_mismatches += sum(
                1 for key, digest in hashes.items() if digest != self.first_hashes.get(key)
            )

    @property
    def correct(self):
        return self.failed == 0 and self.hash_mismatches == 0


def _fits(start, times, seconds, min_reps):
    """Another repetition is due: fewer than `min_reps` so far, or one more of
    median length still ends within `seconds`."""
    if len(times) < min_reps:
        return True
    return time.perf_counter() - start + statistics.median(times) <= seconds


def _repeat(wl, instances, problems, scratch, checker, seconds, min_reps):
    """Run the workload for about `seconds` (at least `min_reps` times)."""
    solve, run = [], []
    start = time.perf_counter()
    while _fits(start, run, seconds, min_reps):
        outcomes, solve_s, run_s = wl.run_instances(instances, problems, scratch)
        checker.check(outcomes)
        solve.append(solve_s)
        run.append(run_s)
    return solve, run


def _traced_pairs(wl, instances, problems, scratch, checker, seconds, spans):
    """Alternate an untraced and a traced repetition (the traced one sets up
    again, inside the trace) for about `seconds`, so slow drift in machine
    speed hits both sides of `trace.overhead_s` alike.

    Returns the per-layer dicts, both run_s lists and the last tracer.
    """
    layers, plain, traced, pairs = [], [], [], []
    start = time.perf_counter()
    while _fits(start, pairs, seconds, 1):
        t0 = time.perf_counter()
        outcomes, _, run_s = wl.run_instances(instances, problems, scratch)
        checker.check(outcomes)
        plain.append(run_s)
        tracer = spans.Tracer()
        with spans.instrument(tracer):
            with tracer.span("bench.setup"):
                traced_problems = [wl.set_up(inst) for inst in instances]
            outcomes, _, run_s = wl.run_instances(instances, traced_problems, scratch, tracer)
        checker.check(outcomes)
        traced.append(run_s)
        layers.append(spans.layer_metrics(tracer.spans))
        pairs.append(time.perf_counter() - t0)
    return layers, plain, traced, tracer


def _load_reference():
    if not REFERENCE.exists():
        return {}
    return json.loads(REFERENCE.read_text())


def run_workload(args):
    import spans
    import workloads as wl

    reference = _load_reference().get(args.workload, {})
    instances = wl.make_instances(args.workload, args.seed)
    checker = _Checker(reference, wl.mismatches)
    OUT_DIR.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="csv-", dir=OUT_DIR))
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        setup_times, problems = _set_up_rounds(wl, instances)
        samples = {"setup_s": setup_times}
        if args.trace:
            layers, plain_run, traced_run, tracer = _traced_pairs(
                wl, instances, problems, scratch, checker, args.seconds, spans
            )
            metrics = {  # median_low: a count stays a whole number
                key: (statistics.median_low(layer[key] for layer in layers), unit)
                for key, unit in spans.LAYER_UNITS.items()
            }
            metrics["trace.overhead_s"] = (
                statistics.median(traced_run) - statistics.median(plain_run), "s"
            )
            metrics["check.hash_mismatches"] = (checker.hash_mismatches, "count")
            samples.update(untraced_run_s=plain_run, traced_run_s=traced_run)
            tracer.write(OUT_DIR / f"{stem}-spans.csv")
        else:
            solve, run = _repeat(wl, instances, problems, scratch, checker, args.seconds, MIN_REPS)
            samples.update(solve_s=solve, run_s=run)
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            values = {
                "setup_s": statistics.median(setup_times),
                "solve_s": statistics.median(solve),
                "run_s": statistics.median(run),
                "error_sup": checker.error_sup,
                "peak_rss_mb": peak_kb / 1024.0,
            }
            metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in values.items()}
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return checker, metrics, samples, stem


def _report(args, nproc, checker, metrics, samples, stem):
    context = _context(args, nproc)
    print("context " + json.dumps(context, sort_keys=True))
    for message in list(dict.fromkeys(checker.messages))[:20]:
        print(f"CHECK FAILED {message}")
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    fail_frac = checker.failed / checker.attempted
    print(f"{args.workload} fail_frac = {fail_frac:.6g} 1 ({checker.failed}/{checker.attempted} solves)")
    print(f"{args.workload} trajectory hash mismatches = {checker.hash_mismatches}")
    print(f"{args.workload} samples: " + ", ".join(f"{k} n={len(v)}" for k, v in samples.items()))
    result = {
        "correct": checker.correct,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record = dict(result, context=context, fail_frac=fail_frac, samples=samples,
                  hash_mismatches=checker.hash_mismatches, messages=checker.messages)
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(json.dumps(result))


def _run_all(args):
    """Each workload in its own process, so peak_rss_mb is its own."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            return proc.returncode or 1
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = metric
    print(json.dumps(combined))
    return 0


def _record_reference():
    import workloads as wl

    OUT_DIR.mkdir(exist_ok=True)
    reference = {}
    scratch = Path(tempfile.mkdtemp(prefix="csv-", dir=OUT_DIR))
    try:
        for name in WORKLOAD_NAMES:
            instances = wl.make_instances(name, None)
            problems = [wl.set_up(inst) for inst in instances]
            outcomes, _, _ = wl.run_instances(instances, problems, scratch)
            failed = [out.key for out in outcomes if out.error is not None]
            if failed:
                print(f"{name}: no answer for {failed}", file=sys.stderr)
                return 1
            reference[name] = {out.key: wl.reference_entry(out) for out in outcomes}
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {REFERENCE}")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true",
                        help="solve every workload in canonical order and rewrite reference.json")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    nproc = _pin_blas_threads()
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import otpath  # numpy loads here, after the thread pin
    except ImportError as exc:
        print(f"cannot import otpath from {src}: {exc}", file=sys.stderr)
        return 2
    if Path(otpath.__file__).resolve().parent.parent != src.resolve():
        print(f"otpath was imported from {otpath.__file__}, not {src}", file=sys.stderr)
        return 2

    if args.record_reference:
        return _record_reference()
    if args.workload == "all":
        return _run_all(args)
    _report(args, nproc, *run_workload(args))
    return 0


if __name__ == "__main__":
    sys.exit(main())
