"""clocktree benchmark.

One workload, as the command in BENCHMARK.json runs it:

    python3 bench/run.py --workload q4_grid --seed 1 --seconds 20 --trace 0

Every workload, with a table of each end-to-end metric (median, highest
percentile with ten samples beyond it, sample count); exits nonzero when an
oracle fails:

    python3 bench/run.py --all [--seed 1] [--seconds 20] [--record FILE]

A run first starts one interpreter to warm the bytecode cache, then
repetitions of the workload, each in a fresh interpreter so every
repetition pays the per-process caches a CLI user pays.  Between them,
spread over the run, SETUP_SAMPLES interpreters only import clocktree
(`setup_s` is their median).  Repetitions continue while the next one, as
long as the last, fits in --seconds; there are at least MIN_REPS.  Each
repetition's outputs are checked by oracle.py before the next starts.
Times are in reference seconds (calib.py).  With --trace 1 untraced and
traced repetitions alternate; the traced ones give the per-layer metrics
(spans.py), and their time over the untraced ones' gives the tracing
overhead.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  The run reads and writes only inside the
checkout (.bench_out/ holds the outputs while they are checked).
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calib
import oracle
import spans
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SCRATCH = ROOT / ".bench_out"
SETUP_SAMPLES = 9
MIN_REPS = 3
CHILD_TIMEOUT_S = 170.0

END_TO_END = {"items_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}


class BenchError(Exception):
    """The benchmark could not run the program at all."""


def _child(out: Path, *args: str) -> dict:
    """Start bench/child.py in a fresh interpreter; returns its result record."""
    out.mkdir(parents=True)
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "child.py"), str(out), *args],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"repetition {args} exceeded {CHILD_TIMEOUT_S:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"child {args} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    record = json.loads((out / "result.json").read_text())
    # CLOCK_MONOTONIC is shared by all processes, so the child's stamps and ours compare.
    # Interpreter start is rescaled by the speed the child saw first, the import by
    # the speed sampled while it ran.
    record["setup_s"] = calib.to_reference(
        record["start"] - t0, calib.bytecode_chunk, record["first_chunk_s"]) + record["import_ref_s"]
    record["setup_wall_s"] = record["import_done"] - t0
    if not record["clocktree"].startswith(src + os.sep):
        raise BenchError(f"imported clocktree from {record['clocktree']}, not from {src}")
    return record


def _check(name: str, spec: dict, out: Path, record: dict) -> tuple[int, int, str]:
    """(items, failed items, sha256 of the outputs) of one repetition."""
    texts = []
    for fname in record["outputs"]:
        path = out / fname
        texts.append(path.read_text() if path.exists() else "")
    digest = hashlib.sha256("".join(texts).encode()).hexdigest()
    codes = record["codes"]
    if name in ("q4_grid", "q5_window"):
        items, failed = oracle.check_sweep(texts[0], spec, boundary=name == "q4_grid")
        return items, (items if codes[0] != 0 else len(failed)), digest
    if name == "q5_line":
        items, failed = oracle.check_line(texts[0], spec["lambda1_grid"])
        return items, len(failed), digest
    bad = 0
    for probe, text, code in zip(spec["probes"], texts, codes):
        ok = code == 0 and oracle.check_probe(
            text, probe["q"], probe["lambda1"], probe["lambda2"], probe["u"], spec["levels"])
        bad += not ok
    return len(spec["probes"]), bad, digest


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Everything one run measures: samples, failures, output digests, layer metrics."""
    spec = workloads.inputs(name, seed)
    start = time.perf_counter()
    work = SCRATCH / f"run-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    samples = {"items_per_s": [], "setup_s": [], "peak_rss_mb": []}
    attempted = failed = 0
    digests: set[str] = set()
    ref_times = {False: [], True: []}
    layers: list[dict] = []
    raw_rates: list[float] = []
    raw_setup: list[float] = []
    setup = samples["setup_s"]

    def sample_setup(due: int) -> None:
        while len(setup) < due:
            record = _child(work / f"setup-{len(setup)}")
            setup.append(record["setup_s"])
            raw_setup.append(record["setup_wall_s"])

    try:
        _child(work / "warm")
        rep = 0
        last = 0.0
        while True:
            elapsed = time.perf_counter() - start
            # spread the set-up samples over the run, so their median does not
            # hang on the speed of the machine during one second or two
            sample_setup(min(SETUP_SAMPLES, 1 + int(SETUP_SAMPLES * elapsed / max(seconds, 1e-9))))
            traced = trace and rep % 2 == 1
            done = rep >= (2 if trace else MIN_REPS)
            if done and time.perf_counter() - start + last > seconds:
                break
            t_rep = time.perf_counter()
            out = work / f"rep-{rep}"
            record = _child(out, name, str(seed), "1" if traced else "0")
            items, bad, digest = _check(name, spec, out, record)
            shutil.rmtree(out)
            attempted += items
            failed += bad
            digests.add(digest)
            ref_times[traced].append(record["ref_s"])
            if traced:
                layers.append(record["layers"])
            else:
                samples["items_per_s"].append(items / record["ref_s"])
                raw_rates.append(items / record["wall_s"])
                samples["peak_rss_mb"].append(record["maxrss_kb"] / 1024.0)
            last = time.perf_counter() - t_rep
            rep += 1
        sample_setup(SETUP_SAMPLES)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            SCRATCH.rmdir()
        except OSError:
            pass  # another run still uses it
    result = {"samples": samples, "attempted": attempted, "failed": failed,
              "sha256": sorted(digests), "wall_items_per_s": raw_rates, "wall_setup_s": raw_setup}
    if trace:
        per_layer = {k: statistics.median(m[k] for m in layers) for k in layers[0]}
        per_layer["trace.overhead_frac"] = (
            statistics.median(ref_times[True]) / statistics.median(ref_times[False]) - 1.0)
        result["layers"] = per_layer
    return result


def _default_seconds() -> int:
    try:
        return int(json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    except (OSError, KeyError, ValueError):
        return 20


def tail_percentile(values: list[float]) -> tuple[str, float] | None:
    """The highest percentile with at least ten samples above it, by rank."""
    n = len(values)
    if n < 11:
        return None
    k = n - 10  # rank of the value with exactly ten samples above it
    return f"p{100 * k // n}", sorted(values)[k - 1]


def _result_line(result: dict, trace: bool) -> str:
    if trace:
        metrics = {k: {"value": v, "unit": spans.UNITS[k]} for k, v in result["layers"].items()}
    else:
        metrics = {k: {"value": statistics.median(v), "unit": END_TO_END[k]}
                   for k, v in result["samples"].items()}
    return json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    })


def _machine() -> dict:
    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    import numpy

    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__}


def _git_sha() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except OSError:
        return "unknown"
    return proc.stdout.strip() or "unknown"


def run_all(seed: int, seconds: float, record: str | None) -> int:
    """Every workload untraced, then traced when recording; prints the table."""
    baseline = {"git_sha": _git_sha() if record else None, "seed": seed, "run_seconds": seconds,
                "workloads": {}}
    ok = True
    print(f"{'workload':<11} {'metric':<12} {'unit':<5} {'median':>12} {'tail':>18} {'n':>4}")
    for name in workloads.NAMES:
        res = run_workload(name, seed, seconds, trace=False)
        entry = {"attempted": res["attempted"], "failed": res["failed"],
                 "fail_frac": res["failed"] / res["attempted"], "sha256": res["sha256"]}
        for metric, values in res["samples"].items():
            tail = tail_percentile(values)
            shown = f"{tail[0]} {tail[1]:.6g}" if tail else "n/a (n<11)"
            med = statistics.median(values)
            print(f"{name:<11} {metric:<12} {END_TO_END[metric]:<5} {med:>12.6g} {shown:>18} {len(values):>4}")
            entry[metric] = {"median": med, "unit": END_TO_END[metric], "n": len(values),
                             "tail": list(tail) if tail else None}
        wall = statistics.median(res["wall_items_per_s"])
        entry["wall_items_per_s"] = wall
        print(f"{name:<11} {'wall_per_s':<12} {'1/s':<5} {wall:>12.6g} {'(wall clock, not gated)':>18}"
              f" {len(res['wall_items_per_s']):>4}")
        print(f"{name:<11} {'fail_frac':<12} {'1':<5} {entry['fail_frac']:>12.6g} "
              f"{'':>18} {res['attempted']:>4}  sha256 {' '.join(d[:16] for d in res['sha256'])}")
        ok = ok and res["failed"] == 0
        if record:
            entry["per_layer"] = run_workload(name, seed, seconds, trace=True)["layers"]
        baseline["workloads"][name] = entry
    if record:
        baseline["machine"] = _machine()
        Path(record).write_text(json.dumps(baseline, indent=2, sort_keys=True) + "\n")
    if not ok:
        print("oracle failures: see fail_frac above", file=sys.stderr)
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.NAMES)
    parser.add_argument("--all", action="store_true", help="run every workload and print a table")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", default=None, help="with --all: write a baseline JSON here")
    args = parser.parse_args(argv)
    seconds = args.seconds if args.seconds is not None else _default_seconds()
    try:
        if args.all:
            return run_all(args.seed, seconds, args.record)
        if args.workload is None:
            parser.error("give --workload NAME or --all")
        result = run_workload(args.workload, args.seed, seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    for digest in result["sha256"]:
        print(f"output sha256 {digest}")
    for key in ("wall_items_per_s", "wall_setup_s"):
        if result[key]:
            print(f"{key} median {statistics.median(result[key]):.6g}"
                  f" over {len(result[key])} samples (wall clock, not gated)")
    print(_result_line(result, bool(args.trace)))
    return 0 if result["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
