"""One benchmark repetition in a fresh interpreter.

    python3 bench/child.py RESULT_DIR [WORKLOAD SEED TRACE]

With only RESULT_DIR it imports clocktree and stops: one set-up sample.
Otherwise it also runs the workload once and writes the outputs into
RESULT_DIR.  RESULT_DIR/result.json records when the interpreter started
running this file and the import's time in reference seconds (calib.py),
and for a workload its time in wall and in reference seconds, its exit
codes and the peak memory of this process; with TRACE = 1 also the
per-layer metrics of `spans.Tracer`.  bench/run.py
starts it with PYTHONPATH pointing at the checkout's src/.
"""
import importlib
import sys
import time

START = time.perf_counter()

import calib  # noqa: E402  (standard library only)

# What a `clocktree` command pays before it starts, timed against the
# machine's speed of the moment, sampled every 20 ms.
_SETUP_CLOCK = calib.RefClock(calib.bytecode_chunk, 0.02)
_module, _wall, IMPORT_REF_S = _SETUP_CLOCK.measure(importlib.import_module, "clocktree.cli")
IMPORT_DONE = time.perf_counter()

import json  # noqa: E402  (everything below is outside the set-up sample)
import os  # noqa: E402
import resource  # noqa: E402
from pathlib import Path  # noqa: E402

import clocktree  # noqa: E402  (already imported above)
import workloads  # noqa: E402


def _run(name: str, spec: dict, out: Path, tracer) -> tuple[float, float, list[int], list[Path]]:
    """Run one repetition; returns (wall s, reference s, exit codes, output files)."""
    from clocktree import cli, phase

    clock = calib.RefClock(calib.numpy_chunk, 0.1)
    if name in ("q4_grid", "q5_window"):
        path = out / "sweep.csv"
        main = cli.main if tracer is None else tracer.wrap("cli.main", cli.main)
        code, wall, ref = clock.measure(main, workloads.sweep_argv(spec, str(path)))
        return wall, ref, [code], [path]
    if name == "q5_line":
        line, wall, ref = clock.measure(phase.q5_transition_line, spec["lambda1_grid"])
        path = out / "line.csv"
        path.write_text("lambda1,lambda2\n" + "".join(f"{l1!r},{l2!r}\n" for l1, l2 in line))
        return wall, ref, [0], [path]
    files = [out / f"probe-{i}.csv" for i in range(len(spec["probes"]))]
    argvs = [workloads.probe_argv(p, spec["levels"], str(f)) for p, f in zip(spec["probes"], files)]
    if tracer is None:
        def probes():
            return [cli.main(argv) for argv in argvs]
    else:
        def probes():
            return [tracer.call_item(("probe", i), "cli.main", cli.main, argv)
                    for i, argv in enumerate(argvs)]
    codes, wall, ref = clock.measure(probes)
    return wall, ref, codes, files


def _peak_rss_kb() -> int:
    """Peak resident memory of this process's own address space.

    ru_maxrss is not used: exec carries the parent's peak over into it, so
    a child of a large parent would report the parent's memory.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main(argv: list[str]) -> int:
    out = Path(argv[1])
    record = {
        "start": START,
        "first_chunk_s": _SETUP_CLOCK.first_chunk_s,
        "import_ref_s": IMPORT_REF_S,
        "import_done": IMPORT_DONE,
        "clocktree": str(Path(clocktree.__file__).resolve()),
    }
    if len(argv) > 2:
        name, seed, trace = argv[2], int(argv[3]), argv[4] == "1"
        spec = workloads.inputs(name, seed)
        tracer = None
        if trace:
            from clocktree import basis, cli, fixedpoint, phase, recursion, spectral

            import spans

            tracer = spans.Tracer()
            tracer.install({
                "spectral": spectral, "basis": basis, "recursion": recursion,
                "fixedpoint": fixedpoint, "phase": phase, "cli": cli,
            })
        wall, ref, codes, files = _run(name, spec, out, tracer)
        record.update(
            wall_s=wall,
            ref_s=ref,
            codes=codes,
            outputs=[f.name for f in files],
            maxrss_kb=_peak_rss_kb(),
        )
        if tracer is not None:
            if name != "q5_line":  # the line's CSV is written here, not by the CLI
                tracer.counts["bytes_out"] = sum(os.path.getsize(f) for f in files if f.exists())
            record["layers"] = tracer.layer_metrics(workloads.item_count(name, spec))
    (out / "result.json").write_text(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
