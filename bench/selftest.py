"""Self-tests of the benchmark itself (not of clocktree).

    python3 bench/selftest.py

They check that the benchmark counts wrong outputs as failures, that
traced counts repeat exactly, and that a seed moves the inputs but not the
amount of work.  The file name keeps them out of the repository's pytest
run; they start interpreters and take about half a minute.
"""
import sys
import tempfile
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import oracle  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

sys.path.insert(0, str(BENCH.parent / "src"))
from clocktree import cli  # noqa: E402


def _small_q4_sweep() -> tuple[dict, str]:
    """A res-40 version of the q4_grid sweep and the CSV the CLI writes for it."""
    spec = dict(workloads.inputs("q4_grid", 7), res=40)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "sweep.csv"
        assert cli.main(workloads.sweep_argv(spec, str(path))) == 0
        return spec, path.read_text()


def _count_failures(spec: dict, text: str) -> tuple[int, int]:
    """(attempted, failed) as a benchmark run counts them for this CSV."""
    with tempfile.TemporaryDirectory() as tmp:
        (Path(tmp) / "sweep.csv").write_text(text)
        record = {"outputs": ["sweep.csv"], "codes": [0]}
        items, failed, _digest = run._check("q4_grid", spec, Path(tmp), record)
    return items, failed


def _replace_row(text: str, match, new_tail: str) -> str:
    """`text` with the first data row whose fields satisfy `match` ending in `new_tail`."""
    lines = text.split("\n")
    for i, line in enumerate(lines[1:-1], start=1):
        fields = line.split(",")
        if match(fields):
            lines[i] = ",".join(fields[:2] + new_tail.split(","))
            return "\n".join(lines)
    raise AssertionError("no row matched")


class FailureCounting(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.spec, cls.text = _small_q4_sweep()

    def test_clean_csv_has_no_failures(self):
        self.assertEqual(_count_failures(self.spec, self.text), (1600, 0))

    def test_flipped_regime_is_counted(self):
        flipped = _replace_row(self.text, lambda f: f[3] == "PT_AND_RPT", "true,NO_PT,0")
        self.assertEqual(_count_failures(self.spec, flipped), (1600, 1))

    def test_failed_row_marker_is_counted(self):
        marked = _replace_row(self.text, lambda f: f[3] == "NO_PT", "false,CRITICAL,0")
        self.assertEqual(_count_failures(self.spec, marked), (1600, 1))

    def test_missing_rows_are_counted(self):
        cut = "\n".join(self.text.split("\n")[:-11]) + "\n"
        self.assertEqual(_count_failures(self.spec, cut), (1600, 10))

    def test_wrong_probe_verdict_is_rejected(self):
        dists = "".join(f"{k},0.1\n" for k in range(401))
        text = "level,distance\n" + dists + "verdict,{},levels,400,u,0.01\n"
        self.assertTrue(oracle.check_probe(text.format("BOUNDED_AWAY"), 4, 0.6, 0.2, 0.01, 400))
        self.assertFalse(oracle.check_probe(text.format("CONVERGES_TO_UNIFORM"), 4, 0.6, 0.2, 0.01, 400))


class Seeds(unittest.TestCase):
    def test_seed_moves_inputs_not_item_count(self):
        for name in workloads.NAMES:
            a, b = workloads.inputs(name, 1), workloads.inputs(name, 2)
            self.assertNotEqual(a, b, name)
            self.assertEqual(a, workloads.inputs(name, 1), name)
            self.assertEqual(workloads.item_count(name, a), workloads.item_count(name, b), name)


def _counts(layers: dict) -> dict:
    timed = ("_s", "_us", "levels_per_s", "overhead_frac")
    return {k: v for k, v in layers.items() if not k.endswith(timed)}


class Tracing(unittest.TestCase):
    def test_traced_counts_repeat_exactly(self):
        for name in ("q5_line", "probe_scan"):
            first = run.run_workload(name, 3, 0, trace=True)
            second = run.run_workload(name, 3, 0, trace=True)
            self.assertEqual(first["failed"], 0)
            self.assertEqual(_counts(first["layers"]), _counts(second["layers"]), name)
            self.assertEqual(set(first["layers"]), set(spans.UNITS), name)

    def test_wrappers_see_the_calls(self):
        layers = run.run_workload("q5_line", 4, 0, trace=True)["layers"]
        self.assertEqual(layers["spectral.spec_builds_per_item"], 0)
        self.assertEqual(layers["trace.items"], len(workloads.inputs("q5_line", 4)["lambda1_grid"]))
        self.assertGreater(layers["fixedpoint.critical_solves_per_q5_solve"], 0.3)
        self.assertGreater(layers["fixedpoint.newton_iters_per_call"], 1)


class Percentile(unittest.TestCase):
    def test_tail_has_ten_samples_beyond(self):
        values = list(range(40))
        label, value = run.tail_percentile(values)
        self.assertEqual(sum(v > value for v in values), 10)
        self.assertEqual(label, "p75")
        self.assertIsNone(run.tail_percentile(values[:10]))


if __name__ == "__main__":
    unittest.main()
