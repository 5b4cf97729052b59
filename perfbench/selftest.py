"""Self-tests of the benchmark (stdlib only, no ``repro`` import).

Run with ``python3 perfbench/selftest.py`` or ``python3 perfbench/run.py
--self-test``.
"""

from __future__ import annotations

import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import grid  # noqa: E402
from tracer import Tracer, merge  # noqa: E402


class SeedTest(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        self.assertEqual(grid.sweep_grid(7), grid.sweep_grid(7))
        self.assertEqual(grid.job_round(7, 3), grid.job_round(7, 3))
        self.assertEqual(
            grid.oracle_order(7, list(range(20))),
            grid.oracle_order(7, list(range(20))),
        )

    def test_other_seed_other_inputs(self):
        self.assertNotEqual(grid.sweep_grid(7), grid.sweep_grid(8))
        self.assertNotEqual(
            [grid.job_round(7, r) for r in range(3)],
            [grid.job_round(8, r) for r in range(3)],
        )

    def test_seed_keeps_the_amount_of_work(self):
        for seed in (1, 2, 3):
            calls = grid.sweep_grid(seed)
            edge = [c for c in calls if c.utilizations == grid.EDGE.utilizations]
            self.assertEqual(len(edge), 1)
            self.assertEqual(
                sorted((c.family, c.bg_buffer) for c in calls if c not in edge),
                sorted(
                    (f, x) for f in grid.FAMILIES for x in grid.BUFFERS
                ),
            )
            self.assertEqual(sum(c.points for c in calls), 281)
            self.assertEqual(sorted(grid.job_round(seed, 0)),
                             sorted(grid.SWEEP_FIGURES))


class SpanArithmeticTest(unittest.TestCase):
    def tracer(self, *ticks):
        clock = iter(ticks)
        return Tracer(clock=lambda: next(clock))

    def test_self_time_excludes_children(self):
        t = self.tracer(0, 10, 30, 35, 50, 100)
        t.enter("outer")      # 0
        t.enter("a")          # 10
        t.exit()              # 30: a = 20
        t.enter("b")          # 35
        t.exit()              # 50: b = 15
        t.exit()              # 100: outer = 100, self 100 - 35
        snap = t.snapshot()
        self.assertEqual(snap["busy_ns"], {"outer": 100, "a": 20, "b": 15})
        self.assertEqual(snap["self_ns"], {"outer": 65, "a": 20, "b": 15})

    def test_nested_same_layer_counts_once(self):
        t = self.tracer(0, 5, 15, 40)
        t.enter("core")       # 0
        t.enter("core")       # 5
        t.exit()              # 15: inner 10
        t.exit()              # 40: outer 40
        snap = t.snapshot()
        self.assertEqual(snap["calls"]["core"], 2)
        self.assertEqual(snap["busy_ns"]["core"], 40)
        self.assertEqual(snap["self_ns"]["core"], 40)

    def test_wrap_records_and_restores(self):
        class Owner:
            @staticmethod
            def work(x):
                return x * 2

        t = self.tracer(*range(0, 100, 5))
        original = Owner.work
        t.wrap(Owner, "work", "layer",
               lambda tr, result, args, kw: tr.values["seen"].add(result))
        self.assertEqual(Owner.work(3), 6)
        self.assertEqual(Owner.work(3), 6)
        t.uninstall()
        self.assertIs(Owner.work, original)
        snap = t.snapshot()
        self.assertEqual(snap["calls"]["layer"], 2)
        self.assertEqual(snap["counters"]["seen.distinct"], 1)

    def test_merge_sums(self):
        one = {"calls": {"a": 1}, "busy_ns": {"a": 5}, "self_ns": {"a": 5},
               "counters": {"n": 2}}
        total = merge([one, one])
        self.assertEqual(total["calls"]["a"], 2)
        self.assertEqual(total["busy_ns"]["a"], 10)
        self.assertEqual(total["counters"]["n"], 4)


class OutputCheckTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.reference = checks.load_reference()
        cls.output = "".join(text + "\n\n" for text in cls.reference.values())

    def test_reference_output_passes(self):
        self.assertEqual(
            checks.check_all_output(self.output, self.reference),
            (len(self.reference), []),
        )

    def test_perturbed_figure_fails(self):
        fig5 = self.reference["fig5"]
        line = next(l for l in fig5.splitlines() if l.startswith("0.1000"))
        perturbed = self.output.replace(line, line.replace("0.1000", "0.1001", 1))
        self.assertNotEqual(perturbed, self.output)
        count, problems = checks.check_all_output(perturbed, self.reference)
        self.assertEqual(problems, ["fig5: output differs from the reference"])

    def test_missing_figure_fails(self):
        without = self.output.replace(self.reference["fig9"] + "\n\n", "")
        count, problems = checks.check_all_output(without, self.reference)
        self.assertEqual(count, len(self.reference) - 1)
        self.assertIn("fig9: missing", problems)

    def test_fig1_tolerates_sampling_noise_only(self):
        fig1 = self.reference["fig1"]
        head, acf = fig1.split("[ACF]")
        # A different random stream: every ACF value moves by 0.02.
        noisy = head + "[ACF]" + _shift_acf(acf, 0.02)
        self.assertEqual(checks.check_fig1(noisy, self.reference), [])
        # A sampler that loses the correlation: ACF values move by 0.1.
        broken = head + "[ACF]" + _shift_acf(acf, 0.1)
        self.assertTrue(checks.check_fig1(broken, self.reference))
        # The parameter table is compared byte for byte.
        retitled = fig1.replace("E-mail", "E-Mail", 1)
        self.assertTrue(checks.check_fig1(retitled, self.reference))

    def test_sweep_values_match_within_tolerance(self):
        self.assertTrue(checks.values_match(1151.1479711101615, 1151.1479711101736))
        self.assertFalse(checks.values_match(0.25, 0.25 + 1e-8))
        self.assertFalse(checks.values_match(float("nan"), float("nan")))

    def test_percentile_is_nearest_rank(self):
        values = list(range(1, 101))
        self.assertEqual(checks.percentile(values, 0.9), 90)
        self.assertEqual(checks.percentile([3.0], 0.9), 3.0)


def _shift_acf(acf_block: str, delta: float) -> str:
    """Add ``delta`` to every ACF value of a rendered ACF table."""
    out = []
    for line in acf_block.split("\n"):
        cells = line.split()
        try:
            values = [float(c) for c in cells]
        except ValueError:  # header and rule lines
            values = []
        if len(values) > 1:
            line = "  ".join([cells[0], *(f"{v + delta:.4f}" for v in values[1:])])
        out.append(line)
    return "\n".join(out)


if __name__ == "__main__":
    unittest.main()
