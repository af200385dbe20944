"""Tests for the harness's own pieces. Run from the checkout root:

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import os
import subprocess
import tempfile
import unittest

import benchlib as bl

PBENCH = os.path.join(".bench_build", "src", "_build", "default", "perfbench_ocaml", "pbench.exe")


class NearestRank(unittest.TestCase):
    def test_small_samples(self):
        self.assertEqual(bl.nearest_rank([5], 50), 5)
        self.assertEqual(bl.nearest_rank([5], 99), 5)
        self.assertEqual(bl.nearest_rank([3, 1, 2], 50), 2)
        self.assertEqual(bl.nearest_rank([4, 1, 3, 2], 50), 2)

    def test_rank_is_ceiling(self):
        values = list(range(1, 101))  # 1..100
        self.assertEqual(bl.nearest_rank(values, 99), 99)
        self.assertEqual(bl.nearest_rank(values, 100), 100)
        self.assertEqual(bl.nearest_rank(values, 1), 1)
        self.assertEqual(bl.nearest_rank(list(range(1, 201)), 99), 198)
        # p99 of 150 samples is rank ceil(148.5) = 149
        self.assertEqual(bl.nearest_rank(list(range(1, 151)), 99), 149)

    def test_value_is_a_sample(self):
        values = [0.1, 0.7, 0.3, 0.9]
        for q in (10, 50, 90, 99):
            self.assertIn(bl.nearest_rank(values, q), values)

    def test_rejects_bad_input(self):
        with self.assertRaises(ValueError):
            bl.nearest_rank([], 50)
        with self.assertRaises(ValueError):
            bl.nearest_rank([1], 0)
        with self.assertRaises(ValueError):
            bl.nearest_rank([1], 101)


class OpenLoopSchedule(unittest.TestCase):
    def test_due_times_are_fixed_by_start_and_rate(self):
        self.assertEqual([bl.due_time(10.0, 4.0, i) for i in range(4)], [10.0, 10.25, 10.5, 10.75])

    def test_due_count(self):
        t0, rate = 100.0, 1000.0
        self.assertEqual(bl.due_count(t0, rate, 99.0, 50), 0)
        self.assertEqual(bl.due_count(t0, rate, t0, 50), 1)
        self.assertEqual(bl.due_count(t0, rate, t0 + 0.0105, 50), 11)
        self.assertEqual(bl.due_count(t0, rate, t0 + 10.0, 50), 50)

    def test_a_stall_does_not_shift_the_schedule(self):
        # After a 5 ms stall everything that fell due is sent at once, and
        # the next due time is still on the original grid.
        t0, rate = 0.0, 1000.0
        sent = bl.due_count(t0, rate, 0.0055, 1000)
        self.assertEqual(sent, 6)
        self.assertAlmostEqual(bl.due_time(t0, rate, sent), 0.006)
        lateness = [0.0055 - bl.due_time(t0, rate, i) for i in range(sent)]
        self.assertAlmostEqual(max(lateness), 0.0055)

    def test_counts_never_decrease(self):
        t0, rate = 1.0, 333.0
        counts = [bl.due_count(t0, rate, t0 + k * 0.0007, 10**6) for k in range(1000)]
        self.assertEqual(counts, sorted(counts))


class LedgerOracle(unittest.TestCase):
    def test_clean_run(self):
        led = bl.Ledger()
        for k in range(5):
            led.expect((k, 0), float(k))
        for k in reversed(range(5)):
            self.assertEqual(led.deliver((k, 0)), float(k))
        self.assertEqual((led.expected, led.delivered, led.failed), (5, 5, 0))

    def test_missing_unexpected_duplicate(self):
        led = bl.Ledger()
        led.expect("a", 1)
        led.expect("b", 2)
        led.expect("c", 3)
        self.assertEqual(led.deliver("a"), 1)
        self.assertIsNone(led.deliver("a"))  # duplicate
        self.assertIsNone(led.deliver("z"))  # never expected
        self.assertEqual(led.deliver("c"), 3)
        self.assertEqual(led.missing, 1)
        self.assertEqual(led.duplicate, 1)
        self.assertEqual(led.unexpected, 1)
        self.assertEqual(led.failed, 3)

    def test_a_falsy_value_still_counts_as_delivered(self):
        led = bl.Ledger()
        led.expect("k", 0)
        self.assertEqual(led.deliver("k"), 0)
        self.assertEqual(led.failed, 0)

    def test_expecting_a_key_twice_is_an_error(self):
        led = bl.Ledger()
        led.expect("k", 1)
        with self.assertRaises(ValueError):
            led.expect("k", 2)


class Wire(unittest.TestCase):
    def test_parse_delivery(self):
        self.assertEqual(bl.parse_delivery(b"M|1|P|42.3.49.1||a,b|,"), (42, 3))
        self.assertEqual(bl.parse_delivery(b"M|1|P|42.3.49.1.42.1000000007||a|"), (42, 3))
        self.assertIsNone(bl.parse_delivery(b"M|1|S|200.1|/a"))
        self.assertIsNone(bl.parse_delivery(b"PONG"))

    def test_unescape(self):
        self.assertEqual(bl.unescape("plain"), "plain")
        self.assertEqual(bl.unescape("a%7Cb%25c%0A"), "a|b%c\n")
        self.assertEqual(bl.unescape("tail%4"), "tail%4")


class SelfTime(unittest.TestCase):
    def test_leaf_self_time_is_its_duration(self):
        out = bl.self_times([("a", -1, 0, 10, 3.0)])
        self.assertEqual(out["a"], (1, 10, 10, 3.0))

    def test_children_are_subtracted(self):
        spans = [
            ("hop", -1, 0, 100, 0.0),
            ("decode", 0, 10, 30, 5.0),
            ("encode", 0, 40, 45, 1.0),
        ]
        out = bl.self_times(spans)
        self.assertEqual(out["hop"], (1, 100, 75, 0.0))
        self.assertEqual(out["decode"], (1, 20, 20, 5.0))

    def test_overlapping_children_count_once(self):
        spans = [("p", -1, 0, 100, 0.0), ("c", 0, 10, 50, 0.0), ("c", 0, 40, 60, 0.0)]
        self.assertEqual(bl.self_times(spans)["p"][2], 50)

    def test_children_are_clipped_to_the_parent(self):
        spans = [("p", -1, 10, 20, 0.0), ("c", 0, 0, 15, 0.0), ("c", 0, 18, 30, 0.0)]
        self.assertEqual(bl.self_times(spans)["p"][2], 3)

    def test_only_direct_children_count(self):
        spans = [("a", -1, 0, 100, 0.0), ("b", 0, 0, 50, 0.0), ("c", 1, 0, 40, 0.0)]
        out = bl.self_times(spans)
        self.assertEqual(out["a"][2], 50)
        self.assertEqual(out["b"][2], 10)

    def test_totals_accumulate_by_name(self):
        spans = [("x", -1, 0, 10, 1.0), ("x", -1, 20, 25, 2.0)]
        self.assertEqual(bl.self_times(spans)["x"], (2, 15, 15, 3.0))


@unittest.skipUnless(os.path.exists(PBENCH), "run perfbench/run.py once to build pbench")
class OracleInputs(unittest.TestCase):
    """The generated small-msg inputs: every publication matches exactly
    one subscription, so the oracle expects each to be delivered, and the
    replica charges both brokers for it."""

    def test_small_msg(self):
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "inputs.txt")
            subprocess.run([PBENCH, "prep", "small-msg", "3", path], check=True)
            with open(path) as f:
                records = [line.rstrip("\n").split("\t") for line in f]
        pubs = [r for r in records if r[0] == "P"]
        self.assertEqual(len(pubs), 64)
        for _, expect, ops, sfx in pubs:
            self.assertEqual(expect, "1")
            self.assertTrue(all(int(o) > 0 for o in ops.split(",")))
            self.assertTrue(sfx.startswith(".0.49.1||feed,sec"))
        subs = [r for r in records if r[0] == "SS" and "|S|" in r[1]]
        self.assertEqual(len(subs), 9)
        self.assertTrue(subs[-1][1].endswith("/pbprobe/ping"))


if __name__ == "__main__":
    unittest.main()
