"""Self-tests of the benchmark's generators, checks and span arithmetic.

Run from the repository root:

    python3 -m pytest -q benchmarks
    python3 -m unittest discover -s benchmarks
"""

from __future__ import annotations

import json
import os
import random
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import bench  # noqa: E402

bench.import_package()
import tracing  # noqa: E402
import workloads  # noqa: E402
from errandlab.config import default_config  # noqa: E402
from errandlab.scoring import aggregate_scorecard, scorecard_to_dict  # noqa: E402
from errandlab.sessionlog import deserialize_log, serialize_log  # noqa: E402
from errandlab.simulate import default_profile, simulate_session  # noqa: E402


def _files(path: str) -> dict[str, bytes]:
    out = {}
    for name in sorted(os.listdir(path)):
        with open(os.path.join(path, name), "rb") as handle:
            out[name] = handle.read()
    return out


def _argv_without_paths(workload) -> list[list[str]]:
    return [[os.path.basename(a) for a in op.argv] for op in workload.ops]


class GeneratorsAreSeeded(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for name in ("rescore", "compare"):
            with tempfile.TemporaryDirectory() as a, tempfile.TemporaryDirectory() as b:
                first = workloads.BUILDERS[name](7, a)
                second = workloads.BUILDERS[name](7, b)
                self.assertEqual(_files(a), _files(b), name)
                self.assertEqual(_argv_without_paths(first),
                                 _argv_without_paths(second), name)

    def test_other_seed_other_inputs(self):
        for name in ("rescore", "compare"):
            with tempfile.TemporaryDirectory() as a, tempfile.TemporaryDirectory() as b:
                workloads.BUILDERS[name](7, a)
                workloads.BUILDERS[name](8, b)
                self.assertNotEqual(_files(a), _files(b), name)

    def test_cohort_ops_follow_the_seed(self):
        first = workloads.build_cohort(7, "w")
        self.assertEqual([op.argv for op in first.ops],
                         [op.argv for op in workloads.build_cohort(7, "w").ops])
        self.assertNotEqual([op.argv for op in first.ops],
                            [op.argv for op in workloads.build_cohort(8, "w").ops])


class LongLogs(unittest.TestCase):
    def test_long_log_replays_and_scores_like_its_source(self):
        cfg = default_config()
        log = simulate_session(default_profile(), 11, cfg)
        source = serialize_log(log)
        long_bytes = workloads.lengthen_log(source, 1000)
        long_log = deserialize_log(long_bytes)  # parses
        self.assertGreaterEqual(len(long_log.events), 999)
        self.assertEqual(serialize_log(long_log), long_bytes)
        expected = workloads._without_notes(
            scorecard_to_dict(aggregate_scorecard(log, cfg)))
        got = workloads._without_notes(
            scorecard_to_dict(aggregate_scorecard(long_log, cfg)))  # replays
        self.assertEqual(workloads.canonical(got), workloads.canonical(expected))


class SelfTime(unittest.TestCase):
    def test_self_time_on_a_synthetic_tree(self):
        # root [0, 10] holds a [1, 4] and b [5, 6]; a holds g [2, 3]
        clock = iter([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 10.0])
        saved = tracing.perf_counter
        tracing.perf_counter = lambda: next(clock)
        try:
            tracer = tracing.Tracer()
            g = tracer.wrap(lambda: None, "g")
            a = tracer.wrap(lambda: g(), "a")
            b = tracer.wrap(lambda: None, "b")

            def root():
                a()
                b()
            tracer.call("root", 0, root)
        finally:
            tracing.perf_counter = saved
        names = [tracer.names[i] for i in tracer.name]
        self.assertEqual(names, ["root", "a", "g", "b"])
        self.assertEqual(list(tracer.parent), [-1, 0, 1, 0])
        self.assertEqual(tracer.self_times(), [6.0, 2.0, 1.0, 1.0])

    def test_install_wraps_every_namespace_and_uninstall_restores(self):
        import errandlab.scenario as scenario
        import errandlab.simulate as simulate
        original = scenario.advance
        tracer = tracing.Tracer()
        tracer.install("errandlab", [(scenario, "advance", None)])
        try:
            self.assertIsNot(scenario.advance, original)
            self.assertIs(simulate.advance, scenario.advance)
            simulate_session(default_profile(), 3)
        finally:
            tracer.uninstall()
        self.assertIs(scenario.advance, original)
        self.assertIs(simulate.advance, original)
        self.assertGreater(len(tracer), 100)


class FailedShare(unittest.TestCase):
    def _corrupt_op(self, path):
        return workloads.Op(key="corrupt", cls="corrupt", expect_rc=workloads.EXIT_LOG,
                            argv=["score", "--log", path, "--format", "json"])

    def test_a_rejected_corrupt_log_passes(self):
        log = serialize_log(simulate_session(default_profile(), 5))
        with tempfile.TemporaryDirectory() as work:
            path = os.path.join(work, "swapped.ndjson")
            with open(path, "wb") as handle:
                handle.write(workloads.mutate_log(log, "swap_neighbours", 0.5, random.Random(1)))
            runner = bench.Runner(bench.import_package().main)
            runner.run(self._corrupt_op(path))
        self.assertEqual((runner.attempted, runner.failed), (1, 0))

    def test_planted_acceptance_raises_failed_share(self):
        runner = bench.Runner(lambda argv: 0)  # claims every log is fine
        runner.run(self._corrupt_op("unused.ndjson"))
        runner.run(workloads.Op(key="ok", cls="standard", argv=[]))
        self.assertEqual((runner.attempted, runner.failed), (2, 1))
        self.assertTrue(runner.outcome_wrong)

    def test_wrong_content_makes_the_run_incorrect(self):
        def main(argv):
            print(json.dumps({"scorecard": {"cooking_total": 99}}))
            return 0
        runner = bench.Runner(main)
        runner.run(workloads.Op(key="card", cls="standard", argv=[],
                                check=workloads._check_scorecard,
                                state={"expected": {"cooking_total": 9}}))
        self.assertEqual(runner.failed, 1)
        self.assertTrue(runner.content_wrong)


class Cycles(unittest.TestCase):
    def test_a_run_is_a_fixed_number_of_whole_cycles(self):
        runner = bench.Runner(lambda argv: 0)
        ops = [workloads.Op(key=k, cls="standard", argv=[]) for k in ("a", "b", "c")]
        self.assertEqual(runner.run_cycles(ops, 4), 4)
        self.assertEqual([op.key for op, _, _ in runner.samples], ["a", "b", "c"] * 4)

    def test_time_limit_stops_only_between_cycles(self):
        runner = bench.Runner(lambda argv: 0)
        ops = [workloads.Op(key=k, cls="standard", argv=[]) for k in ("a", "b")]
        self.assertEqual(runner.run_cycles(ops, 5, limit_s=0.0), 1)
        self.assertEqual(runner.attempted, 2)


class Statistics(unittest.TestCase):
    def test_tail_keeps_ten_samples_beyond(self):
        values = [float(v) for v in range(1, 201)]
        self.assertEqual(bench.tail(values, 95.0), (190.0, 95.0, 10))
        # 100 samples cannot give ten beyond p95, so p90 is used
        self.assertEqual(bench.tail(values[:100], 95.0), (90.0, 90.0, 10))

    def test_parse_importtime(self):
        stderr = ("import time: self [us] | cumulative | imported package\n"
                  "import time:      1200 |     950000 |   errandlab.bayes\n"
                  "import time:       300 |    1000000 | errandlab\n"
                  "import time:        10 |         20 | json\n")
        self.assertEqual(bench.parse_importtime(stderr),
                         {"errandlab.bayes": 950.0, "errandlab": 1000.0})


if __name__ == "__main__":
    unittest.main()
