"""errandlab benchmark: drives the real CLI paths in-process and checks them.

Usage (from the repository root):

    python3 benchmarks/bench.py --workload cohort --seed 1 --seconds 20 --trace 0
    python3 benchmarks/bench.py --compare BEFORE.json AFTER.json

One process, one thread, a closed loop with a single caller: each
``errandlab.cli.main`` invocation starts after the previous one returned.
Inputs come from ``--seed`` and are built before timing.  Every output is
checked; checking is not timed.  ``--trace 0`` prints the end-to-end
metrics, ``--trace 1`` the per-layer metrics of a traced run.  The last line
of standard output is one JSON object; a fuller result file, with the
environment, goes to ``benchmarks/results/``.  See ``benchmarks/README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from typing import Optional

from kernel import reference_kernel, speed_factor

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(BENCH_DIR, "results")
WORK = os.path.join(BENCH_DIR, "_work")

SETUP_SAMPLES = 5
IMPORTTIME_SAMPLES = 3
KERNEL_RUNS = 7
# run in a fresh interpreter: kernel runs on both sides of the timed import
SETUP_SNIPPET = """
import json, sys, time
sys.path.insert(0, {bench!r})
from kernel import reference_kernel
before = [reference_kernel() for _ in range({runs})]
start = time.perf_counter()
sys.path.insert(0, {src!r})
import errandlab.cli
errandlab.cli.build_parser()
seconds = time.perf_counter() - start
after = [reference_kernel() for _ in range({runs})]
print(json.dumps({{"seconds": seconds, "kernel": before + after}}))
""".format(bench=BENCH_DIR, src=SRC, runs=KERNEL_RUNS)
LAYERS = ("cli", "simulate", "scenario", "scoring", "sessionlog", "vrnq",
          "bayes", "config")
# a run stops before its planned cycles only past OVERRUN x --seconds
OVERRUN = 3.0
MAX_MEASURE_S = 120.0
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0)
MIN_BEYOND = 10

# (module, function) pairs wrapped in a traced run
TRACED = (
    ("scenario", "advance"), ("scenario", "replay"),
    ("simulate", "simulate_session"), ("scoring", "aggregate_scorecard"),
    ("sessionlog", "derive_telemetry"), ("sessionlog", "serialize_log"),
    ("sessionlog", "deserialize_log"), ("sessionlog", "append_event"),
    ("sessionlog", "export_report"), ("vrnq", "read_cohort_csv"),
    ("vrnq", "score_vrnq"), ("bayes", "paired_t"),
    ("bayes", "bf10_directional_with_error"), ("bayes", "nct_logpdf"),
)


class BenchError(Exception):
    """The benchmark cannot run here (missing sources, failed set-up)."""


# ---------------------------------------------------------------------------
# environment and set-up


def import_package():
    if not os.path.isfile(os.path.join(SRC, "errandlab", "cli.py")):
        raise BenchError(f"no errandlab sources under {SRC}")
    sys.path.insert(0, SRC)
    import errandlab.cli
    if not os.path.abspath(errandlab.cli.__file__).startswith(SRC + os.sep):
        raise BenchError(f"errandlab imported from {errandlab.cli.__file__}, not {SRC}")
    return errandlab.cli


def environment(seed: int) -> dict:
    import numpy
    import scipy
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "cpu_model": cpu,
        "platform": platform.platform(),
        "seed": seed,
    }


def _fresh_process(extra: list[str]) -> tuple[dict, str]:
    proc = subprocess.run([sys.executable, *extra, "-c", SETUP_SNIPPET], cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise BenchError(f"fresh import failed: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout), proc.stderr


def measure_setup() -> list[tuple[float, float]]:
    """(seconds, speed factor) per fresh interpreter that imports errandlab.cli
    and builds the parser; the factor comes from kernel runs in that process."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        report, _ = _fresh_process([])
        samples.append((report["seconds"], speed_factor(report["kernel"])))
    return samples


def parse_importtime(stderr: str) -> dict[str, float]:
    """Cumulative import ms of each errandlab module from ``-X importtime``."""
    out = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        name = parts[2].strip()
        if name == "errandlab" or name.startswith("errandlab."):
            out[name] = int(parts[1]) / 1000.0
    return out


def measure_import_ms() -> dict[str, float]:
    samples = [parse_importtime(_fresh_process(["-X", "importtime"])[1])
               for _ in range(IMPORTTIME_SAMPLES)]
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.import_ms"] = statistics.median(
            s.get(f"errandlab.{layer}", 0.0) for s in samples)
    metrics["package.import_ms"] = statistics.median(
        s.get("errandlab", 0.0) for s in samples)
    return metrics


def load_oracle():
    path = os.path.join(ROOT, "tests", "oracle_bf.py")
    spec = importlib.util.spec_from_file_location("errandlab_bench_oracle", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.oracle_bf10_a_less


# ---------------------------------------------------------------------------
# running


class Runner:
    """Runs ops through ``cli.main`` and keeps every sample and verdict.

    A sample is ``(op, seconds, phase)``; phase is "warmup", "untraced" or
    "traced".  A wrong exit code or a crash is a wrong outcome; a right exit
    code with wrong output is wrong content.  Both count as failed.

    With ``calibrate``, :func:`reference_kernel` runs before every op (and
    once at the end), so each sample has kernel times on both sides.
    """

    def __init__(self, main, calibrate: bool = False) -> None:
        self.main = main
        self.kernel: Optional[list[float]] = [] if calibrate else None
        self.samples: list[tuple[object, float, str]] = []
        self.invocation_class: list[str] = []
        self.failures: dict[str, int] = {}
        self.content_wrong: list[str] = []
        self.outcome_wrong: list[str] = []
        self.tracer = None
        self.phase = "untraced"

    def run(self, op) -> None:
        if op.prepare is not None:
            op.prepare()
        if self.kernel is not None:
            self.kernel.append(reference_kernel())
        out, err = io.StringIO(), io.StringIO()
        invocation = len(self.invocation_class)
        self.invocation_class.append(op.cls)
        rc, crash = None, None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                if self.tracer is not None:
                    rc = self.tracer.call("cli.main", invocation, self.main, op.argv)
                else:
                    rc = self.main(op.argv)
            except SystemExit as exc:
                rc = exc.code
            except Exception as exc:  # a crash is a wrong outcome, not a stop
                crash = f"{type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - start
        self.samples.append((op, elapsed, self.phase))
        problem, content = None, False
        if crash is not None:
            problem = f"{op.key}: raised {crash}"
        elif rc != op.expect_rc:
            problem = f"{op.key}: exit {rc}, expected {op.expect_rc}"
        elif op.check is not None:
            problem = op.check(op, out.getvalue())
            content = problem is not None
        if problem is not None:
            self.failures[op.key] = self.failures.get(op.key, 0) + 1
            (self.content_wrong if content else self.outcome_wrong).append(problem)

    def run_cycles(self, ops, cycles: int, limit_s: float = math.inf) -> int:
        """Runs ``cycles`` whole cycles; stops early only once ``limit_s`` passed.

        Whole cycles keep the mix of classes the same in every run, and a
        fixed count makes ``attempted`` and ``failed`` repeat exactly.
        """
        start = time.perf_counter()
        for done in range(cycles):
            if done and time.perf_counter() - start > limit_s:
                return done
            for op in ops:
                self.run(op)
        return cycles

    def factor(self, index: int) -> float:
        """Speed factor of sample ``index``: two kernel runs on each side."""
        if self.kernel is None:
            return 1.0
        return speed_factor(self.kernel[max(0, index - 1):index + 3])

    def apply_deferred(self, problems: dict[str, str]) -> None:
        # a cross-invocation check failing marks every run of that op failed
        for key, problem in problems.items():
            runs = sum(1 for op, _, _ in self.samples if op.key == key)
            self.failures[key] = runs
            self.content_wrong.append(f"{key}: {problem}")

    @property
    def attempted(self) -> int:
        return len(self.samples)

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    def durations(self, phase: str) -> dict[str, list[float]]:
        """Seconds per op key in one phase."""
        out: dict[str, list[float]] = {}
        for op, seconds, p in self.samples:
            if p == phase:
                out.setdefault(op.key, []).append(seconds)
        return out


# ---------------------------------------------------------------------------
# statistics


def tail(values: list[float], percentile: float) -> tuple[float, float, int]:
    """Nearest-rank percentile; falls back down the ladder to keep 10 beyond.

    Returns (value, percentile used, samples beyond it).
    """
    ordered = sorted(values)
    ladder = [p for p in TAIL_LADDER if p <= percentile] or [TAIL_LADDER[0]]
    for p in reversed(ladder):
        rank = max(1, math.ceil(p / 100.0 * len(ordered)))
        beyond = len(ordered) - rank
        if beyond >= MIN_BEYOND or p == ladder[0]:
            return ordered[rank - 1], p, beyond
    raise AssertionError("unreachable")


def end_to_end(workload, runner: Runner, scaled: bool = True) -> tuple[dict, dict, dict]:
    """Returns (gated metrics, named aliases, sample notes).

    ``scaled`` multiplies each sample by its speed factor; without it the
    metrics are plain wall-clock times on this machine.
    """
    by_class: dict[str, list[float]] = {}
    by_op: dict[str, list[float]] = {}
    units, busy = 0, 0.0
    for index, (op, seconds, phase) in enumerate(runner.samples):
        if phase != "untraced":
            continue
        if scaled:
            seconds *= runner.factor(index)
        by_class.setdefault(op.cls, []).append(seconds * 1000.0)
        by_op.setdefault(op.key, []).append(seconds * 1000.0)
        units += op.units
        busy += seconds
    op_ms = {key: statistics.median(values) for key, values in sorted(by_op.items())}

    def typical_ms(cls: str) -> float:
        # each input's median, averaged over the class's inputs: a class has
        # few inputs of unequal cost, and a pooled median of few clusters
        # jumps between them
        keys = {op.key for op in workload.ops if op.cls == cls}
        return statistics.fmean(op_ms[key] for key in keys)

    p50 = {slot: typical_ms(cls) for slot, cls in workload.slots.items()}
    tail_ms, tail_p, beyond = tail(by_class[workload.slots["a"]], workload.tail_percentile)
    gated = {
        "throughput_per_s": (units / busy, "1/s"),
        "class_a_ms": (p50["a"], "ms"),
        "class_b_ms": (p50["b"], "ms"),
        "class_c_ms": (p50["c"], "ms"),
    }
    failed_share = runner.failed / runner.attempted
    # the tail is reported, not gated: see README, "Why the tail is not gated"
    named = {"failed_share": (failed_share, "share"), "class_a_tail_ms": (tail_ms, "ms")}
    if workload.name == "cohort":
        named["sessions_per_s"] = (units / busy, "1/s")
    elif workload.name == "rescore":
        named.update(score_p50_ms=(p50["a"], "ms"), score_tail_ms=(tail_ms, "ms"),
                     score_long_ms=(p50["b"], "ms"), reject_p50_ms=(p50["c"], "ms"))
    else:
        named.update(compare_aligned_ms=(p50["a"], "ms"),
                     compare_opposed_ms=(p50["b"], "ms"),
                     compare_two_sided_ms=(p50["c"], "ms"),
                     vrnq_score_ms=(typical_ms("vrnq_score"), "ms"))
    notes = {
        "samples": {cls: len(v) for cls, v in sorted(by_class.items())},
        "op_median_ms": op_ms,
        "invocations": [[op.key, phase, seconds, runner.factor(i)]
                        for i, (op, seconds, phase) in enumerate(runner.samples)],
        "tail": {"class": workload.slots["a"], "percentile": tail_p,
                 "samples": len(by_class[workload.slots["a"]]),
                 "beyond": beyond},
    }
    return gated, named, notes


# ---------------------------------------------------------------------------
# per-layer metrics from the traced run


def layer_stats(tracer, invocation_class: list[str]):
    """Sum count, duration and self time per (class, span) and (class, span, parent)."""
    self_times = tracer.self_times()
    names = tracer.names
    spans: dict[tuple[str, str], list[float]] = {}
    edges: dict[tuple[str, str, str], int] = {}
    failed: dict[tuple[str, str], int] = {}
    for index in range(len(tracer)):
        cls = invocation_class[tracer.invocation[index]]
        name = names[tracer.name[index]]
        acc = spans.setdefault((cls, name), [0, 0.0, 0.0])
        acc[0] += 1
        acc[1] += tracer.end[index] - tracer.start[index]
        acc[2] += self_times[index]
        parent = tracer.parent[index]
        if parent >= 0:
            key = (cls, name, names[tracer.name[parent]])
            edges[key] = edges.get(key, 0) + 1
        if tracer.failed[index]:
            failed[(cls, name)] = failed.get((cls, name), 0) + 1
    return spans, edges, failed


def per_layer(workload, runner: Runner, tracer, cycles: int, import_ms: dict) -> dict:
    spans, edges, failed = layer_stats(tracer, runner.invocation_class)
    everyone = tuple(sorted(set(runner.invocation_class)))

    def total(name, classes, field=0):
        return sum(spans.get((c, name), (0, 0.0, 0.0))[field] for c in classes)

    def edge(name, parent, classes):
        return sum(edges.get((c, name, parent), 0) for c in classes)

    def ratio(num, den, scale=1.0):
        return num * scale / den if den else 0.0

    def mean(name, classes, scale, field=1):
        return ratio(total(name, classes, field), total(name, classes), scale)

    typical, long_ = workload.typical, workload.long
    sessions = sum(op.units for op, _, phase in runner.samples
                   if phase == "traced" and op.cls in typical)
    adv, rep = "scenario.advance", "scenario.replay"
    des, app = "sessionlog.deserialize_log", "sessionlog.append_event"
    sim, agg = "simulate.simulate_session", "scoring.aggregate_scorecard"
    bf10 = "bayes.bf10_directional_with_error"
    deser_std = ratio(total(des, typical, 1), edge(app, des, typical), 1e6)
    deser_long = ratio(total(des, long_, 1), edge(app, des, long_), 1e6)
    logs_built = total(des, everyone) + total(sim, everyone)
    metrics = {
        "cli.self_ms": mean("cli.main", typical, 1e3, field=2),
        "simulate.session_self_ms": mean(sim, typical, 1e3, field=2),
        "simulate.events_per_session": ratio(edge(adv, sim, typical), total(sim, typical)),
        "scenario.advance_calls_per_session": ratio(total(adv, typical), sessions),
        "scenario.advance_us": mean(adv, typical, 1e6),
        "scenario.replay_ms": mean(rep, typical, 1e3),
        "scenario.replay_us_per_event": ratio(total(rep, long_, 1), edge(adv, rep, long_), 1e6),
        "scoring.aggregate_self_ms": mean(agg, typical, 1e3, field=2),
        "sessionlog.derive_telemetry_calls_per_session":
            ratio(total("sessionlog.derive_telemetry", typical), sessions),
        "sessionlog.derive_telemetry_ms": mean("sessionlog.derive_telemetry", typical, 1e3),
        "sessionlog.serialize_ms": mean("sessionlog.serialize_log", typical, 1e3),
        "sessionlog.export_report_ms": mean("sessionlog.export_report", typical, 1e3),
        "sessionlog.deserialize_us_per_event_standard": deser_std,
        "sessionlog.deserialize_us_per_event_long": deser_long,
        "sessionlog.deserialize_long_ratio": ratio(deser_long, deser_std),
        "sessionlog.append_event_us": mean(app, everyone, 1e6),
        "sessionlog.append_event_calls_per_log": ratio(total(app, everyone), logs_built),
        "sessionlog.rejects_parse": ratio(sum(failed.get((c, des), 0) for c in everyone), cycles),
        "sessionlog.rejects_engine": ratio(sum(failed.get((c, agg), 0) for c in everyone), cycles),
        "vrnq.read_cohort_csv_ms": mean("vrnq.read_cohort_csv", everyone, 1e3),
        "vrnq.score_vrnq_us": mean("vrnq.score_vrnq", everyone, 1e6),
        "bayes.paired_t_ms": mean("bayes.paired_t", everyone, 1e3),
        "bayes.nct_logpdf_us_series": mean("bayes.nct_logpdf.series", everyone, 1e6),
        "bayes.nct_logpdf_us_tail": mean("bayes.nct_logpdf.tail", everyone, 1e6),
    }
    for route in ("aligned", "opposed", "two_sided"):
        metrics[f"bayes.bf10_{route}_ms"] = mean(bf10, (route,), 1e3)
        calls = total("bayes.nct_logpdf.series", (route,)) + total("bayes.nct_logpdf.tail", (route,))
        metrics[f"bayes.nct_logpdf_calls_per_bf10_{route}"] = ratio(calls, total(bf10, (route,)))
    metrics.update(import_ms)
    # tracing overhead: the same ops, median per op, traced minus untraced
    untraced, traced = runner.durations("untraced"), runner.durations("traced")
    extra = [statistics.median(traced[k]) - statistics.median(untraced[k]) for k in traced]
    base = sum(statistics.median(untraced[k]) for k in traced)
    metrics["trace.overhead_ms"] = 1e3 * sum(extra) / len(extra)
    metrics["trace.overhead_share"] = sum(extra) / base
    return metrics


# ---------------------------------------------------------------------------
# entry points


def _metric_block(values: dict) -> dict:
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}


def _print_block(title: str, values: dict) -> None:
    print(title)
    for name, entry in values.items():
        print(f"  {name:48s} {entry['value']:>14.6g} {entry['unit']}")


def measure(args) -> dict:
    cli = import_package()
    import tracing
    import workloads

    env = environment(args.seed)
    if args.trace:
        import_ms = measure_import_ms()
    else:
        setup_samples = measure_setup()

    work = os.path.join(WORK, args.workload)
    shutil.rmtree(work, ignore_errors=True)
    # ops name paths relative to the root, so manifests do not depend on
    # where the checkout lives
    os.chdir(ROOT)
    workload = workloads.BUILDERS[args.workload](args.seed, os.path.relpath(work, ROOT))
    inputs_sha256 = workloads.tree_digest(work)

    runner = Runner(cli.main, calibrate=not args.trace)
    # one op of each class first: lazy imports and first-call set-up; the
    # first key of the class, so that which op warms up (and whether it is
    # one D3 accepts) does not depend on the seed's shuffle
    runner.phase = "warmup"
    for cls in dict.fromkeys(op.cls for op in workload.ops):
        runner.run(min((op for op in workload.ops if op.cls == cls), key=lambda op: op.key))

    result: dict = {"workload": args.workload, "seed": args.seed,
                    "seconds": args.seconds, "trace": args.trace,
                    "environment": env, "inputs_sha256": inputs_sha256}
    # a fixed number of whole cycles, about --seconds on the machine the
    # benchmark was defined on; only a host far slower than that cuts it
    planned = max(1, round(args.seconds / workload.cycle_s))
    limit_s = min(OVERRUN * args.seconds, MAX_MEASURE_S)
    start = time.perf_counter()
    if args.trace:
        tracer = tracing.Tracer()
        modules = {name: sys.modules[f"errandlab.{name}"] for name, _ in TRACED}
        targets = [(modules[mod], fn, _nct_route if fn == "nct_logpdf" else None)
                   for mod, fn in TRACED]
        # alternate untraced and traced cycles so that drift over the run
        # does not show up as tracing overhead; a traced cycle takes longer,
        # so half as many pairs as an untraced run has cycles, and at least two
        pairs, cycles = max(2, planned // 2), 0
        while cycles < pairs and (cycles == 0 or time.perf_counter() - start <= limit_s):
            runner.phase = "untraced"
            runner.run_cycles(workload.ops, 1)
            runner.phase = "traced"
            runner.tracer = tracer
            tracer.install("errandlab", targets)
            try:
                runner.run_cycles(workload.ops, 1)
            finally:
                tracer.uninstall()
                runner.tracer = None
            cycles += 1
        planned = pairs
    else:
        runner.phase = "untraced"
        cycles = runner.run_cycles(workload.ops, planned, limit_s)
        runner.kernel.append(reference_kernel())  # the last op's right side
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result["cycles"] = {"planned": planned, "run": cycles,
                        "measured_s": time.perf_counter() - start}
    if workload.deferred_check is not None:
        runner.apply_deferred(workload.deferred_check(load_oracle()))
    if workload.digest is not None:
        result["outputs_sha256"] = workload.digest()

    if args.trace:
        metrics = {name: (value, _unit(name))
                   for name, value in per_layer(workload, runner, tracer, cycles, import_ms).items()}
        result["per_layer"] = _metric_block(metrics)
        result["spans_file"] = _write_spans(tracer, runner, args)
        final = result["per_layer"]
    else:
        gated, named, notes = end_to_end(workload, runner)
        wall, _, _ = end_to_end(workload, runner, scaled=False)
        gated["setup_s"] = (statistics.median(s * f for s, f in setup_samples), "s")
        wall["setup_s"] = (statistics.median(s for s, _ in setup_samples), "s")
        gated["peak_rss_mb"] = wall["peak_rss_mb"] = (peak_rss_mb, "MB")
        named["setup_s"], named["peak_rss_mb"] = gated["setup_s"], gated["peak_rss_mb"]
        result["end_to_end"] = _metric_block(gated)
        result["wall_clock"] = _metric_block(wall)
        result["named"] = _metric_block(named)
        result["notes"] = dict(notes, setup_samples=[
            {"seconds": s, "speed_factor": f} for s, f in setup_samples],
            speed_factor_median=statistics.median(
                runner.factor(i) for i in range(runner.attempted)))
        final = result["end_to_end"]

    result.update(attempted=runner.attempted, failed=runner.failed,
                  failed_share=runner.failed / runner.attempted,
                  content_wrong=runner.content_wrong[:50],
                  outcome_wrong=runner.outcome_wrong[:50])
    # a wrong exit code is counted in `failed`; wrong output content on an
    # invocation that exited as expected makes the run incorrect
    result["correct"] = not runner.content_wrong
    shutil.rmtree(work, ignore_errors=True)
    result["final"] = final
    return result


def _nct_route(x, df, nc) -> str:
    return "bayes.nct_logpdf.series" if x * nc >= 0.0 else "bayes.nct_logpdf.tail"


def _unit(name: str) -> str:
    for suffix, unit in (("_ms", "ms"), ("_us", "us"), ("_s", "s")):
        if name.endswith(suffix):
            return unit
    if "_us_" in name:
        return "us"
    if name.endswith("_share") or name.endswith("_ratio"):
        return "ratio"
    return "count"


def _write_spans(tracer, runner: Runner, args) -> str:
    os.makedirs(RESULTS, exist_ok=True)
    path = os.path.join(RESULTS, f"spans_{args.workload}_s{args.seed}.jsonl")
    origin = tracer.start[0] if len(tracer) else 0.0
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps({"columns": ["name", "start_s", "end_s", "parent",
                                             "invocation", "failed", "class"]}) + "\n")
        for name, start, end, parent, invocation, failed in tracer.rows():
            handle.write(json.dumps([name, round(start - origin, 9), round(end - origin, 9),
                                     parent, invocation, failed,
                                     runner.invocation_class[invocation]]) + "\n")
    return os.path.relpath(path, ROOT)


def compare_files(before_path: str, after_path: str) -> None:
    """Print after/before for every metric the two result files share."""
    with open(before_path, encoding="utf-8") as handle:
        before = json.load(handle)
    with open(after_path, encoding="utf-8") as handle:
        after = json.load(handle)
    for key in ("workload", "seed", "seconds", "trace"):
        if before.get(key) != after.get(key):
            print(f"note: {key} differs: {before.get(key)!r} vs {after.get(key)!r}")
    for key in ("python", "numpy", "scipy", "nproc", "cpu_model"):
        b, a = before["environment"].get(key), after["environment"].get(key)
        if b != a:
            print(f"note: environment {key} differs: {b!r} vs {a!r}")
    print(f"{'metric':48s} {'unit':>6s} {'before':>12s} {'after':>12s} {'after/before':>13s}")
    for block in ("end_to_end", "wall_clock", "named", "per_layer"):
        shared = [k for k in before.get(block, {}) if k in after.get(block, {})]
        if shared:
            print(f"[{block}]")
        for name in shared:
            b, a = before[block][name]["value"], after[block][name]["value"]
            ratio = f"{a / b:13.4f}" if b else f"{'n/a':>13s}"
            print(f"{name:48s} {before[block][name]['unit']:>6s} {b:12.6g} {a:12.6g} {ratio}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("cohort", "rescore", "compare"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", nargs=2, metavar=("BEFORE", "AFTER"),
                        help="print after/before ratios of two result files")
    args = parser.parse_args(argv)
    if args.compare:
        compare_files(*args.compare)
        return 0
    if args.workload is None:
        parser.error("--workload is required unless --compare is given")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        result = measure(args)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    os.makedirs(RESULTS, exist_ok=True)
    path = os.path.join(RESULTS, f"BENCH_{args.workload}_s{args.seed}_trace{args.trace}.json")
    final = result.pop("final")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=2, sort_keys=True)
        handle.write("\n")

    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, "
          f"trace {args.trace}; result file {os.path.relpath(path, ROOT)}")
    print("environment: " + json.dumps(result["environment"], sort_keys=True))
    if args.trace:
        _print_block("per-layer metrics:", result["per_layer"])
    else:
        _print_block("end-to-end metrics (scaled to the reference speed):",
                     result["end_to_end"])
        _print_block(f"the same, wall clock on this machine "
                     f"(median speed factor {result['notes']['speed_factor_median']:.3f}):",
                     result["wall_clock"])
        _print_block(f"{args.workload} metrics by name:", result["named"])
        tail_note = result["notes"]["tail"]
        print(f"  tail: p{tail_note['percentile']:g} of {tail_note['samples']} "
              f"{tail_note['class']} samples, {tail_note['beyond']} beyond it; "
              f"samples per class {result['notes']['samples']}")
    print(f"checks: {result['attempted']} attempted, {result['failed']} failed "
          f"(share {result['failed_share']:.4f}); correct={result['correct']}")
    for problem in (result["outcome_wrong"] + result["content_wrong"])[:5]:
        print(f"  {problem}")
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": {k: {"value": v["value"], "unit": v["unit"]}
                                  for k, v in final.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
