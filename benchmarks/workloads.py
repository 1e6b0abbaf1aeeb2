"""Seeded inputs and output checks for the three benchmark workloads.

Each workload is one cycle of CLI invocations (:class:`Op`) that the runner
repeats a fixed number of times.  Everything here is built from the workload
seed before timing starts; the same seed gives byte-identical inputs.

* ``cohort``  -- ``simulate --cohort`` over the default, perfect and null
  presets, writing into a work directory.
* ``rescore`` -- ``score --format json`` over standard, long and corrupt logs.
* ``compare`` -- ``vrnq compare`` in all three directions plus ``vrnq score``
  over paired cohort CSVs for n in {12, 25, 60, 100}.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import shutil
import statistics
from dataclasses import dataclass, field
from typing import Callable, Optional

from errandlab.bayes import classify_evidence, evidence_stars
from errandlab.config import DEFAULT_DOMAIN_MAPPING, default_config
from errandlab.scoring import aggregate_scorecard, scorecard_to_dict
from errandlab.sessionlog import deserialize_log, serialize_log
from errandlab.simulate import PROFILE_PRESETS, simulate_session
from errandlab.vrnq import CSV_COLUMNS

PRESETS = ("default", "perfect", "null")
COHORT_SIZE = 5
COHORT_SEEDS_PER_PRESET = 2

STANDARD_LOGS = 24
LONG_LOG_EVENTS = (1000, 2000, 4000, 6000, 8000)
MUTATIONS = ("drop_line", "swap_neighbours", "truncate_tail", "unknown_kind",
             "retype_field")
CORRUPT_PER_MUTATION = 4
EXIT_LOG = 4

COMPARE_SIZES = (12, 25, 60, 100)
# expected paired t of the Total column; domain columns land near half of it
COMPARE_TARGET_T = 6.0
ALIGNED_REPEATS = 6
P_DOWN = 0.12
DOMAIN_ITEMS = tuple(DEFAULT_DOMAIN_MAPPING.values())
TWO_SIDED_RTOL = 1e-6
ORACLE_RTOL = 0.02
T_RTOL = 1e-9


@dataclass
class Op:
    """One CLI invocation; ``check`` returns a problem description or None."""

    key: str
    cls: str
    argv: list[str]
    units: int = 1
    expect_rc: int = 0
    check: Optional[Callable[["Op", str], Optional[str]]] = None
    prepare: Optional[Callable[[], None]] = None
    state: dict = field(default_factory=dict)


@dataclass
class Workload:
    name: str
    ops: list[Op]
    # end-to-end slots a/b/c -> class label, in this workload's terms
    slots: dict[str, str]
    # the tail percentile reported for slot a (see README: tail)
    tail_percentile: float
    # wall seconds of one untraced cycle, kernel runs included, on the
    # machine the benchmark was defined on; sets the cycles per run
    cycle_s: float
    # per-layer scopes: which classes the "typical" and "long" metrics pool
    typical: tuple[str, ...]
    long: tuple[str, ...]
    digest: Optional[Callable[[], str]] = None
    deferred_check: Optional[Callable[[Callable], dict[str, str]]] = None


def canonical(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def tree_digest(path: str) -> str:
    """sha256 over every file under ``path``: relative names and contents."""
    digest = hashlib.sha256()
    for base, dirs, files in os.walk(path):
        dirs.sort()
        for name in sorted(files):
            full = os.path.join(base, name)
            digest.update(os.path.relpath(full, path).encode() + b"\0")
            with open(full, "rb") as handle:
                digest.update(hashlib.sha256(handle.read()).digest())
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# cohort


def build_cohort(seed: int, work: str) -> Workload:
    rng = random.Random(seed)
    ops: list[Op] = []
    for preset in PRESETS:
        for _ in range(COHORT_SEEDS_PER_PRESET):
            sim_seed = rng.randrange(1, 1_000_000)
            out = os.path.join(work, f"{preset}_{sim_seed}")
            ops.append(Op(
                key=f"{preset}_{sim_seed}", cls=preset, units=COHORT_SIZE,
                argv=["simulate", "--seed", str(sim_seed), "--cohort",
                      str(COHORT_SIZE), "--profile", preset, "--out", out],
                check=_check_cohort_op, prepare=_clear_dir(out),
                state={"out": out}))

    def digest() -> str:
        combined = hashlib.sha256()
        for op in ops:
            combined.update(op.state.get("digest", "missing").encode())
        return combined.hexdigest()

    return Workload(name="cohort", ops=ops,
                    slots={"a": "default", "b": "perfect", "c": "null"},
                    tail_percentile=75.0, cycle_s=0.36,
                    typical=PRESETS, long=PRESETS, digest=digest)


def _clear_dir(path: str) -> Callable[[], None]:
    def prepare() -> None:
        shutil.rmtree(path, ignore_errors=True)
    return prepare


def _check_cohort_op(op: Op, stdout: str) -> Optional[str]:
    out = op.state["out"]
    digest = tree_digest(out)
    first = op.state.setdefault("digest", digest)
    if digest != first:
        return f"{op.key}: outputs differ from the first run of the same seed"
    if op.state.get("round_tripped"):
        return None
    logs = sorted(n for n in os.listdir(out) if n.endswith(".ndjson"))
    if len(logs) != COHORT_SIZE:
        return f"{op.key}: expected {COHORT_SIZE} logs, found {len(logs)}"
    for name in logs:
        with open(os.path.join(out, name), "rb") as handle:
            data = handle.read()
        if serialize_log(deserialize_log(data)) != data:
            return f"{op.key}: {name} does not round-trip byte for byte"
    op.state["round_tripped"] = True
    return None


# ---------------------------------------------------------------------------
# rescore: the long-log builder and the corrupting mutations


def _event_lines(data: bytes) -> list[bytes]:
    return data.split(b"\n")[:-1]


def _join(lines: list[bytes]) -> bytes:
    return b"\n".join(lines) + b"\n"


def lengthen_log(data: bytes, target_events: int) -> bytes:
    """Insert NoteOpened/NoteClosed pairs right after scene 3 is entered.

    The pairs reuse the SceneEntered timestamp, so every scene time and the
    scorecard stay as they were; only the notes telemetry of scene 3 grows.
    """
    lines = _event_lines(data)
    header, events = lines[0], [json.loads(line) for line in lines[1:]]
    pairs = max(0, (target_events - len(events)) // 2)
    at = next(i for i, e in enumerate(events)
              if e["scene"] == 3 and e["kind"] == "SceneEntered")
    stamp = events[at]["sim_time_ms"]
    notes = [{"kind": kind, "payload": {}, "scene": 3, "seq": 0,
              "sim_time_ms": stamp}
             for _ in range(pairs) for kind in ("NoteOpened", "NoteClosed")]
    merged = events[:at + 1] + notes + events[at + 1:]
    for seq, event in enumerate(merged):
        event["seq"] = seq
    return _join([header] + [canonical(e).encode() for e in merged])


def mutate_log(data: bytes, mutation: str, where: float, rng: random.Random) -> bytes:
    """Apply one corrupting mutation; the result must exit with code 4.

    ``where`` in [0, 1) places the mutation along the log, which sets how
    much of it is read before the rejection.
    ``retype_field`` writes an integer field as a float (``"scene": 3.0``),
    which the parser accepts today (defect D3); it is kept on purpose.
    """
    lines = _event_lines(data)
    header, body = lines[0], lines[1:]
    events = [json.loads(line) for line in body]
    if mutation == "drop_line":
        # a dropped SceneEntered leaves the next event in an unentered scene
        entered = [i for i, e in enumerate(events) if e["kind"] == "SceneEntered"]
        del body[entered[int(where * len(entered))]]
    elif mutation == "swap_neighbours":
        i = int(where * (len(body) - 1))
        body[i], body[i + 1] = body[i + 1], body[i]
    elif mutation == "truncate_tail":
        final = max(i for i, e in enumerate(events)
                    if e["kind"] == "FinalButtonPressed")
        blob = _join([header] + body[:final])
        return blob[:len(header) + 2 + int(where * (len(blob) - len(header) - 2))]
    elif mutation == "unknown_kind":
        i = int(where * len(events))
        events[i]["kind"] = "Teleported"
        body[i] = canonical(events[i]).encode()
    elif mutation == "retype_field":
        i = int(where * len(events))
        name = rng.choice(("scene", "seq", "sim_time_ms"))
        events[i][name] = float(events[i][name])
        body[i] = canonical(events[i]).encode()
    else:
        raise ValueError(f"unknown mutation {mutation!r}")
    return _join([header] + body)


def build_rescore(seed: int, work: str) -> Workload:
    rng = random.Random(seed)
    cfg = default_config()
    os.makedirs(work, exist_ok=True)
    sources = []
    for index in range(STANDARD_LOGS):
        preset = PRESETS[index % len(PRESETS)]
        log = simulate_session(PROFILE_PRESETS[preset](), rng.randrange(1, 1_000_000), cfg)
        expected = json.loads(canonical(scorecard_to_dict(aggregate_scorecard(log, cfg))))
        sources.append((serialize_log(log), expected))

    def write(name: str, data: bytes) -> str:
        path = os.path.join(work, name)
        with open(path, "wb") as handle:
            handle.write(data)
        return path

    def score_op(key, cls, data, expected, expect_rc=0, check=None) -> Op:
        path = write(f"{key}.ndjson", data)
        return Op(key=key, cls=cls, expect_rc=expect_rc,
                  argv=["score", "--log", path, "--format", "json"],
                  check=check, state={"expected": expected})

    ops = [score_op(f"standard_{i:02d}", "standard", data, expected,
                    check=_check_scorecard)
           for i, (data, expected) in enumerate(sources)]
    for i, target in enumerate(LONG_LOG_EVENTS):
        data, expected = sources[i * 3]  # default-preset sources
        ops.append(score_op(f"long_{target}", "long", lengthen_log(data, target),
                            _without_notes(expected), check=_check_long_scorecard))
    for mutation in MUTATIONS:
        for copy in range(CORRUPT_PER_MUTATION):
            data, _ = sources[rng.randrange(len(sources))]
            # stratified positions: each copy lands in its own stretch of the log
            where = (copy + rng.random()) / CORRUPT_PER_MUTATION
            ops.append(score_op(f"corrupt_{mutation}_{copy}", "corrupt",
                                mutate_log(data, mutation, where, rng), None,
                                expect_rc=EXIT_LOG))
    # interleave classes so that no class runs in one block
    random.Random(seed + 1).shuffle(ops)
    return Workload(name="rescore", ops=ops,
                    slots={"a": "standard", "b": "long", "c": "corrupt"},
                    tail_percentile=95.0, cycle_s=1.1,
                    typical=("standard",), long=("long",))


def _without_notes(card: dict) -> dict:
    trimmed = json.loads(canonical(card))
    trimmed["telemetry"].pop("notes_views")
    return trimmed


def _check_scorecard(op: Op, stdout: str) -> Optional[str]:
    got = json.loads(stdout)["scorecard"]
    if canonical(got) != canonical(op.state["expected"]):
        return f"{op.key}: scorecard differs from the simulator's"
    return None


def _check_long_scorecard(op: Op, stdout: str) -> Optional[str]:
    got = _without_notes(json.loads(stdout)["scorecard"])
    if canonical(got) != canonical(op.state["expected"]):
        return f"{op.key}: scorecard differs from its source log's"
    return None


# ---------------------------------------------------------------------------
# compare


def _improvement_prob(n: int) -> float:
    # per-item change is +1 w.p. p_up and -1 w.p. P_DOWN; pick p_up so that
    # the Total column's expected t is COMPARE_TARGET_T
    want = COMPARE_TARGET_T / math.sqrt(20.0 * n)
    lo, hi = P_DOWN, 1.0 - P_DOWN
    for _ in range(60):
        p_up = 0.5 * (lo + hi)
        mean = p_up - P_DOWN
        ratio = mean / math.sqrt(p_up + P_DOWN - mean * mean)
        lo, hi = (p_up, hi) if ratio < want else (lo, p_up)
    return p_up


def change_template(n: int) -> list[list[int]]:
    """Per-participant net change of each domain, the same for every seed.

    The cost of a Bayes factor depends on the column's paired t, so fixing
    the multiset of changes keeps the work of a cycle the same across
    workload seeds; the seed still picks every rating.
    """
    rng = random.Random(f"compare-template-{n}")
    p_up = _improvement_prob(n)

    def step() -> int:
        u = rng.random()
        return 1 if u < p_up else (-1 if u < p_up + P_DOWN else 0)

    return [[sum(step() for _ in range(5)) for _ in DOMAIN_ITEMS] for _ in range(n)]


def make_cohort_pair(n: int, rng: random.Random) -> tuple[list, list]:
    """Paired item rows (baseline, revised); the revised build scores higher.

    The seed draws the baseline ratings, deals the template's change rows
    to participants and picks which items of a domain carry the change.
    """
    changes = change_template(n)
    rng.shuffle(changes)
    baseline, revised = [], []
    for change in changes:
        items = [rng.randint(2, 6) for _ in range(20)]
        better = list(items)
        for delta, members in zip(change, DOMAIN_ITEMS):
            for item in rng.sample(members, abs(delta)):
                better[item - 1] += 1 if delta > 0 else -1
        baseline.append(items)
        revised.append(better)
    return baseline, revised


def _write_csv(path: str, rows: list[list[int]]) -> None:
    lines = [",".join(CSV_COLUMNS)]
    lines += [",".join([f"p{i:03d}"] + [str(v) for v in row])
              for i, row in enumerate(rows)]
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write("\n".join(lines) + "\n")


def _columns(rows: list[list[int]]) -> dict[str, list[int]]:
    cols = {"Total": [sum(row) for row in rows]}
    for domain, items in DEFAULT_DOMAIN_MAPPING.items():
        cols[domain] = [sum(row[i - 1] for i in items) for row in rows]
    return cols


def build_compare(seed: int, work: str) -> Workload:
    rng = random.Random(seed)
    os.makedirs(work, exist_ok=True)
    ops: list[Op] = []
    triples = []
    for n in COMPARE_SIZES:
        baseline, revised = make_cohort_pair(n, rng)
        paths = []
        for label, rows in (("baseline", baseline), ("revised", revised)):
            path = os.path.join(work, f"n{n:03d}_{label}.csv")
            _write_csv(path, rows)
            paths.append(path)
            ops.append(Op(key=f"score_n{n}_{label}", cls="vrnq_score",
                          argv=["vrnq", "score", "--responses", path,
                                "--format", "json"],
                          check=_check_vrnq_score, state={"rows": rows}))
        cols_a, cols_b = _columns(baseline), _columns(revised)
        triple = {}
        for direction, cls, repeats in (("less", "aligned", ALIGNED_REPEATS),
                                        ("greater", "opposed", 1),
                                        ("two-sided", "two_sided", 1)):
            op = Op(key=f"compare_n{n}_{direction}", cls=cls,
                    argv=["vrnq", "compare", "--baseline", paths[0],
                          "--revised", paths[1], "--direction", direction,
                          "--format", "json"],
                    check=_check_compare_rows,
                    state={"n": n, "cols": (cols_a, cols_b)})
            triple[direction] = op
            ops.extend([op] * repeats)
        triples.append(triple)
    random.Random(seed + 1).shuffle(ops)

    def deferred_check(oracle_bf10_a_less) -> dict[str, str]:
        # cross-invocation checks, run once after timing
        problems: dict[str, str] = {}
        for triple in triples:
            rows = {d: op.state.get("rows") for d, op in triple.items()}
            if any(r is None for r in rows.values()):
                continue  # an op never completed; already counted as failed
            for name, row in rows["less"].items():
                ref = oracle_bf10_a_less(row["t"], row["n"])
                if abs(row["bf10"] - ref) > ORACLE_RTOL * ref:
                    problems[triple["less"].key] = (
                        f"{name}: BF10 {row['bf10']:.6g} vs oracle {ref:.6g}")
                mean = 0.5 * (row["bf10"] + rows["greater"][name]["bf10"])
                two = rows["two-sided"][name]["bf10"]
                if abs(two - mean) > TWO_SIDED_RTOL * mean:
                    problems[triple["two-sided"].key] = (
                        f"{name}: two-sided {two:.9g} != mean of one-sided {mean:.9g}")
        return problems

    return Workload(name="compare", ops=ops,
                    slots={"a": "aligned", "b": "opposed", "c": "two_sided"},
                    tail_percentile=75.0, cycle_s=7.0,
                    typical=("aligned", "opposed", "two_sided", "vrnq_score"),
                    long=(), deferred_check=deferred_check)


def _check_vrnq_score(op: Op, stdout: str) -> Optional[str]:
    got = json.loads(stdout)["participants"]
    cols = _columns(op.state["rows"])
    for index, row in enumerate(got):
        want = {d: cols[d][index] for d in DEFAULT_DOMAIN_MAPPING}
        if row["sub_scores"] != want or row["total"] != cols["Total"][index]:
            return f"{op.key}: participant {row['participant_id']} scored wrong"
    return None


def _paired_t(a: list[int], b: list[int]) -> float:
    d = [y - x for x, y in zip(a, b)]
    return statistics.fmean(d) * math.sqrt(len(d)) / statistics.stdev(d)


def _check_compare_rows(op: Op, stdout: str) -> Optional[str]:
    rows = {row["score"]: row for row in json.loads(stdout)["rows"]}
    cols_a, cols_b = op.state["cols"]
    for name, row in rows.items():
        if row["degenerate"]:
            return f"{op.key}: {name} reported degenerate"
        t = _paired_t(cols_a[name], cols_b[name])
        if abs(row["t"] - t) > T_RTOL * abs(t):
            return f"{op.key}: {name} t {row['t']!r} vs {t!r}"
        if (row["band"] != classify_evidence(row["bf10"]).value
                or row["stars"] != evidence_stars(row["bf10"])):
            return f"{op.key}: {name} band or stars do not match BF10"
    previous = op.state.setdefault("rows", rows)
    if canonical(previous) != canonical(rows):
        return f"{op.key}: output changed between repeats"
    return None


BUILDERS = {"cohort": build_cohort, "rescore": build_rescore,
            "compare": build_compare}
