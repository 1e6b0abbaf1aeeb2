"""Golden digest of how the parser and the engine reject corrupted logs.

Each of the nine golden sessions (three profile presets at seeds 1-3 under
the default config, read from ``tests/fixtures``) is corrupted in many fixed ways:
broken JSON, wrong record shapes, retyped fields, bad payloads, ordering
regressions, and dropped, repeated, swapped, relabelled or moved events.
Every corrupted log goes through ``deserialize_log`` and
``aggregate_scorecard``; the digest covers the exception class and message
each one ends in, or ``accepted`` when it scores.  A change to the parser or
the engine that keeps behaviour keeps the digest.

The engine corruptions reach every ``InvalidEvent`` branch of
``scenario._apply`` that a parsed log can reach, and every message of each
take row of its handler table, as a test below checks.  ``OutOfOrderEvent``
cannot be reached: the parser rejects a time regression before the engine
sees it.
"""

from __future__ import annotations

import functools
import hashlib
import json
import logging
import re
from typing import Any, Iterator, Optional

import pytest

from errandlab import scenario
from errandlab.config import default_config
from errandlab.scoring import aggregate_scorecard
from errandlab.sessionlog import deserialize_log
from golden_logs import golden_bytes

_FIELDS = ("seq", "sim_time_ms", "scene", "kind", "payload")
_INT_FIELDS = ("seq", "sim_time_ms", "scene")
_BOUNDARY = ("SceneEntered", "SceneExited")

# Kinds whose payloads have the same field names, so that one can be
# relabelled as the next and still pass the payload schema.
_SAME_FIELDS = (
    ("TutorialCompleted", "RouteSubmitted", "FinalButtonPressed",
     "ExitAttempted", "MedicationTaken", "PieRemoved", "NoteOpened",
     "NoteClosed", "KeysGiven", "SceneEntered", "SceneExited"),
    ("ItemSelected", "ShoppingCollected", "ItemStowed"),
    ("NotesIntentAnswered", "NpcPromptAnswered"),
)
_RELABEL = {kind: group[(group.index(kind) + 1) % len(group)]
            for group in _SAME_FIELDS for kind in group}


def _canonical(record: Any) -> str:
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def _targets(records: list[dict], share: int) -> list[int]:
    """The first event of some (scene, kind) pairs, chosen by ``share``.

    Of the pairs in log order, a session takes every third task pair
    starting at ``share % 3`` and every ninth scene entry or exit starting
    at ``share`` (0 to 8): the three sessions of a preset together cover
    every task pair, and the nine sessions every entry and exit.
    """
    first: dict[tuple, int] = {}
    for index, record in enumerate(records):
        first.setdefault((record["scene"], record["kind"]), index)
    tasks = [i for (_, kind), i in first.items() if kind not in _BOUNDARY]
    bounds = [i for (_, kind), i in first.items() if kind in _BOUNDARY]
    return sorted(tasks[share % 3::3] + bounds[share::9])


def _out_of_domain(value: Any) -> list[Any]:
    if isinstance(value, bool):
        return [not value]
    if isinstance(value, (int, float)):
        return [-1, 99]
    if isinstance(value, str):
        return ["mutant"]
    return ["left"]  # a null response side


def _wrong_type(value: Any) -> Any:
    return 7 if isinstance(value, str) else "7"


def _record_cases(record: dict, before: Optional[dict]) -> Iterator[tuple[str, list[Any]]]:
    """Shape, type and order corruptions of one event: (name, new lines)."""
    line = _canonical(record)

    def put(**changes: Any) -> list[Any]:
        return [{**record, **changes}]

    yield "invalid_json", [line[:-1]]
    yield "invalid_json_tail", [line + "x"]
    for shape in ("[]", "42", '"event"', "null"):
        yield f"non_object_{shape}", [shape]
    yield "extra_field", put(rogue=1)
    for name in _FIELDS:
        yield f"missing_{name}", [{k: v for k, v in record.items() if k != name}]
    yield "unknown_kind", put(kind="SceneImploded")
    for shape in ([], "payload", 1, None):
        yield f"payload_{shape!r}", put(payload=shape)
    for name in _INT_FIELDS:
        value = record[name]
        yield f"{name}_float", put(**{name: float(value)})
        yield f"{name}_bool", put(**{name: bool(value)})
        yield f"{name}_str", put(**{name: str(value)})
        yield f"{name}_negative", put(**{name: -1})
    yield "scene_unknown", put(scene=23)
    if before is not None:
        yield "seq_repeat", put(seq=before["seq"])
        if before["sim_time_ms"] > 0:
            yield "time_regress", put(sim_time_ms=before["sim_time_ms"] - 1)
    yield "duplicated", [record, record]


def _payload_cases(record: dict) -> Iterator[tuple[str, dict]]:
    """Schema and value corruptions of one event's payload."""
    payload = record["payload"]

    def put(new_payload: dict) -> dict:
        return {**record, "payload": new_payload}

    yield "payload_extra_key", put({**payload, "rogue": 1})
    for key, value in sorted(payload.items()):
        rest = {k: v for k, v in payload.items() if k != key}
        yield f"payload_missing_{key}", put(rest)
        yield f"payload_{key}_bool", put({**rest, key: True})
        yield f"payload_{key}_type", put({**rest, key: _wrong_type(value)})
        yield f"payload_{key}_nan", put({**rest, key: float("nan")})
        for other in _out_of_domain(value):
            yield f"payload_{key}_{other!r}", put({**rest, key: other})
    relabelled = _RELABEL.get(record["kind"])
    if relabelled is not None:
        yield f"relabel_{relabelled}", {**record, "kind": relabelled}


def _log_cases(records: list[dict], share: int) -> Iterator[tuple[str, list[str]]]:
    """Corruptions of one session's event lines: (name, lines).

    Shape and order corruptions hit the first and the last event; payload
    and engine corruptions hit the events :func:`_targets` picks.
    """
    lines = [_canonical(r) for r in records]
    # Every line with seq one higher: the tail after an inserted event.
    shifted = [_canonical(dict(r, seq=r["seq"] + 1)) for r in records]

    def lines_of(items: list[Any]) -> list[str]:
        return [item if isinstance(item, str) else _canonical(item) for item in items]

    for at in (0, len(records) - 1):
        before = records[at - 1] if at else None
        for name, new in _record_cases(records[at], before):
            yield f"{at}:{name}", lines[:at] + lines_of(new) + lines[at + 1:]
        if before is not None:
            yield f"{at}:swapped_raw", lines[:at - 1] + [lines[at], lines[at - 1]] + lines[at + 1:]
    entries = {r["scene"]: i for i, r in enumerate(records) if r["kind"] == "SceneEntered"}
    for at in _targets(records, share):
        record = records[at]
        head, tail = lines[:at], lines[at + 1:]
        for name, new in _payload_cases(record):
            yield f"{at}:{name}", head + [_canonical(new)] + tail
        yield f"{at}:dropped", head + tail
        # Repeats, swaps and moves keep seq and time in order, so that only
        # the engine can object; a fresh repeat names something new.
        again = dict(record, seq=record["seq"] + 1)
        yield f"{at}:repeated", head + [lines[at], _canonical(again)] + shifted[at + 1:]
        fresh = {k: f"fresh-{at}" if isinstance(v, str) else v
                 for k, v in record["payload"].items()}
        yield f"{at}:repeated_fresh", head + [
            lines[at], _canonical(dict(again, payload=fresh))] + shifted[at + 1:]
        if at > 0:
            before = records[at - 1]
            yield f"{at}:swapped", lines[:at - 1] + lines_of([
                dict(record, seq=before["seq"], sim_time_ms=before["sim_time_ms"]),
                dict(before, seq=record["seq"], sim_time_ms=record["sim_time_ms"]),
            ]) + tail
        # A copy moved into the next scene, right after its entry.
        entry = entries.get(record["scene"] + 1)
        if entry is not None:
            moved = dict(record, scene=record["scene"] + 1,
                         seq=records[entry]["seq"] + 1,
                         sim_time_ms=records[entry]["sim_time_ms"])
            yield f"{at}:moved", lines[:entry + 1] + [_canonical(moved)] + shifted[entry + 1:]


def _header_cases(header: str) -> Iterator[tuple[str, str]]:
    """Corruptions of the header line: (name, new header line)."""
    record = json.loads(header)
    yield "header_not_header", _canonical({**record, "kind": "event"})
    yield "header_schema", _canonical({**record, "schema": "other-log"})
    for version in (2, 0, "1", None):
        yield f"header_version_{version!r}", _canonical({**record, "version": version})
    for seed in (True, 1.5, "1"):
        yield f"header_seed_{seed!r}", _canonical({**record, "seed": seed})
    yield "header_config_hash_int", _canonical({**record, "config_hash": 7})
    yield "header_invalid_json", header[:-1]
    yield "header_non_object", "[]"


def _outcome(data: bytes, config) -> str:
    try:
        aggregate_scorecard(deserialize_log(data), config)
    except Exception as exc:  # the class and the message are what is pinned
        return f"{type(exc).__name__}\t{exc}"
    return "accepted"


def _outcomes(preset: str, seed: int, share: int) -> Iterator[str]:
    """One line per corruption of a golden session: name, class, message."""
    config = default_config()
    data = golden_bytes(preset, seed)
    header, *lines = data.decode("utf-8").split("\n")[:-1]
    whole = {"empty": b"", "truncated": data[:-1], "not_utf8": data + b"\xff\n"}
    for name, corrupted in whole.items():
        yield f"{name}\t{_outcome(corrupted, config)}"
    for name, line in _header_cases(header):
        body = "\n".join([line, *lines]) + "\n"
        yield f"{name}\t{_outcome(body.encode('utf-8'), config)}"
    for name, body_lines in _log_cases([json.loads(line) for line in lines], share):
        body = "\n".join([header, *body_lines]) + "\n"
        yield f"{name}\t{_outcome(body.encode('utf-8'), config)}"


_SESSIONS = [(preset, seed) for preset in ("default", "null", "perfect")
             for seed in (1, 2, 3)]

# (preset, seed) -> sha256 over the outcome lines, each ending in LF.
_GOLDEN_REJECTIONS = {
    ("default", 1): "88dc503fd2d38ac41b74fee1c8db994864529b7de98bac12a29d26cfddaa1954",
    ("default", 2): "e6534864b028415187a0122aeab72d4235e0a4f6fd5bf24dc9d9651b6bb62349",
    ("default", 3): "0d16269d7c97a285291e234df4b5efcc2f3a2872585e8fc9e8b618bcf74d2731",
    ("null", 1): "eed573e715678729d2b1f7f1d1aaa7b3c486788e04c891f7f4663a7591b4c570",
    ("null", 2): "3dd9ffd1a942eb991001850d249498e0644a2b08c987d1520fa5f671995d1f30",
    ("null", 3): "f4973d4faeb40dd009fb90831f2f8d83f47a7ea385e2f59ad37a874cda6e0544",
    ("perfect", 1): "4d0cbb9f4a6054b76d5e27b8c689e34093948b6e3f32ae3f08af551f2477eec9",
    ("perfect", 2): "9ad33e09ac46d1854d739bd8c2cb768e45233ee298210b2384aad19eae2a98e1",
    ("perfect", 3): "1fa7e6252ebd506329271f489e3f85d43b8256cd34201469e15cf1a1a9a04306",
}


@functools.cache
def _session_outcomes(share: int, preset: str, seed: int) -> tuple[str, ...]:
    """The outcome lines of one golden session, made once per run."""
    logging.disable(logging.WARNING)  # dangling notes in accepted logs
    try:
        return tuple(_outcomes(preset, seed, share))
    finally:
        logging.disable(logging.NOTSET)


@pytest.mark.parametrize("share, preset, seed",
                         [(share, *session) for share, session in enumerate(_SESSIONS)])
def test_rejections_match_golden_digests(share, preset, seed):
    lines = _session_outcomes(share, preset, seed)
    digest = hashlib.sha256("".join(line + "\n" for line in lines).encode("utf-8"))
    assert digest.hexdigest() == _GOLDEN_REJECTIONS[(preset, seed)]


@functools.cache
def _engine_messages() -> frozenset[str]:
    """The messages of every engine rejection among the nine sessions'
    outcomes."""
    prefix = "MalformedLog\tlog rejected by the scenario engine: "
    messages = set()
    for share, session in enumerate(_SESSIONS):
        for line in _session_outcomes(share, *session):
            _, outcome = line.split("\t", 1)
            if outcome.startswith(prefix):
                messages.add(outcome[len(prefix):])
    return frozenset(messages)


_TAKE_ROWS = [(kind, sid, handler.__self__) for kind, hosts in scenario._HANDLERS.items()
              for sid, handler in hosts.items()
              if isinstance(getattr(handler, "__self__", None), scenario._Take)]


@pytest.mark.parametrize("kind, sid, rule", _TAKE_ROWS,
                         ids=[f"{kind.value}-{sid}" for kind, sid, _ in _TAKE_ROWS])
def test_every_take_row_message_occurs(kind, sid, rule):
    # each take row's checks are data, so the digest pins them only if the
    # corruptions reach each one
    messages = _engine_messages()
    again = re.compile(".+".join(map(re.escape, re.split(r"\{.*?\}", rule.again))))
    expected = {"second take": again.fullmatch}
    if rule.room is not None:
        expected["room"] = f"{rule.room} holds {scenario.SHOPPING_LIST_LENGTH} items".__eq__
    for _, _, label in rule.known:
        expected[f"unknown {label}"] = re.compile(f"unknown {re.escape(label)} .+").fullmatch
    if rule.non_negative is not None:
        expected["non-negative"] = f"{rule.non_negative} must be non-negative".__eq__
    missing = [what for what, match in expected.items() if not any(map(match, messages))]
    assert not missing, f"{kind.value} in scene {sid}: no outcome for {missing}"


def test_every_take_scene_has_a_row():
    assert {sid for _, sid, _ in _TAKE_ROWS} == {3, 6, 12, 14, 19, 22}
