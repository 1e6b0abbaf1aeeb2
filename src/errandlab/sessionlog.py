"""Append-only session logs: NDJSON storage, telemetry, and the text report.

A session log is a header record plus an ordered list of
:class:`~errandlab.scenario.SessionEvent` rows.  The header carries the
schema name and version, the session seed, and the hash of the scoring
config in force, so any log can be matched to the exact rules that produced
and scored it.  Serialization is canonical (sorted keys, fixed separators,
LF line endings, UTF-8), which makes valid logs round-trip byte-for-byte —
the determinism tests lean on that.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterable, Optional

from .scenario import (
    COOKING_ITEMS,
    EventKind,
    ROUTE_IDEAL_UNITS,
    SHOPPING_LIST_LENGTH,
    SIDES,
    SessionEvent,
    TUTORIAL_SCENES,
)

if TYPE_CHECKING:  # pragma: no cover
    from .config import ScoringConfig
    from .scoring import TaskScorecard

logger = logging.getLogger(__name__)

SCHEMA_NAME = "session-log"
SCHEMA_VERSION = 1


class LogError(Exception):
    """Base class for session-log problems."""


class MonotonicityViolation(LogError):
    """Appended event breaks seq or timestamp ordering."""


class SchemaVersionMismatch(LogError):
    """The file is a session log, but from an unsupported schema version."""


class ParseError(LogError):
    """The bytes are not a well-formed session log."""


class MalformedLog(LogError):
    """The log parses but its event stream is inconsistent."""


class IncompleteSession(LogError):
    """The log ends before the scenario's final button."""


@dataclass(frozen=True)
class SessionLog:
    """Immutable log value: header fields plus the event tuple."""

    seed: Optional[int] = None
    config_hash: Optional[str] = None
    events: tuple[SessionEvent, ...] = ()


def new_log(seed: Optional[int] = None, config_hash: Optional[str] = None) -> SessionLog:
    return SessionLog(seed=seed, config_hash=config_hash)


def _check_order(last: SessionEvent, event: SessionEvent) -> None:
    if event.seq <= last.seq:
        raise MonotonicityViolation(
            f"seq {event.seq} not greater than {last.seq}")
    if event.sim_time_ms < last.sim_time_ms:
        raise MonotonicityViolation(
            f"sim_time_ms {event.sim_time_ms} behind {last.sim_time_ms}")


def append_event(log: SessionLog, event: SessionEvent) -> SessionLog:
    """Return a new log with ``event`` appended.

    seq must strictly increase and sim_time_ms must never decrease;
    violations raise :class:`MonotonicityViolation`.  Each call copies the
    event tuple; build a whole log with :func:`log_from_events`.
    """
    if log.events:
        _check_order(log.events[-1], event)
    return SessionLog(seed=log.seed, config_hash=log.config_hash,
                      events=log.events + (event,))


def log_from_events(events: Iterable[SessionEvent], seed: Optional[int] = None,
                    config_hash: Optional[str] = None) -> SessionLog:
    """Build a log from an event stream in one pass.

    Applies the ordering checks of :func:`append_event` to each event as it
    arrives, so an error surfaces at the first offending event.
    """
    collected: list[SessionEvent] = []
    for event in events:
        if collected:
            _check_order(collected[-1], event)
        collected.append(event)
    return SessionLog(seed=seed, config_hash=config_hash, events=tuple(collected))


def _dumps(record: dict[str, Any]) -> str:
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def serialize_log(log: SessionLog) -> bytes:
    """Canonical NDJSON bytes: one header line, then one line per event."""
    lines = [_dumps({
        "kind": "header",
        "schema": SCHEMA_NAME,
        "version": SCHEMA_VERSION,
        "seed": log.seed,
        "config_hash": log.config_hash,
    })]
    for event in log.events:
        lines.append(_dumps({
            "seq": event.seq,
            "sim_time_ms": event.sim_time_ms,
            "scene": event.scene,
            "kind": event.kind.value,
            "payload": event.payload,
        }))
    return ("\n".join(lines) + "\n").encode("utf-8")


_EVENT_KINDS = {kind.value: kind for kind in EventKind}
_EVENT_FIELDS = frozenset({"seq", "sim_time_ms", "scene", "kind", "payload"})


def deserialize_log(data: bytes) -> SessionLog:
    """Parse NDJSON bytes back into a :class:`SessionLog`.

    Raises :class:`ParseError` for malformed or truncated content and
    unknown event kinds, :class:`SchemaVersionMismatch` for a foreign
    schema version, and :class:`MonotonicityViolation` if the stored rows
    are out of order.
    """
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"log is not valid UTF-8: {exc}") from exc
    if not text.strip():
        raise ParseError("log is empty")
    if not text.endswith("\n"):
        raise ParseError("log is truncated (no trailing newline)")
    lines = text.split("\n")[:-1]

    def parse_line(index: int, line: str) -> dict[str, Any]:
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ParseError(f"line {index + 1}: invalid JSON ({exc.msg})") from exc
        if not isinstance(record, dict):
            raise ParseError(f"line {index + 1}: expected a JSON object")
        return record

    header = parse_line(0, lines[0])
    if header.get("kind") != "header" or header.get("schema") != SCHEMA_NAME:
        raise ParseError("first line is not a session-log header")
    if header.get("version") != SCHEMA_VERSION:
        raise SchemaVersionMismatch(
            f"schema version {header.get('version')!r} unsupported "
            f"(expected {SCHEMA_VERSION})")
    seed = header.get("seed")
    if seed is not None and (not isinstance(seed, int) or isinstance(seed, bool)):
        raise ParseError("header seed must be an integer or null")
    config_hash = header.get("config_hash")
    if config_hash is not None and not isinstance(config_hash, str):
        raise ParseError("header config_hash must be a string or null")

    def parse_event(index: int, line: str) -> SessionEvent:
        record = parse_line(index, line)
        if set(record) != _EVENT_FIELDS:
            raise ParseError(
                f"line {index + 1}: event fields must be {sorted(_EVENT_FIELDS)}")
        kind_name = record["kind"]
        if kind_name not in _EVENT_KINDS:
            raise ParseError(f"line {index + 1}: unknown event kind {kind_name!r}")
        payload = record["payload"]
        if not isinstance(payload, dict):
            raise ParseError(f"line {index + 1}: payload must be an object")
        try:
            return SessionEvent(
                seq=record["seq"],
                sim_time_ms=record["sim_time_ms"],
                scene=record["scene"],
                kind=_EVENT_KINDS[kind_name],
                payload=payload,
            )
        except (TypeError, ValueError) as exc:
            raise ParseError(f"line {index + 1}: {exc}") from exc

    return log_from_events(
        (parse_event(index, line) for index, line in enumerate(lines[1:], start=1)),
        seed=seed, config_hash=config_hash)


# ---------------------------------------------------------------------------
# Telemetry


@dataclass(frozen=True)
class NotesUsage:
    opens: int
    total_open_s: float


@dataclass(frozen=True)
class Telemetry:
    """Per-session timing and usage measures derived from the raw log."""

    scene_time_s: dict[int, float] = field(default_factory=dict)
    tutorial_time_s: dict[int, float] = field(default_factory=dict)
    practice_attempts: dict[int, int] = field(default_factory=dict)
    notes_views: dict[int, NotesUsage] = field(default_factory=dict)
    task_time_s: dict[str, float] = field(default_factory=dict)
    notes_intent: tuple[bool, bool, bool] = (False, False, False)
    total_time_s: float = 0.0


def derive_telemetry(log: SessionLog) -> Telemetry:
    """Fold the event stream into timing and usage measures.

    Tolerates partial logs.  A note left open at scene exit is closed at the
    exit timestamp and logged as a warning; completeness enforcement lives
    with the scorecard aggregation, not here.
    """
    entry_ms: dict[int, int] = {}
    exit_ms: dict[int, int] = {}
    scene_time: dict[int, float] = {}
    attempts: dict[int, int] = {}
    notes_opens: dict[int, int] = {}
    notes_total_ms: dict[int, int] = {}
    note_opened_at: Optional[int] = None
    note_scene: Optional[int] = None
    intent = [False, False, False]

    first_selection_ms: Optional[int] = None
    last_selection_ms: Optional[int] = None
    first_toggle_ms: Optional[int] = None
    route_submit_ms: Optional[int] = None
    last_cook_ms: Optional[int] = None
    last_grab_ms: Optional[int] = None
    till_ms: Optional[int] = None

    def close_note(at_ms: int, *, dangling: bool) -> None:
        nonlocal note_opened_at, note_scene
        if note_opened_at is None or note_scene is None:
            return
        notes_total_ms[note_scene] = (
            notes_total_ms.get(note_scene, 0) + (at_ms - note_opened_at))
        if dangling:
            logger.warning(
                "notes left open in scene %d; closed at scene exit", note_scene)
        note_opened_at = None
        note_scene = None

    for event in log.events:
        kind = event.kind
        if kind is EventKind.SCENE_ENTERED:
            entry_ms[event.scene] = event.sim_time_ms
        elif kind is EventKind.SCENE_EXITED:
            exit_ms[event.scene] = event.sim_time_ms
            if note_opened_at is not None:
                close_note(event.sim_time_ms, dangling=True)
            if event.scene in entry_ms:
                scene_time[event.scene] = (
                    event.sim_time_ms - entry_ms[event.scene]) / 1000.0
        elif kind is EventKind.PRACTICE_ATTEMPT:
            attempts[event.scene] = attempts.get(event.scene, 0) + 1
        elif kind is EventKind.NOTE_OPENED:
            notes_opens[event.scene] = notes_opens.get(event.scene, 0) + 1
            note_opened_at = event.sim_time_ms
            note_scene = event.scene
        elif kind is EventKind.NOTE_CLOSED:
            close_note(event.sim_time_ms, dangling=False)
        elif kind is EventKind.NOTES_INTENT_ANSWERED:
            index = event.payload["prompt_index"]
            if 1 <= index <= 3:
                intent[index - 1] = bool(event.payload["yes"])
        elif kind is EventKind.ITEM_SELECTED:
            if event.scene == 3:
                if first_selection_ms is None:
                    first_selection_ms = event.sim_time_ms
                last_selection_ms = event.sim_time_ms
            elif event.scene == 8:
                last_grab_ms = event.sim_time_ms
        elif kind is EventKind.ROUTE_UNIT_TOGGLED:
            if first_toggle_ms is None:
                first_toggle_ms = event.sim_time_ms
        elif kind is EventKind.ROUTE_SUBMITTED:
            route_submit_ms = event.sim_time_ms
        elif kind is EventKind.COOKING_ITEM_PLACED:
            last_cook_ms = event.sim_time_ms
        elif kind is EventKind.FINAL_BUTTON_PRESSED:
            if event.scene == 14:
                till_ms = event.sim_time_ms

    if note_opened_at is not None and log.events:
        close_note(log.events[-1].sim_time_ms, dangling=True)

    task_time: dict[str, float] = {}
    if first_selection_ms is not None and last_selection_ms is not None:
        task_time["immediate_recognition"] = (
            last_selection_ms - first_selection_ms) / 1000.0
    if first_toggle_ms is not None and route_submit_ms is not None:
        task_time["planning"] = (route_submit_ms - first_toggle_ms) / 1000.0
    if last_cook_ms is not None and 6 in entry_ms:
        task_time["cooking"] = (last_cook_ms - entry_ms[6]) / 1000.0
    if last_grab_ms is not None and 8 in entry_ms:
        task_time["collection"] = (last_grab_ms - entry_ms[8]) / 1000.0
    if till_ms is not None and 14 in entry_ms:
        task_time["delayed_recognition"] = (till_ms - entry_ms[14]) / 1000.0
    for name, scene_id in (("visual_attention", 12), ("auditory_attention", 19)):
        if scene_id in scene_time:
            task_time[name] = scene_time[scene_id]

    notes_views = {
        scene_id: NotesUsage(
            opens=notes_opens.get(scene_id, 0),
            total_open_s=notes_total_ms.get(scene_id, 0) / 1000.0)
        for scene_id in sorted(set(notes_opens) | set(notes_total_ms))
    }

    total_s = log.events[-1].sim_time_ms / 1000.0 if log.events else 0.0
    return Telemetry(
        scene_time_s=dict(sorted(scene_time.items())),
        tutorial_time_s={k: v for k, v in sorted(scene_time.items())
                         if k in TUTORIAL_SCENES},
        practice_attempts=dict(sorted(attempts.items())),
        notes_views=notes_views,
        task_time_s=dict(sorted(task_time.items())),
        notes_intent=(intent[0], intent[1], intent[2]),
        total_time_s=total_s,
    )


# ---------------------------------------------------------------------------
# Report


def _fmt_s(value: float) -> str:
    return f"{value:.2f}"


def export_report(scorecard: "TaskScorecard", telemetry: Telemetry,
                  config: "ScoringConfig", seed: Optional[int] = None,
                  config_hash: Optional[str] = None) -> str:
    """Deterministic plain-text report: one labeled line per measure.

    ``config`` is the config the scorecard was scored with; the maxima the
    report prints beside each score are computed from it.  Fixed ordering,
    seconds to two decimals, LF line endings.  Identical inputs produce
    identical bytes.
    """
    recognition_max = 2 * SHOPPING_LIST_LENGTH
    cooking_max = len(COOKING_ITEMS) * max(config.band_points.values())
    lines: list[str] = []
    lines.append("errand session report")
    lines.append("=====================")
    lines.append(f"seed: {seed if seed is not None else '-'}")
    lines.append(f"config: {config_hash[:12] if config_hash else '-'}")
    lines.append("")
    lines.append("scores")
    lines.append("------")
    lines.append("notes_intent: " + ", ".join(
        "yes" if flag else "no" for flag in scorecard.notes_intent))
    rec = scorecard.immediate_recognition
    lines.append(f"immediate_recognition: {rec.points}/{recognition_max} "
                 f"(targets {rec.targets}, qualitative {rec.qualitative}, "
                 f"quantitative {rec.quantitative}, absent {rec.false_items})")
    plan = scorecard.planning
    lines.append(f"planning_units: {plan.units_selected}")
    lines.append(f"planning_route: {plan.route_score}/{ROUTE_IDEAL_UNITS}")
    lines.append(f"planning_time_modifier: {plan.time_modifier:+d}")
    lines.append(f"planning_total: {plan.total}")
    for item in COOKING_ITEMS:
        entry = scorecard.cooking[item]
        lines.append(f"cooking_{item}: {entry.band} ({entry.points})")
    lines.append(f"cooking_total: {scorecard.cooking_total}/{cooking_max}")
    for task_id in sorted(scorecard.pm):
        lines.append(f"pm_{task_id}: {scorecard.pm[task_id].points}")
    lines.append(f"pm_positive_total: {scorecard.pm_positive_total}")
    lines.append(f"pm_deductions_total: {scorecard.pm_deductions_total}")
    lines.append(f"collection_items: {scorecard.collection.points}/"
                 f"{len(config.collection_targets)}")
    lines.append(f"collection_errors: {scorecard.collection.errors}")
    lines.append(f"visual_attention: {scorecard.visual.points}/"
                 f"{2 * config.visual_targets_per_side}")
    for side in SIDES:
        counts = scorecard.visual.responded[side]
        lines.append(
            f"visual_responses_{side}: target {counts['target']}, "
            f"shape {counts['shape_distractor']}, "
            f"color {counts['color_distractor']}")
    rec = scorecard.delayed_recognition
    lines.append(f"delayed_recognition: {rec.points}/{recognition_max} "
                 f"(targets {rec.targets}, qualitative {rec.qualitative}, "
                 f"quantitative {rec.quantitative}, absent {rec.false_items})")
    aud = scorecard.auditory
    lines.append(f"auditory_attention: {aud.points}")
    lines.append(f"auditory_side_matched: {aud.side_matched}")
    lines.append(f"auditory_wrong_controller: {aud.side_mismatched}")
    lines.append(f"auditory_false_alarms: {aud.false_alarms}")
    for side in SIDES:
        counts = aud.responded[side]
        lines.append(
            f"auditory_responses_{side}: target {counts['target']}, "
            f"high {counts['high_pitch_distractor']}, "
            f"low {counts['low_pitch_distractor']}")
    lines.append("")
    lines.append("telemetry")
    lines.append("---------")
    lines.append(f"total_time_s: {_fmt_s(telemetry.total_time_s)}")
    for scene_id, seconds in telemetry.scene_time_s.items():
        lines.append(f"scene_time_s[{scene_id}]: {_fmt_s(seconds)}")
    for scene_id, seconds in telemetry.tutorial_time_s.items():
        lines.append(f"tutorial_time_s[{scene_id}]: {_fmt_s(seconds)}")
    for scene_id, count in telemetry.practice_attempts.items():
        lines.append(f"practice_attempts[{scene_id}]: {count}")
    for scene_id, usage in telemetry.notes_views.items():
        lines.append(
            f"notes_views[{scene_id}]: {usage.opens} opens, "
            f"{_fmt_s(usage.total_open_s)} s")
    for name, seconds in telemetry.task_time_s.items():
        lines.append(f"task_time_s[{name}]: {_fmt_s(seconds)}")
    return "\n".join(lines) + "\n"
