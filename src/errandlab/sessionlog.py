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

import functools
import json
import logging
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterable, NoReturn, Optional

from .scenario import (
    AUDITORY_STIMULUS_KINDS,
    COOKING_ITEMS,
    EVENT_SCENES,
    EventKind,
    NOTES_INTENT_PROMPTS,
    ROUTE_IDEAL_UNITS,
    SCENES_BY_ID,
    SHOPPING_LIST_LENGTH,
    SessionEvent,
    TASKS,
    TUTORIAL_SCENES,
    VISUAL_STIMULUS_KINDS,
)

if TYPE_CHECKING:  # pragma: no cover
    from .config import ScoringConfig
    from .scoring import RecognitionScore, TaskScorecard

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


_EventKey = tuple[int, EventKind]


@dataclass(frozen=True)
class SessionLog:
    """Immutable log value: header fields plus the event tuple."""

    seed: Optional[int] = None
    config_hash: Optional[str] = None
    events: tuple[SessionEvent, ...] = ()

    @functools.cached_property
    def events_by_key(self) -> dict[_EventKey, list[SessionEvent]]:
        """Each (scene, kind) that occurs, mapped to its events in log order.

        Built by one walk over :attr:`events` on first read; read-only.
        """
        groups: dict[_EventKey, list[SessionEvent]] = {}
        for event in self.events:
            groups.setdefault((event.scene, event.kind), []).append(event)
        return groups


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


# The header and the kind names go through _dumps, whose encode builds a new
# C encoder on every call.
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))
_dumps = _ENCODER.encode
# The canonical JSON of each kind's name, for the event envelope.
_KIND_JSON = {kind: _dumps(kind.value) for kind in EventKind}
# The payloads go through one C encoder with _dumps's options, built once; it
# returns the JSON in chunks.  A payload holds scalars only, so it keeps no
# circular-reference markers (None, as check_circular=False would).
_encode_payload = json.encoder.c_make_encoder(  # type: ignore[attr-defined]
    None, _ENCODER.default, json.encoder.encode_basestring_ascii,
    _ENCODER.indent, _ENCODER.key_separator, _ENCODER.item_separator,
    _ENCODER.sort_keys, _ENCODER.skipkeys, _ENCODER.allow_nan)


def serialize_log(log: SessionLog) -> bytes:
    """Canonical NDJSON bytes: one header line, then one line per event."""
    lines = [_dumps({
        "kind": "header",
        "schema": SCHEMA_NAME,
        "version": SCHEMA_VERSION,
        "seed": log.seed,
        "config_hash": log.config_hash,
    })]
    # The envelope is written here in sorted-key order, as _dumps would
    # write it; only a non-empty payload goes through the encoder.
    encode, join = _encode_payload, "".join
    for event in log.events:
        payload = join(encode(event.payload, 0)) if event.payload else "{}"
        lines.append(
            f'{{"kind":{_KIND_JSON[event.kind]},"payload":{payload},'
            f'"scene":{event.scene:d},"seq":{event.seq:d},'
            f'"sim_time_ms":{event.sim_time_ms:d}}}')
    return ("\n".join(lines) + "\n").encode("utf-8")


_EVENT_KINDS = {kind.value: kind for kind in EventKind}
_EVENT_FIELDS = frozenset({"seq", "sim_time_ms", "scene", "kind", "payload"})
# Reads one JSON value starting at an index; StopIteration if none starts there.
_scan_once = json.JSONDecoder().scan_once


def _read_line(number: int, line: str) -> dict[str, Any]:
    # A canonical line is one JSON object from end to end; any other line
    # goes to _parse_line, which rejects it.
    try:
        record, end = _scan_once(line, 0)
    except (StopIteration, ValueError, RecursionError):
        end = -1
    if end != len(line) or type(record) is not dict:
        _parse_line(number, line)
    return record


def _parse_line(number: int, line: str) -> NoReturn:
    # json.loads words the fault of a line that is not one JSON value; one
    # that it reads as an object has whitespace around it, which
    # serialize_log would not write back.
    try:
        record = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ParseError(f"line {number}: invalid JSON ({exc.msg})") from exc
    except ValueError as exc:  # an integer too long to convert
        raise ParseError(f"line {number}: invalid JSON ({exc})") from exc
    except RecursionError as exc:
        raise ParseError(f"line {number}: JSON nested too deeply") from exc
    if not isinstance(record, dict):
        raise ParseError(f"line {number}: expected a JSON object")
    raise ParseError(f"line {number}: whitespace around the JSON object")


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

    header = _read_line(1, lines[0])
    if header.get("kind") != "header" or header.get("schema") != SCHEMA_NAME:
        raise ParseError("first line is not a session-log header")
    version = header.get("version")
    # 1.0 and true compare equal to 1 but would be written back as 1.
    if (not isinstance(version, int) or isinstance(version, bool)
            or version != SCHEMA_VERSION):
        raise SchemaVersionMismatch(
            f"schema version {version!r} unsupported "
            f"(expected {SCHEMA_VERSION})")
    seed = header.get("seed")
    if seed is not None and (not isinstance(seed, int) or isinstance(seed, bool)):
        raise ParseError("header seed must be an integer or null")
    config_hash = header.get("config_hash")
    if config_hash is not None and not isinstance(config_hash, str):
        raise ParseError("header config_hash must be a string or null")

    events: list[SessionEvent] = []
    append = events.append
    # SessionEvent makes seq and sim_time_ms non-negative, so the first
    # event is never out of order.
    last_seq, last_ms = -1, 0
    for number, line in enumerate(lines[1:], start=2):
        record = _read_line(number, line)
        if record.keys() != _EVENT_FIELDS:
            raise ParseError(
                f"line {number}: event fields must be {sorted(_EVENT_FIELDS)}")
        kind_name = record["kind"]
        # an array or object kind is unhashable, so test the type first
        kind = _EVENT_KINDS.get(kind_name) if type(kind_name) is str else None
        if kind is None:
            raise ParseError(f"line {number}: unknown event kind {kind_name!r}")
        payload = record["payload"]
        if type(payload) is not dict:
            raise ParseError(f"line {number}: payload must be an object")
        try:
            event = SessionEvent(record["seq"], record["sim_time_ms"],
                                 record["scene"], kind, payload)
        except (TypeError, ValueError) as exc:
            raise ParseError(f"line {number}: {exc}") from exc
        seq, time_ms = event.seq, event.sim_time_ms
        if seq <= last_seq or time_ms < last_ms:
            _check_order(events[-1], event)
        last_seq, last_ms = seq, time_ms
        append(event)
    return SessionLog(seed=seed, config_hash=config_hash, events=tuple(events))


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
    notes_intent: tuple[bool, ...] = (False,) * NOTES_INTENT_PROMPTS
    total_time_s: float = 0.0


# Each scene's id with the (scene, kind) keys derive_telemetry reads for it,
# in scene order: entered, exited, practice attempt, note opened, note closed.
# Built once, since on Python 3.11 each EventKind member read goes through
# EnumType.__getattr__.
_SCENE_KEYS: tuple[tuple[int, _EventKey, _EventKey, _EventKey, _EventKey, _EventKey],
                   ...] = tuple(
    (scene_id, (scene_id, EventKind.SCENE_ENTERED), (scene_id, EventKind.SCENE_EXITED),
     (scene_id, EventKind.PRACTICE_ATTEMPT), (scene_id, EventKind.NOTE_OPENED),
     (scene_id, EventKind.NOTE_CLOSED))
    for scene_id in sorted(SCENES_BY_ID))
[_NOTES_SCENE] = EVENT_SCENES[EventKind.NOTES_INTENT_ANSWERED]
_NOTES_INTENT_KEY: _EventKey = (_NOTES_SCENE, EventKind.NOTES_INTENT_ANSWERED)


def derive_telemetry(log: SessionLog) -> Telemetry:
    """Read timing and usage measures from the log's (scene, kind) groups.

    Tolerates partial logs.  A note left open at scene exit is closed at the
    exit timestamp, or at the last event of a log that ends inside the scene,
    and logged as a warning that names which; completeness enforcement lives
    with the scorecard aggregation, not here.  Scene times, notes time and
    the task windows of :data:`~errandlab.scenario.TASKS`, in name order, are
    defined on engine-accepted logs and their prefixes, where each scene is
    entered once, exited after its entry, and holds at most one open note.
    A scene with more note closes than opens, or two or more opens over its
    closes, is outside that domain and raises :class:`MalformedLog`.
    """
    groups = log.events_by_key

    def window_s(start: _EventKey, end: _EventKey) -> Optional[float]:
        if start not in groups or end not in groups:
            return None
        return (groups[end][-1].sim_time_ms - groups[start][0].sim_time_ms) / 1000.0

    scene_time = {
        scene_id: seconds for scene_id, entered, exited, *_ in _SCENE_KEYS
        if (seconds := window_s(entered, exited)) is not None}
    task_time = {
        name: seconds for name, (scene_id, _, start, end) in sorted(TASKS.items())
        if (seconds := window_s((scene_id, start), (scene_id, end))) is not None}

    attempts = {
        scene_id: len(groups[attempt]) for scene_id, _, _, attempt, _, _ in _SCENE_KEYS
        if attempt in groups}

    notes_views: dict[int, NotesUsage] = {}
    for scene_id, _, exited, _, opened_key, closed_key in _SCENE_KEYS:
        opened = groups.get(opened_key, ())
        closed = groups.get(closed_key, ())
        if len(opened) - len(closed) not in (0, 1):
            raise MalformedLog(f"scene {scene_id} has {len(opened)} NoteOpened "
                               f"and {len(closed)} NoteClosed events")
        if not opened:
            continue
        open_ms = (sum(event.sim_time_ms for event in closed)
                   - sum(event.sim_time_ms for event in opened))
        if len(closed) < len(opened):
            # the last note opened is still open when the scene (or log) ends
            open_ms += groups.get(exited, log.events)[-1].sim_time_ms
            closed_at = "scene exit" if exited in groups else "the log's last event"
            logger.warning(
                "notes left open in scene %d; closed at %s", scene_id, closed_at)
        notes_views[scene_id] = NotesUsage(
            opens=len(opened), total_open_s=open_ms / 1000.0)

    intent = [False] * NOTES_INTENT_PROMPTS
    for event in groups.get(_NOTES_INTENT_KEY, []):
        index = event.payload["prompt_index"]
        if 1 <= index <= NOTES_INTENT_PROMPTS:
            intent[index - 1] = bool(event.payload["yes"])

    total_s = log.events[-1].sim_time_ms / 1000.0 if log.events else 0.0
    return Telemetry(
        scene_time_s=scene_time,
        tutorial_time_s={k: v for k, v in scene_time.items() if k in TUTORIAL_SCENES},
        practice_attempts=attempts,
        notes_views=notes_views,
        task_time_s=task_time,
        notes_intent=tuple(intent),
        total_time_s=total_s,
    )


# ---------------------------------------------------------------------------
# Report


def _fmt_s(value: float) -> str:
    return f"{value:.2f}"


# The report names each stimulus kind by its first word: "shape", not "shape_distractor".
_KIND_LABELS = {kind: kind.split("_", 1)[0]
                for kind in (*VISUAL_STIMULUS_KINDS, *AUDITORY_STIMULUS_KINDS)}


def _response_lines(ride: str, responded: dict[str, dict[str, int]]) -> list[str]:
    return [f"{ride}_responses_{side}: " + ", ".join(
        f"{_KIND_LABELS[kind]} {count}" for kind, count in counts.items())
        for side, counts in responded.items()]


def _recognition_line(board: str, rec: "RecognitionScore") -> str:
    return (f"{board}_recognition: {rec.points}/{2 * SHOPPING_LIST_LENGTH} "
            f"(targets {rec.targets}, qualitative {rec.qualitative}, "
            f"quantitative {rec.quantitative}, absent {rec.false_items})")


def export_report(scorecard: "TaskScorecard", config: "ScoringConfig",
                  seed: Optional[int] = None,
                  config_hash: Optional[str] = None) -> str:
    """Deterministic plain-text report: one labeled line per measure.

    ``config`` is the config the scorecard was scored with; the maxima the
    report prints beside each score are computed from it.  The telemetry
    lines come from ``scorecard.telemetry``, so the report describes one
    session.  Fixed ordering, seconds to two decimals, LF line endings.
    Identical inputs produce identical bytes.
    """
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
    lines.append(_recognition_line("immediate", scorecard.immediate_recognition))
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
    lines.extend(_response_lines("visual", scorecard.visual.responded))
    lines.append(_recognition_line("delayed", scorecard.delayed_recognition))
    aud = scorecard.auditory
    lines.append(f"auditory_attention: {aud.points}")
    lines.append(f"auditory_side_matched: {aud.side_matched}")
    lines.append(f"auditory_wrong_controller: {aud.side_mismatched}")
    lines.append(f"auditory_false_alarms: {aud.false_alarms}")
    lines.extend(_response_lines("auditory", aud.responded))
    lines.append("")
    lines.append("telemetry")
    lines.append("---------")
    telemetry = scorecard.telemetry
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
