from __future__ import annotations

import dataclasses
import enum
import json
import math
import time

import numpy
import pytest
from hypothesis import given, settings, strategies as st

from errandlab import scenario, sessionlog
from errandlab.config import DEFAULT_BAND_POINTS, _json_text
from errandlab.scenario import EventKind, SessionEvent
from errandlab.scoring import aggregate_scorecard
from errandlab.sessionlog import (
    IncompleteSession,
    MalformedLog,
    MonotonicityViolation,
    ParseError,
    SCHEMA_NAME,
    SCHEMA_VERSION,
    SchemaVersionMismatch,
    SessionLog,
    Telemetry,
    append_event,
    derive_telemetry,
    deserialize_log,
    export_report,
    log_from_events,
    serialize_log,
)
from errandlab.simulate import simulate_session
from walks import minimal_walk


@pytest.fixture(scope="module")
def walk_log():
    log = SessionLog(seed=7, config_hash="deadbeef")
    for event in minimal_walk():
        log = append_event(log, event)
    return log


def _canonical(record):
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


class TestAppend:
    def test_append_is_pure(self):
        log = SessionLog()
        grown = append_event(log, SessionEvent(seq=0, sim_time_ms=0, scene=1,
                                               kind=EventKind.SCENE_ENTERED))
        assert log.events == ()
        assert len(grown.events) == 1

    def test_seq_must_increase(self):
        log = SessionLog()
        log = append_event(log, SessionEvent(seq=5, sim_time_ms=0, scene=1,
                                             kind=EventKind.SCENE_ENTERED))
        with pytest.raises(MonotonicityViolation):
            append_event(log, SessionEvent(seq=5, sim_time_ms=1, scene=1,
                                           kind=EventKind.TUTORIAL_COMPLETED))

    def test_time_must_not_regress(self):
        log = SessionLog()
        log = append_event(log, SessionEvent(seq=0, sim_time_ms=100, scene=1,
                                             kind=EventKind.SCENE_ENTERED))
        with pytest.raises(MonotonicityViolation):
            append_event(log, SessionEvent(seq=1, sim_time_ms=99, scene=1,
                                           kind=EventKind.TUTORIAL_COMPLETED))

    def test_equal_times_allowed(self):
        log = SessionLog()
        log = append_event(log, SessionEvent(seq=0, sim_time_ms=100, scene=1,
                                             kind=EventKind.SCENE_ENTERED))
        log = append_event(log, SessionEvent(seq=1, sim_time_ms=100, scene=1,
                                             kind=EventKind.TUTORIAL_COMPLETED))
        assert len(log.events) == 2


class TestSerialization:
    def test_round_trip_bytes(self, walk_log):
        data = serialize_log(walk_log)
        assert serialize_log(deserialize_log(data)) == data

    def test_round_trip_structure(self, walk_log):
        clone = deserialize_log(serialize_log(walk_log))
        assert clone == walk_log

    def test_header_line(self, walk_log):
        first = serialize_log(walk_log).split(b"\n", 1)[0].decode()
        assert first == _canonical({"kind": "header", "schema": SCHEMA_NAME,
                                    "version": SCHEMA_VERSION, "seed": 7,
                                    "config_hash": "deadbeef"})

    def test_event_lines_are_canonical_json(self, walk_log):
        lines = serialize_log(walk_log).decode().splitlines()[1:]
        assert len(lines) == len(walk_log.events)
        for line, event in zip(lines, walk_log.events):
            assert line == _canonical({
                "seq": event.seq, "sim_time_ms": event.sim_time_ms,
                "scene": event.scene, "kind": event.kind.value,
                "payload": event.payload})

    def test_trailing_newline_required(self, walk_log):
        data = serialize_log(walk_log)
        assert data.endswith(b"\n")
        with pytest.raises(ParseError, match="truncated"):
            deserialize_log(data[:-1])

    def test_empty_input(self):
        with pytest.raises(ParseError, match="empty"):
            deserialize_log(b"")

    def test_header_only_is_valid(self):
        log = SessionLog(seed=None, config_hash=None)
        clone = deserialize_log(serialize_log(log))
        assert clone.events == ()
        assert clone.seed is None

    def test_padded_lines_are_rejected(self, walk_log):
        # serialize_log would write a padded line back without its padding
        lines = serialize_log(walk_log).split(b"\n")
        for number in (1, 3):
            line = lines[number - 1]
            for padded_line in (b" \t" + line, line + b"  ", line + b"\r"):
                padded = lines[:number - 1] + [padded_line] + lines[number:]
                with pytest.raises(ParseError) as excinfo:
                    deserialize_log(b"\n".join(padded))
                assert str(excinfo.value) == (
                    f"line {number}: whitespace around the JSON object")

    def test_only_other_lines_reach_the_slow_parser(self, walk_log, monkeypatch):
        # _parse_line sees only a line that is not one JSON object from end
        # to end, and rejects it; canonical lines, the header included,
        # bypass it
        numbers = []
        original = sessionlog._parse_line

        def counted(number, line):
            numbers.append(number)
            return original(number, line)

        monkeypatch.setattr(sessionlog, "_parse_line", counted)
        data = serialize_log(walk_log)
        assert deserialize_log(data) == walk_log
        assert numbers == []
        lines = data.split(b"\n")
        lines[3] = b" " + lines[3]
        with pytest.raises(ParseError, match="^line 4: whitespace around"):
            deserialize_log(b"\n".join(lines))
        assert numbers == [4]

    def test_missing_header(self, walk_log):
        body = serialize_log(walk_log).split(b"\n", 1)[1]
        with pytest.raises(ParseError, match="header"):
            deserialize_log(body)

    def test_bad_json_names_line(self):
        with pytest.raises(ParseError, match="line 1"):
            deserialize_log(b'{"kind":"header"\n')

    def test_version_mismatch(self, walk_log):
        data = serialize_log(walk_log).replace(b'"version":1', b'"version":99')
        with pytest.raises(SchemaVersionMismatch, match="99"):
            deserialize_log(data)

    def test_unknown_kind_is_named(self, walk_log):
        data = serialize_log(walk_log).replace(b'"SceneEntered"', b'"SceneImploded"')
        with pytest.raises(ParseError, match="SceneImploded"):
            deserialize_log(data)

    def test_extra_event_field_rejected(self, walk_log):
        head, line, rest = serialize_log(walk_log).split(b"\n", 2)
        record = json.loads(line)
        record["rogue"] = 1
        data = head + b"\n" + _canonical(record).encode() + b"\n" + rest
        with pytest.raises(ParseError, match="line 2"):
            deserialize_log(data)

    def test_monotonicity_enforced_on_parse(self, walk_log):
        head, line, rest = serialize_log(walk_log).split(b"\n", 2)
        data = head + b"\n" + line + b"\n" + line + b"\n" + rest
        with pytest.raises((ParseError, MonotonicityViolation)):
            deserialize_log(data)


# Text that leans on what JSON must escape or may pass through: quotes,
# backslashes, control characters, line separators and non-ASCII.
_TEXT = st.text(st.one_of(st.sampled_from('"\\/\x00\x1f\x7f\n\u2028é漢😀'),
                          st.characters()), max_size=8)
_NUMBER = st.integers() | st.floats(allow_nan=False, allow_infinity=False)
# One strategy per allowed-types tuple of the payload schema.
_VALUES = {(str,): _TEXT, (int,): st.integers(), (bool,): st.booleans(),
           (int, float): _NUMBER, (str, type(None)): st.none() | _TEXT}
# Every event kind, with its payload drawn from its schema: the empty
# payloads too, which serialize_log writes without the encoder.
_PAYLOADS = st.one_of(*(
    st.fixed_dictionaries({name: _VALUES[types] for name, types in fields.items()})
    .map(lambda payload, kind=kind: (kind, payload))
    for kind, fields in scenario._PAYLOAD_FIELDS.items()))
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | _TEXT,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(_TEXT, children, max_size=4),
    max_leaves=12)


@st.composite
def _logs(draw):
    events, time_ms = [], 0
    for seq, (kind, payload) in enumerate(draw(st.lists(_PAYLOADS, max_size=12))):
        time_ms += draw(st.integers(0, 10**6))
        events.append(SessionEvent(seq=seq, sim_time_ms=time_ms,
                                   scene=draw(st.integers(1, 22)),
                                   kind=kind, payload=payload))
    return log_from_events(events, seed=draw(st.none() | st.integers()),
                           config_hash=draw(st.none() | _TEXT))


class TestEncoderProperties:
    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(log=_logs())
    def test_lines_equal_json_dumps_and_round_trip(self, log):
        data = serialize_log(log)
        records = [{"kind": "header", "schema": SCHEMA_NAME, "version": SCHEMA_VERSION,
                    "seed": log.seed, "config_hash": log.config_hash}]
        records += [{"seq": e.seq, "sim_time_ms": e.sim_time_ms, "scene": e.scene,
                     "kind": e.kind.value, "payload": e.payload} for e in log.events]
        assert data.decode("utf-8").split("\n") == [*map(_canonical, records), ""]
        parsed = deserialize_log(data)
        assert serialize_log(parsed) == data
        assert parsed == log

    # Event payloads hold scalars only, so nested lists and objects reach the
    # shared encoder through this check alone.
    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(value=_JSON)
    def test_shared_encoder_equals_json_dumps(self, value):
        assert sessionlog._dumps(value) == _canonical(value)

    # The payload encoder is built once and reused for every event.
    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(payload=st.dictionaries(_TEXT, st.none() | st.booleans() | _NUMBER | _TEXT
                                   | st.sampled_from([0.1, 1e-7, 1e16, -0.0, 5e-324]),
                                   max_size=5))
    def test_payload_encoder_equals_json_dumps(self, payload):
        assert "".join(sessionlog._encode_payload(payload, 0)) == _canonical(payload)


class _Level(enum.IntEnum):
    LOW = 1


_FLOATS = st.floats() | st.sampled_from([-0.0, 5e-324, math.nan, math.inf, -math.inf])
# Leaves of every type json writes, subclasses included (numpy.float64 is a
# float, EventKind a str, _Level an int), and every key type json converts;
# the keys of one object are of types that sort together.
_TREES = st.recursive(
    st.none() | st.booleans() | st.integers() | _FLOATS | _TEXT
    | _FLOATS.map(numpy.float64) | st.sampled_from([EventKind.NOTE_OPENED, _Level.LOW]),
    lambda children: st.lists(children, max_size=4)
    | st.lists(children, max_size=4).map(tuple)
    | st.dictionaries(_TEXT | st.sampled_from([EventKind.NOTE_OPENED]), children,
                      max_size=4)
    | st.dictionaries(st.integers() | _FLOATS | _FLOATS.map(numpy.float64)
                      | st.booleans() | st.just(_Level.LOW), children, max_size=4)
    | st.dictionaries(st.none(), children, max_size=1),
    max_leaves=6)


def _indented(value):
    return json.dumps(value, indent=2, sort_keys=True)


class TestIndentedWriter:
    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(value=_TREES)
    def test_equals_json_dumps(self, value):
        assert _json_text(value) == _indented(value)

    @pytest.mark.parametrize("value", [
        {1: 0, "a": 0}, {"a": {None: 0, 1: 0}}, {1, 2}, [0, {"k": (b"x",)}],
        {(1,): 0}, {"k": object()}, {"k": 1j}, {"a": {1.5: frozenset()}}])
    def test_raises_type_error_where_json_does(self, value):
        with pytest.raises(TypeError) as expected:
            _indented(value)
        with pytest.raises(TypeError) as raised:
            _json_text(value)
        assert str(raised.value) == str(expected.value)


class TestFieldTypes:
    """seq, sim_time_ms and scene must be integers, bools excluded."""

    @staticmethod
    def _retyped(walk_log, **fields):
        head, line, rest = serialize_log(walk_log).split(b"\n", 2)
        record = json.loads(line)
        record.update(fields)
        return head + b"\n" + _canonical(record).encode() + b"\n" + rest

    def test_mixed_wrong_types_rejected(self, walk_log):
        data = self._retyped(walk_log, seq=True, scene=1.0, sim_time_ms=1.5)
        with pytest.raises(ParseError, match="line 2"):
            deserialize_log(data)

    @pytest.mark.parametrize("name", ["seq", "sim_time_ms", "scene"])
    @pytest.mark.parametrize("retype", [float, bool, str])
    def test_each_field_rejected(self, walk_log, name, retype):
        value = getattr(walk_log.events[0], name)
        data = self._retyped(walk_log, **{name: retype(value)})
        with pytest.raises(ParseError, match=f"line 2: {name} must be an integer"):
            deserialize_log(data)

    @pytest.mark.parametrize("name", ["seq", "sim_time_ms", "scene"])
    def test_event_constructor_rejects_bool(self, name):
        fields = {"seq": 0, "sim_time_ms": 0, "scene": 1, name: True}
        with pytest.raises(TypeError, match=name):
            SessionEvent(kind=EventKind.SCENE_ENTERED, **fields)


class TestLogBuilding:
    def test_log_from_events_matches_appends(self, walk_log):
        built = log_from_events(walk_log.events, seed=7, config_hash="deadbeef")
        assert built == walk_log

    def test_log_from_events_checks_order(self, walk_log):
        events = list(walk_log.events)
        events[3], events[4] = events[4], events[3]
        with pytest.raises(MonotonicityViolation, match="not greater than"):
            log_from_events(events)

    @staticmethod
    def _lengthened(walk_log, target_events):
        # NoteOpened/NoteClosed pairs right after scene 3 is entered, at its
        # entry timestamp: the log stays valid and replays.
        events = list(walk_log.events)
        at = next(i for i, e in enumerate(events)
                  if e.scene == 3 and e.kind is EventKind.SCENE_ENTERED)
        stamp = events[at].sim_time_ms
        pairs = (target_events - len(events)) // 2
        notes = [SessionEvent(seq=0, sim_time_ms=stamp, scene=3, kind=kind)
                 for _ in range(pairs)
                 for kind in (EventKind.NOTE_OPENED, EventKind.NOTE_CLOSED)]
        merged = events[:at + 1] + notes + events[at + 1:]
        return serialize_log(log_from_events(
            dataclasses.replace(event, seq=seq) for seq, event in enumerate(merged)))

    def test_parse_cost_is_linear(self, walk_log):
        per_event = {}
        for target in (2_000, 32_000):
            data = self._lengthened(walk_log, target)
            best = math.inf
            for _ in range(3):
                start = time.perf_counter()
                log = deserialize_log(data)
                best = min(best, time.perf_counter() - start)
            per_event[target] = best / len(log.events)
        # quadratic building made this ratio about 8
        assert per_event[32_000] < 3.0 * per_event[2_000], per_event


class TestTelemetry:
    def test_scene_times(self, walk_log):
        telemetry = derive_telemetry(walk_log)
        assert sorted(telemetry.scene_time_s) == list(range(1, 23))
        assert all(t > 0 for t in telemetry.scene_time_s.values())

    def test_total_spans_the_whole_session(self, walk_log):
        telemetry = derive_telemetry(walk_log)
        events = walk_log.events
        span_s = (events[-1].sim_time_ms - events[0].sim_time_ms) / 1000.0
        assert telemetry.total_time_s == pytest.approx(span_s)
        # dwell inside scenes can never exceed the full span
        assert math.fsum(telemetry.scene_time_s.values()) <= span_s + 1e-9

    def test_tutorial_subset(self, walk_log):
        telemetry = derive_telemetry(walk_log)
        assert sorted(telemetry.tutorial_time_s) == [1, 2, 4, 5, 7, 9, 11, 13, 18]
        for scene, seconds in telemetry.tutorial_time_s.items():
            assert seconds == telemetry.scene_time_s[scene]

    def test_practice_attempts(self, walk_log):
        assert derive_telemetry(walk_log).practice_attempts == {11: 1, 18: 1}

    def test_task_windows(self, walk_log):
        telemetry = derive_telemetry(walk_log)
        assert sorted(telemetry.task_time_s) == [
            "auditory_attention", "delayed_recognition", "visual_attention"]
        assert all(v >= 0 for v in telemetry.task_time_s.values())

    def test_notes_intent_all_refusals(self, walk_log):
        assert derive_telemetry(walk_log).notes_intent == (False, False, False)

    def test_notes_views(self):
        log = SessionLog()
        events = [
            (1, EventKind.SCENE_ENTERED, {}),
            (1, EventKind.NOTE_OPENED, {}),
            (1, EventKind.NOTE_CLOSED, {}),
            (1, EventKind.NOTE_OPENED, {}),
            (1, EventKind.NOTE_CLOSED, {}),
            (1, EventKind.TUTORIAL_COMPLETED, {}),
            (1, EventKind.SCENE_EXITED, {}),
        ]
        for seq, (scene, kind, payload) in enumerate(events):
            log = append_event(log, SessionEvent(
                seq=seq, sim_time_ms=seq * 2_000, scene=scene, kind=kind,
                payload=payload))
        telemetry = derive_telemetry(log)
        assert telemetry.notes_views[1].opens == 2
        assert telemetry.notes_views[1].total_open_s == pytest.approx(4.0)

    # A note still open is closed at the scene's exit, or at the last event
    # of a log that ends inside the scene, and the warning says which.
    @pytest.mark.parametrize("length, open_s, closed_at", [
        (4, 4.0, "scene exit"), (3, 2.0, "the log's last event")])
    def test_a_dangling_note_warns_where_it_was_closed(self, caplog, length,
                                                       open_s, closed_at):
        kinds = [EventKind.SCENE_ENTERED, EventKind.NOTE_OPENED,
                 EventKind.TUTORIAL_COMPLETED, EventKind.SCENE_EXITED]
        log = log_from_events(
            [SessionEvent(seq=seq, sim_time_ms=seq * 2_000, scene=1, kind=kind)
             for seq, kind in enumerate(kinds[:length])], seed=None, config_hash=None)
        with caplog.at_level("WARNING", logger="errandlab.sessionlog"):
            telemetry = derive_telemetry(log)
        assert telemetry.notes_views[1].total_open_s == open_s
        assert [record.getMessage() for record in caplog.records] == [
            f"notes left open in scene 1; closed at {closed_at}"]

    # Outside its domain telemetry raises rather than returning a number:
    # notes closed without an open, or two notes open at once.
    @pytest.mark.parametrize("kinds, times_s, counts", [
        ([EventKind.NOTE_OPENED, EventKind.NOTE_CLOSED, EventKind.NOTE_CLOSED],
         [1, 2, 10], (1, 2)),
        ([EventKind.NOTE_CLOSED], [3], (0, 1)),
        ([EventKind.NOTE_OPENED, EventKind.NOTE_OPENED], [1, 2], (2, 0))])
    def test_unmatched_notes_are_malformed(self, kinds, times_s, counts):
        events = [SessionEvent(0, 0, 4, EventKind.SCENE_ENTERED)] + [
            SessionEvent(seq, time_s * 1_000, 4, kind)
            for seq, (kind, time_s) in enumerate(zip(kinds, times_s), start=1)]
        log = log_from_events(events, seed=None, config_hash=None)
        opened, closed = counts
        with pytest.raises(MalformedLog) as raised:
            derive_telemetry(log)
        assert str(raised.value) == (
            f"scene 4 has {opened} NoteOpened and {closed} NoteClosed events")

    def test_scoring_groups_the_events_once(self, walk_log, config):
        log = dataclasses.replace(walk_log)  # a copy without cached groups
        assert "events_by_key" not in vars(log)
        aggregate_scorecard(log, config)
        groups = vars(log)["events_by_key"]
        assert log.events_by_key is groups
        for (scene_id, kind), events in groups.items():
            assert all((e.scene, e.kind) == (scene_id, kind) for e in events)
        grouped = [event for events in groups.values() for event in events]
        assert sorted(grouped, key=lambda event: event.seq) == list(log.events)
        assert all(events == sorted(events, key=lambda event: event.seq)
                   for events in groups.values())

    def test_partial_log_partial_scenes(self, walk_log):
        log = SessionLog()
        for event in walk_log.events[:10]:
            log = append_event(log, event)
        telemetry = derive_telemetry(log)
        assert len(telemetry.scene_time_s) < 22

    def test_incomplete_session_cannot_be_scored(self, walk_log, config):
        log = SessionLog()
        for event in walk_log.events[:40]:
            log = append_event(log, event)
        with pytest.raises(IncompleteSession):
            aggregate_scorecard(log, config)


class TestReport:
    def test_deterministic(self, walk_log, config):
        scorecard = aggregate_scorecard(walk_log, config)
        first = export_report(scorecard, config, seed=7, config_hash="deadbeef")
        second = export_report(scorecard, config, seed=7, config_hash="deadbeef")
        assert first == second

    def test_expected_lines(self, walk_log, config):
        scorecard = aggregate_scorecard(walk_log, config)
        report = export_report(scorecard, config, seed=7, config_hash="deadbeef")
        lines = report.splitlines()
        assert "seed: 7" in lines
        assert "config: deadbeef" in lines
        for label in ("immediate_recognition:", "planning_total:",
                      "cooking_total:", "pm_positive_total:",
                      "pm_deductions_total:", "collection_items:",
                      "visual_attention:", "delayed_recognition:",
                      "auditory_attention:", "total_time_s:"):
            assert any(line.startswith(label) for line in lines), label

    def test_times_use_two_decimals(self, walk_log, config):
        scorecard = aggregate_scorecard(walk_log, config)
        report = export_report(scorecard, config)
        for line in report.splitlines():
            if line.startswith("total_time_s:"):
                value = line.split(":", 1)[1].strip()
                assert value == f"{scorecard.telemetry.total_time_s:.2f}"
                break
        else:
            pytest.fail("total_time_s line missing")

    def test_maxima_follow_the_config(self, perfect, config):
        # Passes validate(), yet differs from the defaults in both maxima.
        custom = dataclasses.replace(
            config, band_points={**DEFAULT_BAND_POINTS, "OnTime": 5},
            visual_targets_per_side=4)
        custom.validate()
        card = aggregate_scorecard(simulate_session(perfect, 1, custom), custom)
        lines = export_report(card, custom).splitlines()
        assert f"cooking_total: {card.cooking_total}/15" in lines
        assert f"visual_attention: {card.visual.points}/8" in lines
        assert f"collection_items: {card.collection.points}/6" in lines
        assert f"planning_route: {card.planning.route_score}/15" in lines

    def test_unseeded_placeholders(self, walk_log, config):
        scorecard = aggregate_scorecard(walk_log, config)
        report = export_report(scorecard, config)
        lines = report.splitlines()
        assert "seed: -" in lines
        assert "config: -" in lines
