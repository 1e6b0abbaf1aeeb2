from __future__ import annotations

import bisect
import dataclasses
import enum
import itertools
import json
import math
import re
import time
from collections import UserDict
from types import MappingProxyType
from unittest import mock

import numpy
import pytest
from hypothesis import given, settings, strategies as st

from errandlab import jsonio, scenario, sessionlog
from errandlab.config import DEFAULT_BAND_POINTS
from errandlab.jsonio import _json_native, _json_text
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
from errandlab.simulate import default_profile, simulate_session
from golden_logs import GOLDEN_SESSIONS, golden_bytes
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

    def test_int_enum_seq_and_scene_are_written_as_plain_ints(self, walk_log):
        # an event holds an int subclass as a plain int, so its line is the
        # one plain ints give
        seqs = enum.IntEnum("Seq", {f"S{e.seq}": e.seq for e in walk_log.events})
        scenes = enum.IntEnum("Scene", {f"S{e.scene}": e.scene for e in walk_log.events})
        events = tuple(dataclasses.replace(e, seq=seqs(e.seq), scene=scenes(e.scene))
                       for e in walk_log.events)
        assert all(type(e.seq) is type(e.scene) is int for e in events)
        log = dataclasses.replace(walk_log, events=events)
        assert serialize_log(log) == serialize_log(walk_log)

    def test_trailing_newline_required(self, walk_log):
        data = serialize_log(walk_log)
        assert data.endswith(b"\n")
        with pytest.raises(ParseError, match="truncated"):
            deserialize_log(data[:-1])

    def test_empty_input(self):
        with pytest.raises(ParseError, match="empty"):
            deserialize_log(b"")

    @pytest.mark.parametrize("data", [
        b"", b"\n", b" \t", " \t\r\x0b\x0c\x1c\x85\xa0 　\n".encode("utf-8")],
        ids=["nothing", "newline", "no-newline", "unicode-whitespace"])
    def test_a_log_of_whitespace_alone_is_empty(self, data):
        with pytest.raises(ParseError, match="^log is empty$"):
            deserialize_log(data)

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
# One value of each type the payload schema allows, and one strategy per
# allowed-types tuple.
_ONE = {str: "x", int: 1, bool: True, float: 1.5, type(None): None}
_VALUES = {(str,): _TEXT, (int,): st.integers(), (bool,): st.booleans(),
           (int, float): _NUMBER, (str, type(None)): st.none() | _TEXT}
# Every event kind, with its payload drawn from its schema: the empty
# payloads too, which serialize_log writes without the encoder.
_PAYLOADS = st.one_of(*(
    st.fixed_dictionaries({name: _VALUES[types]
                           for name, types in scenario._PAYLOAD_FIELDS.get(kind, {}).items()})
    .map(lambda payload, kind=kind: (kind, payload))
    for kind in EventKind))
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
        assert jsonio._canonical(value) == _canonical(value)

    # The payload encoder is built once and reused for every event.
    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(payload=st.dictionaries(_TEXT, st.none() | st.booleans() | _NUMBER | _TEXT
                                   | st.sampled_from([0.1, 1e-7, 1e16, -0.0, 5e-324]),
                                   max_size=5))
    def test_payload_encoder_equals_json_dumps(self, payload):
        assert "".join(jsonio._canonical_chunks(payload, 0)) == _canonical(payload)

    @pytest.mark.parametrize("wrap", [MappingProxyType, UserDict],
                             ids=["mappingproxy", "UserDict"])
    def test_a_mapping_payload_is_written_as_its_dict(self, wrap):
        log = simulate_session(default_profile(), 1)
        wrapped = log_from_events(
            [dataclasses.replace(event, payload=wrap(dict(event.payload))) for event in log.events],
            seed=log.seed, config_hash=log.config_hash)
        assert any(event.payload for event in log.events)
        data = serialize_log(wrapped)
        assert data == serialize_log(log)
        assert deserialize_log(data) == log == wrapped


def _events_per_line(lines):
    """The event lines read as they were before the empty-payload pattern: each
    line scanned whole as JSON (json.loads words a line that fails), its
    fields checked by name, then one SessionEvent and the order check.
    ``lines`` are the log's lines after the header."""
    scan_once = json.JSONDecoder().scan_once
    kinds = {kind.value: kind for kind in EventKind}
    fields = frozenset({"seq", "sim_time_ms", "scene", "kind", "payload"})
    events = []
    for number, line in enumerate(lines, start=2):
        try:
            record, end = scan_once(line, 0)
        except (StopIteration, ValueError, RecursionError):
            end = -1
        if end != len(line) or type(record) is not dict:
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ParseError(f"line {number}: invalid JSON ({exc.msg})") from exc
            except ValueError as exc:
                raise ParseError(f"line {number}: invalid JSON ({exc})") from exc
            except RecursionError as exc:
                raise ParseError(f"line {number}: JSON nested too deeply") from exc
            if not isinstance(record, dict):
                raise ParseError(f"line {number}: expected a JSON object")
            raise ParseError(f"line {number}: whitespace around the JSON object")
        if record.keys() != fields:
            raise ParseError(f"line {number}: event fields must be {sorted(fields)}")
        kind_name = record["kind"]
        kind = kinds.get(kind_name) if type(kind_name) is str else None
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
        if events:
            sessionlog._check_order(events[-1], event)
        events.append(event)
    return tuple(events)


def _assert_parses_as_per_line(lines):
    # the same events, their payloads' value types included, or the same
    # exception class and message
    header = serialize_log(SessionLog(seed=1, config_hash="c")).decode().rstrip("\n")
    data = "\n".join([header, *lines, ""]).encode("utf-8")
    try:
        expected = _events_per_line(lines)
    except (ParseError, MonotonicityViolation) as exc:
        with pytest.raises(type(exc)) as raised:
            deserialize_log(data)
        assert type(raised.value) is type(exc)
        assert str(raised.value) == str(exc)
    else:
        assert list(map(repr, deserialize_log(data).events)) == list(map(repr, expected))


# Text with the braces, brackets and quotes that end or nest a payload, and
# non-ASCII, which serialize_log writes as \u escapes.
_ENVELOPE_TEXT = _TEXT | st.text(
    st.sampled_from('{}[]":,\\ aé漢😀') | st.characters(exclude_categories=("Cs",)),
    max_size=6)
_ENVELOPE_VALUES = {**_VALUES, (str,): _ENVELOPE_TEXT,
                    (str, type(None)): st.none() | _ENVELOPE_TEXT}
_ENVELOPE_PAYLOADS = st.one_of(*(
    st.fixed_dictionaries({name: _ENVELOPE_VALUES[types]
                           for name, types in scenario._PAYLOAD_FIELDS.get(kind, {}).items()})
    .map(lambda payload, kind=kind: (kind, payload))
    for kind in EventKind))
# Spellings of each envelope field that JSON reads (or rejects) and that the
# empty-payload route does not build: leading zeros, signs, floats, integers
# past 18 digits and past the 4,300-digit limit, escaped and unknown kinds,
# nested, deep, duplicate-key, brace-holding and cut-off payloads, ones that
# hold the pattern's empty-payload text or the envelope's tail, and canonical
# ones of the wrong fields or value types.  Some the pattern takes and its
# lookups or the exact-type table refuse: an unknown kind, an empty payload of
# a kind with fields, a scene or a clock past its range, a value of a type its
# field does not take or a float past double range.
_ODD_INTEGERS = [
    "00", "05", "-0", "-1", "3.0", "1e3", "1E0", "true", "null", '"3"', "[]",
    "9" * 18, "1" + "0" * 17, "9" * 19, "1" + "0" * 18, "1" * 4301, str(2**53 + 1)]
_ODD_SPELLINGS = {
    "kind": [
        '"\\u0053ceneEntered"', '"Scene\\u0045ntered"', '"Teleported"',
        '"sceneentered"', '"NoteOpened "', '"NoteÖpened"', '"\\u00d6"', "3",
        '["NoteOpened"]', '{"a":1}', "null"],
    "payload": [
        '{"item":"a{b"}', '{"item":"}"}', '{"item":"{}"}', '{"a":{"b":1}}',
        '{"a":{}}', '{"item":"x","item":"y"}', '{"item":"é漢😀"}',
        '{"item":"\\u00e9"}', "{ }", '{"a":1,}', "[]", "null", '"{}"',
        '{"a":[[1],[]]}', '{"a":' + "[" * 1200 + "]" * 1200 + "}",
        '{"a":1' + "0" * 4300 + "}", '{"cook_time_s":-0}', '{"unit":07}',
        '{"cook_time_s":NaN,"item":"x"}', '{"cook_time_s":-Infinity}',
        '{"item":"x"', '{"item":"x\\"}', '{"a":}', '{"item":tru}', '{"a":-}',
        '{"a":[1,}', '{"a":{"payload":{},"b":1}}', '{"payload":{},"a":1}', "{}",
        # canonically spelled, each failing only a check after the scan
        '{"item":1}', '{"item":null}', '{"selected":1,"unit":3}',
        '{"prompt_index":true,"yes":true}', '{"cook_time_s":1e400,"item":"x"}',
        '{"cook_time_s":true,"item":"x"}', '{"extra":1,"item":"x"}',
        '{"item":"},\\"scene\\":3"}'],
    "scene": _ODD_INTEGERS,
    "seq": _ODD_INTEGERS,
    "sim_time_ms": _ODD_INTEGERS,
}


# A payload value of any JSON leaf type, which a field may not take: a float
# past double range too, which json writes as Infinity.
_OTHER_VALUES = _ENVELOPE_TEXT | st.integers() | st.booleans() | st.none() | st.floats()

# An event line as serialize_log writes it, which the pattern reads.
_NOTE_LINE = '{"kind":"NoteOpened","payload":{},"scene":3,"seq":4,"sim_time_ms":5}'


@st.composite
def _event_lines(draw):
    """Event lines in serialize_log's envelope, each field now and then
    spelled oddly, a payload value now and then of another JSON type, the
    keys now and then reordered, dropped, repeated or joined by one more, the
    separators spaced and the line padded."""
    lines = []
    for seq in range(draw(st.integers(1, 4))):
        kind, payload = draw(_ENVELOPE_PAYLOADS)
        if payload and draw(st.integers(0, 3)) == 0:
            payload[draw(st.sampled_from(sorted(payload)))] = draw(_OTHER_VALUES)
        fields = {
            "kind": json.dumps(kind.value),
            "payload": json.dumps(payload, sort_keys=True, separators=(",", ":"),
                                  ensure_ascii=draw(st.booleans())),
            "scene": str(draw(st.integers(1, 22))),
            "seq": str(seq),
            "sim_time_ms": str(draw(st.sampled_from([0, 1000 * seq, 2**53]))),
        }
        for name, odd in _ODD_SPELLINGS.items():
            if draw(st.integers(0, 7)) == 0:
                fields[name] = draw(st.sampled_from(odd))
        names = sorted(fields)
        keys = draw(st.sampled_from(["sorted"] * 6 + ["shuffled", "dropped",
                                                       "repeated", "rogue"]))
        if keys == "shuffled":
            names = draw(st.permutations(names))
        elif keys == "dropped":
            names.remove(draw(st.sampled_from(names)))
        elif keys == "repeated":
            names.append(draw(st.sampled_from(names)))
        elif keys == "rogue":
            fields["rogue"] = draw(st.sampled_from(["1", "{}", '{"seq":1}']))
            names.insert(draw(st.integers(0, len(names))), "rogue")
        comma, colon = draw(st.sampled_from(
            [(",", ":")] * 4 + [(", ", ": "), (",", " :"), (" ,", ":")]))
        line = "{" + comma.join(f'"{name}"{colon}{fields[name]}' for name in names) + "}"
        if draw(st.integers(0, 15)) == 0:
            line = (draw(st.sampled_from(["", " ", "\t"])) + line
                    + draw(st.sampled_from(["", " ", "\r"])))
        lines.append(line)
    return lines


class TestEnvelopeReading:
    """deserialize_log reads an event line that serialize_log writes with
    an empty payload by pattern and every other line by JSON; either way
    it parses as the per-line loop did, to the same events or to the same
    error."""

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(lines=_event_lines())
    def test_equals_the_per_line_loop(self, lines):
        _assert_parses_as_per_line(lines)

    @staticmethod
    def _lines(**spelled):
        # one line per kind, so that each payload spelling meets the fields
        # it names, with these fields spelled as given and the others as
        # serialize_log spells them
        lines = []
        for kind in EventKind:
            payload = {name: _ONE[types[0]]
                       for name, types in scenario._PAYLOAD_FIELDS.get(kind, {}).items()}
            fields = {"kind": json.dumps(kind.value), "payload": _canonical(payload),
                      "scene": "3", "seq": "4", "sim_time_ms": "5", **spelled}
            lines.append("{" + ",".join(f'"{key}":{fields[key]}'
                                        for key in sorted(fields)) + "}")
        return lines

    @pytest.mark.parametrize("name, odd", [
        (name, odd) for name, spellings in _ODD_SPELLINGS.items()
        for odd in spellings])
    def test_each_odd_spelling_equals_the_per_line_loop(self, name, odd):
        for line in self._lines(**{name: odd}):
            _assert_parses_as_per_line([line])

    # A key between the payload and the scene, whose object value ends in
    # "}" as the payload does.
    @pytest.mark.parametrize("value", ["1", "{}", '{"seq":1}'])
    def test_a_key_after_the_payload_equals_the_per_line_loop(self, value):
        for line in self._lines(rogue=value):
            _assert_parses_as_per_line([line])

    @pytest.mark.parametrize("lines", [
        [], [""], [_NOTE_LINE, "", _NOTE_LINE], [_NOTE_LINE, ""],
        [_NOTE_LINE + "\r"], [_NOTE_LINE + "\r", _NOTE_LINE]],
        ids=["header-only", "empty", "empty-middle", "empty-last", "cr", "cr-first"])
    def test_odd_bodies_equal_the_per_line_loop(self, lines):
        _assert_parses_as_per_line(lines)

    @staticmethod
    def _block_edges(lines):
        # the indexes in ``lines`` of the first and last line of each block
        # the body is read in, and of the lines at and beside each multiple
        # of the block size in the text
        header = serialize_log(SessionLog(seed=1, config_hash="c")).decode()
        text = header + "".join(line + "\n" for line in lines)
        starts = list(itertools.accumulate(
            (len(line) + 1 for line in lines), initial=len(header)))
        edges, start = set(), len(header)
        while start < len(text):
            end = text.find("\n", start + sessionlog._BLOCK_CHARS)
            end = len(text) - 1 if end < 0 else end
            edges |= {starts.index(start), starts.index(end + 1) - 1}
            start = end + 1
        for mark in range(sessionlog._BLOCK_CHARS, len(text), sessionlog._BLOCK_CHARS):
            at = bisect.bisect_right(starts, mark) - 1
            edges |= {at - 1, at, at + 1}
        return sorted(edges & set(range(len(lines))))

    @pytest.mark.parametrize("fault", ["kind", "scene", "cut"])
    def test_faults_at_block_edges_equal_the_per_line_loop(self, fault):
        # a real session's body, past three blocks, with one line spoiled at
        # each edge of a block: the same message names the same line
        lines = golden_bytes("default", 1).decode().split("\n")[1:-1]
        edges = self._block_edges(lines)
        assert len(edges) > 12 and len("\n".join(lines)) > 3 * sessionlog._BLOCK_CHARS
        for at in edges:
            line = lines[at]
            if fault == "kind":
                spoiled = re.sub(r'"kind":"[A-Za-z]+"', '"kind":"Teleported"', line)
            elif fault == "scene":
                spoiled = re.sub(r'"scene":[0-9]+,', '"scene":23,', line)
            else:
                spoiled = line[:len(line) // 2]
            assert spoiled != line
            _assert_parses_as_per_line([*lines[:at], spoiled, *lines[at + 1:]])

    def test_the_route_without_init_sets_every_field(self, monkeypatch):
        # the empty-payload lines are built without SessionEvent.__init__:
        # each event has every slot set, as __init__ sets them from its fields
        assert SessionEvent.__slots__ == ("seq", "sim_time_ms", "scene", "kind", "payload")
        fields = [(scene, kind) for kind in sorted(scenario._FIELDLESS_KINDS)
                  for scene in sorted(scenario.SCENES_BY_ID)]
        times = [0] + [1] * (len(fields) - 2) + [2**53]
        log = log_from_events(SessionEvent(seq, ms, scene, kind) for seq, (ms, (scene, kind))
                              in enumerate(zip(times, fields)))
        scanned = []
        original = sessionlog._read_line
        monkeypatch.setattr(sessionlog, "_read_line",
                            lambda number, line: scanned.append(number)
                            or original(number, line))
        parsed = deserialize_log(serialize_log(log))
        assert scanned == [1]
        assert len(parsed.events) == len(fields)
        for event in parsed.events:
            built = SessionEvent(event.seq, event.sim_time_ms, event.scene, event.kind)
            assert event == built
            assert repr(event) == repr(built)
            # the payload dict makes both unhashable, and alike: an unset
            # slot would raise AttributeError instead
            with pytest.raises(TypeError) as expected:
                hash(built)
            with pytest.raises(TypeError) as raised:
                hash(event)
            assert str(raised.value) == str(expected.value)

    @staticmethod
    def _every_exact_type_log():
        # each kind with each choice of the exact types its fields take
        events = []
        for kind in EventKind:
            schema = scenario._PAYLOAD_FIELDS.get(kind, {})
            for types in itertools.product(*schema.values()):
                payload = {name: _ONE[t] for name, t in zip(schema, types)}
                events.append(SessionEvent(len(events), 0, 3, kind, payload))
        return log_from_events(events)

    def test_canonical_lines_skip_the_line_scan(self, walk_log, monkeypatch):
        # only the header is scanned whole, and no event of a canonical log
        # goes through SessionEvent.__init__; a line outside the envelope
        # takes the full route, to the same event
        datas = [serialize_log(walk_log), serialize_log(self._every_exact_type_log()),
                 *(golden_bytes(*session) for session in GOLDEN_SESSIONS)]
        # the events, their payloads' value types included, as each line
        # read whole gives them
        expected = [_events_per_line(data.decode().split("\n")[1:-1]) for data in datas]
        scanned, built = [], []
        read_line, init = sessionlog._read_line, SessionEvent.__init__
        monkeypatch.setattr(sessionlog, "_read_line", lambda number, line: (
            scanned.append(number), read_line(number, line))[1])
        monkeypatch.setattr(SessionEvent, "__init__", lambda self, *args: (
            built.append(args[0]), init(self, *args))[1])
        for data, events in zip(datas, expected):
            scanned.clear()
            parsed = deserialize_log(data)
            assert list(map(repr, parsed.events)) == list(map(repr, events))
            assert scanned == [1]
            assert built == []
            # each payload is a dict of its own, as JSON would give it
            payloads = [id(event.payload) for event in parsed.events]
            assert len(set(payloads)) == len(payloads) > 1
        lines = serialize_log(walk_log).decode().split("\n")
        at = next(number for number, event in enumerate(walk_log.events, start=2)
                  if event.payload)
        record = json.loads(lines[at - 1])
        for respelled in (json.dumps(dict(reversed(record.items())), separators=(",", ":")),
                          _canonical(record).replace(',"scene"', ', "scene"')):
            assert respelled != lines[at - 1]
            scanned.clear()
            parsed = deserialize_log(
                "\n".join([*lines[:at - 1], respelled, *lines[at:]]).encode())
            assert parsed == walk_log
            assert scanned == [1, at]
            assert built == [walk_log.events[at - 2].seq]
            built.clear()


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


class _Side(str, enum.Enum):
    LEFT = "left"


# A payload value of each JSON leaf type, or of a subclass of int, str or
# float, which a field's exact type is not.
_LEAVES = (_TEXT | st.integers() | st.booleans() | st.none() | _FLOATS
           | st.sampled_from([_Level.LOW, _Side.LEFT, EventKind.NOTE_OPENED])
           | _FLOATS.map(numpy.float64))


def _fault(kind, payload):
    # validate_payload's message, or None if it passes
    try:
        scenario.validate_payload(kind, payload)
    except ValueError as exc:
        return str(exc)
    return None


class TestExactTypeTable:
    """One table of each kind's exact payload types, read from the schema,
    gives the schema walk's answer: in validate_payload, and on the route that
    deserialize_log builds a canonical payload line by."""

    def test_its_kinds_and_fields_are_the_schema_s(self):
        table, schema = scenario._PAYLOAD_TYPES, scenario._PAYLOAD_FIELDS
        assert set(table) == set(EventKind)
        assert {kind for kind, row in table.items() if row != {(): ()}} == set(schema)
        for kind, fields in schema.items():
            width = len(fields)
            assert len(table[kind]) == math.factorial(width) * math.prod(map(len, fields.values()))
            for key, floats in table[kind].items():
                names, types = key[:width], key[width:]
                assert sorted(names) == sorted(fields)
                assert all(t in fields[name] for name, t in zip(names, types))
                assert floats == tuple(name for name, t in zip(names, types) if t is float)

    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(data=st.data())
    def test_the_table_and_the_route_answer_as_the_walk(self, data):
        kind = data.draw(st.sampled_from(sorted(scenario._PAYLOAD_FIELDS)))
        payload = {name: data.draw(_LEAVES) for name in scenario._PAYLOAD_FIELDS[kind]}
        # a mapping that is not a dict is walked field by field
        walked = _fault(kind, MappingProxyType(payload))
        assert _fault(kind, payload) == walked
        if not all(type(value) in _ONE for value in payload.values()):
            return  # JSON has no subclass, so no line holds this payload
        header = serialize_log(SessionLog(seed=1, config_hash="c")).decode()
        line = _canonical({"kind": kind.value, "payload": payload, "scene": 3, "seq": 0,
                           "sim_time_ms": 0})
        with mock.patch.object(sessionlog, "_read_line", wraps=sessionlog._read_line) as read:
            try:
                [event] = deserialize_log((header + line + "\n").encode()).events
            except ParseError as exc:
                assert walked is not None and str(exc) == f"line 2: {walked}"
                event = None
        # the route reads the line whole only to refuse it or to word its fault
        assert (read.call_count == 1) == (walked is None)
        if event is not None:
            assert repr(event) == repr(SessionEvent(0, 0, 3, kind, json.loads(line)["payload"]))


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


class TestWalkKeys:
    """The walk every ``*_to_dict`` returns names each key as json does."""

    @pytest.mark.parametrize("key", [
        True, False, None, 7, 1.5, -0.0, 1e16, math.nan, -math.inf, numpy.float64(0.1),
        EventKind.NOTE_OPENED, _Level.LOW])
    def test_keys_equal_json_round_trip(self, key):
        value = {"outer": [{key: 1}], key: {key: None}}
        walked = _json_native(value)
        assert walked == json.loads(json.dumps(value))
        assert {type(k) for k in [*walked, *walked["outer"][0]]} == {str}

    def test_raises_type_error_where_json_does(self):
        with pytest.raises(TypeError) as expected:
            json.dumps({(1,): 0})
        with pytest.raises(TypeError) as raised:
            _json_native({(1,): 0})
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
