"""Every JSON input file (``--config``, ``--profile``, ``--domains``) goes
through ``jsonio.read_json`` and one builder.  A builder may refuse a
document only with a ValueError, which ``read_json`` turns into one
``error: <file>: <reason>`` line; any other exception would reach the user
as Python's own text."""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import io
import json
import re
from collections import UserDict
from types import MappingProxyType
from typing import Any, Callable, Iterator

import pytest
from hypothesis import given, settings, strategies as st

from errandlab import jsonio, scoring
from errandlab.cli import main
from errandlab.config import (DEFAULT_BAND_POINTS, DEFAULT_NPC_NEGATIVE_DEDUCTIONS,
                              DEFAULT_NPC_POSITIVE_MATRIX, ScoringConfig, config_from_dict,
                              config_hash, config_to_dict, default_config, load_config,
                              save_config)
from errandlab.jsonio import ConfigError, _quoted, read_json
from errandlab.scoring import aggregate_scorecard, scorecard_to_dict
from errandlab.scenario import EventKind, PmDelay, SessionEvent
from errandlab.sessionlog import (MalformedLog, ParseError, SchemaVersionMismatch,
                                  deserialize_log, export_report, log_from_events,
                                  serialize_log)
from errandlab.simulate import (ParticipantProfile, default_profile, load_profile,
                                profile_from_dict, profile_to_dict, save_profile,
                                simulate_cohort, simulate_session)
from errandlab.vrnq import (CSV_COLUMNS, DEFAULT_DOMAIN_MAPPING, ITEM_COUNT, DomainMapping,
                            VrnqError, VrnqResponseSet, read_cohort_csv)

_SCALARS = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)
# any document json.loads can return, NaN and the infinities included; a
# scalar at least half the time, as a mistyped field most often holds
_JSON = _SCALARS | st.recursive(
    _SCALARS,
    lambda children: (st.lists(children, max_size=4)
                      | st.dictionaries(st.text(max_size=4), children, max_size=4)),
    max_leaves=4)
_REPLACEMENTS = st.lists(_JSON, min_size=1, max_size=3)
_EXAMPLES = 40

_CONFIG = config_to_dict(default_config())
_PROFILE = profile_to_dict(default_profile())


def _documents(default: dict, document: Any, values: list) -> Iterator[Any]:
    """``document``, then, for each field of ``default`` in turn, ``default``
    with that field and the ones after it (in sorted order, wrapping round)
    replaced by ``values``: each value lands in every field."""
    yield document
    keys = sorted(default)
    for start in range(len(keys)):
        yield {**default, **{keys[(start + offset) % len(keys)]: value
                             for offset, value in enumerate(values)}}


def _builds_or_refuses(build: Callable[[Any], Any], documents: Iterator[Any]) -> None:
    for document in documents:
        try:
            build(document)
        except ValueError:  # ConfigError is one
            pass


@pytest.mark.parametrize("to_dict, record", [
    pytest.param(scorecard_to_dict, lambda: simulate_cohort([default_profile()], [7])[0][1],
                 id="scorecard"),
    pytest.param(config_to_dict, default_config, id="config"),
    pytest.param(profile_to_dict, default_profile, id="profile"),
])
def test_each_to_dict_is_what_its_json_reads_back_as(to_dict, record):
    # JSON-native: lists for tuples, a string for every key
    data = to_dict(record())
    assert data == json.loads(json.dumps(data))


def test_a_profile_keyed_by_pm_delay_saves_its_keys_as_json_names_them(tmp_path):
    # a str enum key is written as its value, "short", not "PmDelay.SHORT"
    profile = dataclasses.replace(default_profile(), pm_hit_prob={d: 0.5 for d in PmDelay})
    save_profile(profile, tmp_path / "profile.json")
    assert json.loads((tmp_path / "profile.json").read_text())["pm_hit_prob"] == {
        "short": 0.5, "medium": 0.5, "long": 0.5}
    assert load_profile(tmp_path / "profile.json") == profile


@pytest.mark.parametrize("wrap", [MappingProxyType, UserDict], ids=["mappingproxy", "UserDict"])
class TestMappingFields:
    """A table field may be any Mapping that passes validation; every JSON
    writer writes it as the dict it wraps."""

    def test_config_writes_as_the_default(self, wrap, tmp_path):
        config = ScoringConfig(
            band_points=wrap(dict(DEFAULT_BAND_POINTS)),
            npc_positive_matrix=wrap({key: wrap(dict(row)) for key, row
                                      in DEFAULT_NPC_POSITIVE_MATRIX.items()}),
            npc_negative_deductions=wrap(dict(DEFAULT_NPC_NEGATIVE_DEDUCTIONS)))
        config.validate()
        default = default_config()
        assert config_hash(config) == config_hash(default)
        assert config_to_dict(config) == config_to_dict(default)
        save_config(config, tmp_path / "config.json")
        assert load_config(tmp_path / "config.json") == default
        assert (serialize_log(simulate_session(default_profile(), 1, config))
                == serialize_log(simulate_session(default_profile(), 1, default)))

    def test_profile_writes_as_the_default(self, wrap, tmp_path):
        default = default_profile()
        profile = dataclasses.replace(default, pm_hit_prob=wrap(dict(default.pm_hit_prob)))
        assert profile_to_dict(profile) == profile_to_dict(default)
        save_profile(profile, tmp_path / "profile.json")
        assert load_profile(tmp_path / "profile.json") == default


class TestBuilders:
    """Each builder, given any document, returns or raises a ValueError."""

    @settings(max_examples=_EXAMPLES)
    @given(document=_JSON, values=_REPLACEMENTS)
    def test_config(self, document, values):
        _builds_or_refuses(config_from_dict, _documents(_CONFIG, document, values))

    @settings(max_examples=_EXAMPLES)
    @given(document=_JSON, values=_REPLACEMENTS)
    def test_profile(self, document, values):
        _builds_or_refuses(profile_from_dict, _documents(_PROFILE, document, values))

    @settings(max_examples=_EXAMPLES)
    @given(document=_JSON, values=_REPLACEMENTS)
    def test_domains(self, document, values):
        _builds_or_refuses(DomainMapping, _documents(DEFAULT_DOMAIN_MAPPING, document, values))


class TestReadJson:
    def test_returns_what_build_makes_of_the_document(self, tmp_path):
        path = tmp_path / "doc.json"
        path.write_text('{"a": [1, 2]}')
        assert read_json(path, lambda document: document["a"]) == [1, 2]

    def test_a_value_error_from_build_names_the_file(self, tmp_path):
        path = tmp_path / "doc.json"
        path.write_text("[]")

        def refuse(document):
            raise ValueError("not an object")

        with pytest.raises(ConfigError, match=f"^{re.escape(str(path))}: not an object$"):
            read_json(path, refuse)

    def test_any_other_error_from_build_propagates(self, tmp_path):
        path = tmp_path / "doc.json"
        path.write_text("[]")
        with pytest.raises(KeyError):
            read_json(path, lambda document: {}["missing"])

    def test_a_config_error_is_a_value_error(self):
        assert issubclass(ConfigError, ValueError)


@pytest.mark.parametrize("value", ["null", "5", '"abc"', '{"a": 1, "b": 2, "c": 3}'])
def test_prompt_yield_probs_not_a_list_is_one_error_line(tmp_path, capsys, value):
    path = tmp_path / "p.json"
    path.write_text(f'{{"prompt_yield_probs": {value}}}')
    argv = ["simulate", "--seed", "1", "--profile", str(path), "--out", str(tmp_path / "run")]
    assert main(argv) == 2
    captured = capsys.readouterr()
    [line] = captured.err.splitlines()
    assert line.startswith(f"error: {path}: prompt_yield_probs ")
    assert captured.out == ""


class TestQuotedValue:
    def test_a_value_that_fits_is_its_repr(self):
        for value in ("x" * 58, 21, True, None, [1, "a"], 0.5):
            assert _quoted(value) == repr(value)

    def test_a_longer_value_is_cut_and_its_length_noted(self):
        value = "x" * 1000
        assert _quoted(value) == f"{repr(value)[:60]}... (1002 characters)"



def _int_enum(value: int) -> int:
    """``value`` as the one member of a new IntEnum, an int subclass."""
    return enum.IntEnum("Count", {"MEMBER": value}).MEMBER


# An integer field of each input record: what sets it to a value, a value it
# takes, and the message that refuses True there.
_CONFIG_INTEGERS = [
    pytest.param(lambda v: {"visual_targets_per_side": v}, 6,
                 "visual_targets_per_side must be an integer", id="stimulus-count"),
    pytest.param(lambda v: {"band_points": {**DEFAULT_BAND_POINTS, "OnTime": v}}, 4,
                 "band_points values must be integers, not True", id="band-points"),
    pytest.param(lambda v: {"normative_route_mean_s": v}, 45,
                 "normative_route_mean_s must be a finite number", id="route-mean"),
]
_PROFILE_INTEGERS = [
    pytest.param(lambda v: {"planning_extra_units": v}, 3,
                 "planning_extra_units must be a non-negative integer", id="planning-units"),
    pytest.param(lambda v: {"notes_use_prob": v}, 1,
                 "probability notes_use_prob = True is not a number in [0, 1]",
                 id="probability"),
    pytest.param(lambda v: {"latency_mean_ms": v}, 700,
                 "latency_mean_ms must be a non-negative finite number", id="latency"),
]
_OTHER_INTEGERS = [
    pytest.param(lambda v: SessionEvent(v, 0, 1, EventKind.SCENE_ENTERED), 1,
                 TypeError, "seq must be an integer, not bool", id="event-seq"),
    pytest.param(lambda v: VrnqResponseSet("p1", (v,) + (3,) * 19), 5,
                 VrnqError, "p1: item 1 must be an integer", id="vrnq-rating"),
    pytest.param(lambda v: DomainMapping({**DEFAULT_DOMAIN_MAPPING, "VRISE": [16, 17, 18, 19, v]}),
                 20, ConfigError, "domain VRISE has invalid item True", id="domain-item"),
]

# An integer past the 4,300 digits Python writes one in by default, which a
# fault quotes by its size.
_HUGE = 10**5000
_HUGE_TEXT = f"an integer of {_HUGE.bit_length()} bits"


def _score_with(kind: EventKind, name: str, value: Any = _HUGE, times: int = 1) -> None:
    """Score a simulated log whose first ``times`` ``kind`` events hold
    ``value`` (by default ``_HUGE``) as ``name``."""
    events = list(simulate_session(default_profile(), 1).events)
    for at in [i for i, event in enumerate(events) if event.kind is kind][:times]:
        old = events[at]
        events[at] = SessionEvent(old.seq, old.sim_time_ms, old.scene, kind,
                                  {**old.payload, name: value})
    aggregate_scorecard(log_from_events(events), default_config())


_ENGINE_REFUSAL = "log rejected by the scenario engine: "
# Each message that quotes a refused integer: (the call, its error, its message).
_HUGE_INTEGERS = [
    pytest.param(lambda: VrnqResponseSet("p1", (_HUGE,) + (3,) * 19), VrnqError,
                 f"p1: item 1 value {_HUGE_TEXT} outside 1..7", id="vrnq-rating"),
    pytest.param(lambda: DomainMapping({**DEFAULT_DOMAIN_MAPPING,
                                        "VRISE": [16, 17, 18, 19, _HUGE]}),
                 ConfigError, f"domain VRISE has invalid item {_HUGE_TEXT}", id="domain-item"),
    pytest.param(lambda: dataclasses.replace(
                     default_config(), band_points={**DEFAULT_BAND_POINTS, "OnTime": -_HUGE}
                 ).validate(), ConfigError,
                 f"band_points values must be at least 0, not a negative integer of "
                 f"{_HUGE.bit_length()} bits", id="band-points"),
    pytest.param(lambda: SessionEvent(0, 0, _HUGE, EventKind.SCENE_ENTERED), ValueError,
                 f"unknown scene id {_HUGE_TEXT}", id="event-scene"),
    pytest.param(lambda: _score_with(EventKind.ROUTE_UNIT_TOGGLED, "unit"), MalformedLog,
                 f"{_ENGINE_REFUSAL}street unit {_HUGE_TEXT} out of range", id="route-unit"),
    pytest.param(lambda: _score_with(EventKind.NOTES_INTENT_ANSWERED, "prompt_index"),
                 MalformedLog, f"{_ENGINE_REFUSAL}notes-intent prompt {_HUGE_TEXT} "
                 "out of order (expected 1)", id="notes-intent-prompt"),
    pytest.param(lambda: _score_with(EventKind.NPC_PROMPT_ANSWERED, "prompt_index"),
                 MalformedLog, f"{_ENGINE_REFUSAL}conversation prompt {_HUGE_TEXT} "
                 "out of order (expected 1)", id="conversation-prompt"),
    pytest.param(lambda: profile_from_dict({_HUGE: 1}), ConfigError,
                 "unknown profile fields: a list that holds an integer too long to write",
                 id="profile-key"),
]


class TestIntegerRule:
    """An int subclass such as an IntEnum member is an integer wherever a
    plain int is, and a bool is one nowhere: each record reads it as its
    plain-int twin."""

    @pytest.mark.parametrize("fields, value, refusal", _CONFIG_INTEGERS)
    def test_config(self, fields, value, refusal, tmp_path):
        config = dataclasses.replace(default_config(), **fields(_int_enum(value)))
        twin = dataclasses.replace(default_config(), **fields(value))
        config.validate()
        assert config_hash(config) == config_hash(twin)
        save_config(config, tmp_path / "enum.json")
        save_config(twin, tmp_path / "int.json")
        assert (tmp_path / "enum.json").read_bytes() == (tmp_path / "int.json").read_bytes()
        log, twin_log = (simulate_session(default_profile(), 1, c) for c in (config, twin))
        assert serialize_log(log) == serialize_log(twin_log)
        assert (export_report(aggregate_scorecard(log, config), config)
                == export_report(aggregate_scorecard(twin_log, twin), twin))
        with pytest.raises(ConfigError, match=f"^{re.escape(refusal)}$"):
            dataclasses.replace(default_config(), **fields(True)).validate()

    @pytest.mark.parametrize("fields, value, refusal", _PROFILE_INTEGERS)
    def test_profile(self, fields, value, refusal, tmp_path):
        profile = dataclasses.replace(default_profile(), **fields(_int_enum(value)))
        twin = dataclasses.replace(default_profile(), **fields(value))
        save_profile(profile, tmp_path / "enum.json")
        save_profile(twin, tmp_path / "int.json")
        assert (tmp_path / "enum.json").read_bytes() == (tmp_path / "int.json").read_bytes()
        assert (serialize_log(simulate_session(profile, 1))
                == serialize_log(simulate_session(twin, 1)))
        with pytest.raises(ValueError, match=f"^{re.escape(refusal)}$"):
            dataclasses.replace(default_profile(), **fields(True))

    @pytest.mark.parametrize("build, value, error, refusal", _OTHER_INTEGERS)
    def test_event_rating_and_domain_item(self, build, value, error, refusal):
        assert build(_int_enum(value)) == build(value)
        with pytest.raises(error, match=f"^{re.escape(refusal)}$"):
            build(True)

    @pytest.mark.parametrize("call, error, refusal", _HUGE_INTEGERS)
    def test_a_huge_integer_is_quoted_by_its_size(self, call, error, refusal):
        with pytest.raises(error) as caught:
            call()
        assert str(caught.value) == refusal


# A value read from a log or a cohort CSV, far longer than any line a
# terminal shows, and its quote in a fault.
_LONG = "v" * 100_000
_LONG_TEXT = _quoted(_LONG)


def _read_with(line: int, name: str, value: Any) -> None:
    """Read a simulated log whose line ``line`` holds ``value`` as ``name``."""
    lines = serialize_log(simulate_session(default_profile(), 1)).split(b"\n")
    lines[line - 1] = json.dumps({**json.loads(lines[line - 1]), name: value}).encode()
    deserialize_log(b"\n".join(lines))


def _read_cohort_with_id_twice(participant_id: str) -> None:
    row = participant_id + ",4" * ITEM_COUNT + "\n"
    read_cohort_csv(io.StringIO(",".join(CSV_COLUMNS) + "\n" + row + row))


# Each fault that quotes a value read from a file: (the call, its error, its message).
_LONG_VALUES = [
    pytest.param(lambda: _read_with(3, "kind", _LONG), ParseError,
                 f"line 3: unknown event kind {_LONG_TEXT}", id="event-kind"),
    pytest.param(lambda: _read_with(1, "version", _LONG), SchemaVersionMismatch,
                 f"schema version {_LONG_TEXT} unsupported (expected 1)", id="schema-version"),
    pytest.param(lambda: _score_with(EventKind.NPC_ITEM_CHOSEN, "choice", _LONG), MalformedLog,
                 f"{_ENGINE_REFUSAL}unknown board choice {_LONG_TEXT}", id="board-choice"),
    pytest.param(lambda: _score_with(EventKind.COOKING_ITEM_PLACED, "item", _LONG), MalformedLog,
                 f"{_ENGINE_REFUSAL}unknown cooking item {_LONG_TEXT}", id="cooking-item"),
    pytest.param(lambda: _score_with(EventKind.ITEM_SELECTED, "item", _LONG, times=2),
                 MalformedLog, f"{_ENGINE_REFUSAL}item {_LONG_TEXT} already selected",
                 id="list-board-item"),
    pytest.param(lambda: _score_with(EventKind.POSTER_SPOTTED, "stimulus_id", _LONG, times=2),
                 MalformedLog, f"{_ENGINE_REFUSAL}stimulus {_LONG_TEXT} already spotted",
                 id="poster"),
    pytest.param(lambda: _score_with(EventKind.SOUND_TRIGGERED, "stimulus_id", _LONG, times=2),
                 MalformedLog, f"{_ENGINE_REFUSAL}stimulus {_LONG_TEXT} already recorded",
                 id="sound"),
    pytest.param(lambda: _score_with(EventKind.SHOPPING_COLLECTED, "item", _LONG, times=2),
                 MalformedLog, f"{_ENGINE_REFUSAL}item {_LONG_TEXT} already in the basket",
                 id="basket-item"),
    pytest.param(lambda: _score_with(EventKind.ITEM_STOWED, "item", _LONG, times=2),
                 MalformedLog, f"{_ENGINE_REFUSAL}item {_LONG_TEXT} already put away",
                 id="stowed-item"),
    pytest.param(lambda: _score_with(EventKind.ITEM_SELECTED, "item", _LONG), MalformedLog,
                 f"log content failed scoring validation: item {_LONG_TEXT} "
                 "is not in the recognition catalog", id="recognition-item"),
    pytest.param(lambda: scoring._score_collection(
                     [_LONG, _LONG], dataclasses.replace(default_config(),
                                                         collection_targets=(_LONG,))),
                 MalformedLog,
                 f"log content failed scoring validation: target {_LONG_TEXT} grabbed twice",
                 id="collection-target"),
    pytest.param(lambda: _read_cohort_with_id_twice(_LONG), VrnqError,
                 f"line 3: duplicate participant {_LONG_TEXT}", id="vrnq-participant"),
]


@pytest.mark.parametrize("call, error, refusal", _LONG_VALUES)
def test_a_long_value_read_from_a_file_is_quoted_short(call, error, refusal):
    with pytest.raises(error) as caught:
        call()
    assert str(caught.value) == refusal
    assert len(refusal) < 200


def _oversized_domains() -> dict:
    mapping = {domain: list(items) for domain, items in DEFAULT_DOMAIN_MAPPING.items()}
    mapping["VRISE"][0] = "z" * 70_000
    return mapping


# (option, document, the start of the reason): a refused value far longer
# than any line a terminal shows
_OVERSIZED = [
    pytest.param("--profile", {"recognition_target_prob": "x" * 100_000}, "probability ",
                 id="profile-probability"),
    pytest.param("--profile", {"k" * 120_000: 1}, "unknown profile fields: ",
                 id="profile-unknown-field"),
    pytest.param("--config", {"band_points": {**_CONFIG["band_points"], "OnTime": "y" * 50_000}},
                 "band_points values ", id="config-band-point"),
    pytest.param("--domains", _oversized_domains(), "domain VRISE has invalid item ",
                 id="domains-item"),
]


@pytest.mark.parametrize("option, document, reason", _OVERSIZED)
def test_an_oversized_value_is_one_short_error_line(tmp_path, capsys, option, document,
                                                    reason):
    path = tmp_path / "f.json"
    path.write_text(json.dumps(document))
    if option == "--domains":
        responses = tmp_path / "c.csv"
        responses.write_text(",".join(CSV_COLUMNS) + "\np1" + ",4" * ITEM_COUNT + "\n")
        argv = ["vrnq", "score", "--responses", str(responses), option, str(path)]
    else:
        argv = ["simulate", "--seed", "1", option, str(path), "--out", str(tmp_path / "run")]
    assert main(argv) == 2
    captured = capsys.readouterr()
    [line] = captured.err.splitlines()
    assert line.startswith(f"error: {path}: {reason}")
    assert len(line) - len(str(path)) < 200
    assert re.search(r"\.\.\. \(\d+ characters\)", line)
    assert captured.out == ""


# (builder, document, its fault): a ConfigError is a ValueError
_RECORD_FAULTS = [
    pytest.param(config_from_dict, [1], "config document must be a JSON object",
                 id="config-array"),
    pytest.param(config_from_dict, {"bogus": 1}, "unknown config keys: ['bogus']",
                 id="config-unknown-key"),
    pytest.param(profile_from_dict, "x", "profile document must be a JSON object",
                 id="profile-string"),
    pytest.param(profile_from_dict, {"bogus": 1}, "unknown profile fields: ['bogus']",
                 id="profile-unknown-field"),
]


class TestRecordReader:
    """The config and the profile are read by the same record rules."""

    @pytest.mark.parametrize("build, document, message", _RECORD_FAULTS)
    def test_each_fault_is_its_own_message(self, build, document, message):
        with pytest.raises(ValueError) as excinfo:
            build(document)
        assert str(excinfo.value) == message

    @pytest.mark.parametrize("build, cls, names", [
        (config_from_dict, ScoringConfig,
         ["recognition_targets", "recognition_qualitative", "recognition_quantitative",
          "recognition_false", "collection_targets", "collection_distractors"]),
        (profile_from_dict, ParticipantProfile, ["prompt_yield_probs"]),
    ], ids=["config", "profile"])
    def test_an_array_becomes_a_tuple_in_each_tuple_field(self, build, cls, names):
        defaults = {f.name: f.default for f in dataclasses.fields(cls)}
        assert [name for name, value in defaults.items() if isinstance(value, tuple)] == names
        for name in names:
            value = getattr(build({name: list(defaults[name])}), name)
            assert type(value) is tuple and value == defaults[name]


class TestCanonicalJson:
    @pytest.mark.parametrize("config", [
        default_config(),
        config_from_dict({"session_target_s": 1800.5, "visual_targets_per_side": 7,
                          "recognition_false": [f"other_{i}" for i in range(10)]}),
    ], ids=["default", "edited"])
    def test_config_hash_is_the_sha256_of_the_log_encoding(self, config):
        fields = {f.name: getattr(config, f.name) for f in dataclasses.fields(config)}
        text = jsonio._canonical(fields)
        assert config_hash(config) == hashlib.sha256(text.encode("utf-8")).hexdigest()

    def test_a_value_json_cannot_write_raises_json_dumps_type_error(self):
        with pytest.raises(TypeError) as expected:
            json.dumps(object())
        with pytest.raises(TypeError) as canonical:
            jsonio._canonical({"k": object()})
        config = dataclasses.replace(default_config(), normative_route_mean_s=object())
        with pytest.raises(TypeError) as hashed:
            config_hash(config)
        assert str(canonical.value) == str(hashed.value) == str(expected.value)
