"""The task scoring rules, and what the scoring API rejects.

The per-task scorers are private: each rule is tested on the scorer itself,
and each fact the engine owns (a repeat, an unknown name, a value out of
range) on a parsed log through :func:`aggregate_scorecard`.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import math

import pytest
from hypothesis import given, strategies as st

from errandlab.bayes import EvidenceBand, classify_evidence, evidence_stars
from errandlab.scoring import (
    _COOKING_EDGES_CS,
    _classify_cooking_time,
    _planning_time_modifier,
    _score_auditory_attention,
    _score_collection,
    _score_cooking,
    _score_npc_pm_negative,
    _score_npc_pm_positive,
    _score_planning,
    _score_prompt_cascade,
    _score_recognition,
    _score_visual_attention,
    aggregate_scorecard,
    scorecard_to_dict,
)
from errandlab.config import (
    BAND_NAMES,
    DEFAULT_BAND_POINTS,
    DEFAULT_NPC_NEGATIVE_DEDUCTIONS,
    DEFAULT_NPC_POSITIVE_MATRIX,
    ConfigError,
    ScoringConfig,
    config_from_dict,
    default_config,
)
from errandlab.scenario import COOKING_ITEMS, EventKind, SessionEvent
from errandlab.sessionlog import (
    MalformedLog,
    deserialize_log,
    export_report,
    log_from_events,
    serialize_log,
)
from errandlab.simulate import (
    _COOKING_MIDPOINT_S,
    default_profile,
    null_profile,
    perfect_profile,
    simulate_session,
)
from walks import minimal_walk


@pytest.fixture(scope="module")
def logs(config):
    """Header line and event records of the seed-1 perfect and null sessions."""
    out = {}
    for name, profile in (("perfect", perfect_profile()), ("null", null_profile())):
        data = serialize_log(simulate_session(profile, 1, config))
        header, *lines = data.decode("utf-8").splitlines()
        out[name] = header, [json.loads(line) for line in lines]
    return out


def _index(records, scene, kind, last=False):
    found = [i for i, r in enumerate(records) if (r["scene"], r["kind"]) == (scene, kind)]
    return found[-1] if last else found[0]


def _engine_rejection(log, config, edit):
    """The engine's message when the log, with ``edit`` applied, is scored."""
    header, records = log
    records = copy.deepcopy(records)
    edit(records)
    lines = [header, *(json.dumps(dict(record, seq=seq), sort_keys=True,
                                  separators=(",", ":"))
                       for seq, record in enumerate(records))]
    data = ("\n".join(lines) + "\n").encode("utf-8")
    with pytest.raises(MalformedLog) as info:
        aggregate_scorecard(deserialize_log(data), config)
    prefix, message = str(info.value).split(": ", 1)
    assert prefix == "log rejected by the scenario engine"
    return message


def _repeat(scene, kind):
    def edit(records):
        at = _index(records, scene, kind)
        records.insert(at + 1, records[at])
    return edit


def _set(scene, kind, **payload):
    def edit(records):
        records[_index(records, scene, kind)]["payload"].update(payload)
    return edit


def _add_after(scene, kind, new_kind, payload):
    """Insert a ``new_kind`` event right after the last ``kind`` of ``scene``."""
    def edit(records):
        at = _index(records, scene, kind, last=True)
        records.insert(at + 1, dict(records[at], kind=new_kind, payload=payload))
    return edit


class TestRecognition:
    def test_all_targets(self, config):
        score = _score_recognition(config.recognition_targets, config)
        assert score.points == 20
        assert (score.targets, score.qualitative,
                score.quantitative, score.false_items) == (10, 0, 0, 0)

    def test_empty(self, config):
        assert _score_recognition([], config).points == 0

    def test_mixed_selection(self, config):
        selection = (list(config.recognition_targets[:7])
                     + list(config.recognition_qualitative[:2])
                     + [config.recognition_false[0]])
        score = _score_recognition(selection, config)
        assert score.points == 16
        assert (score.targets, score.qualitative,
                score.quantitative, score.false_items) == (7, 2, 0, 1)

    def test_near_miss_categories_are_worth_one(self, config):
        selection = (list(config.recognition_qualitative[:5])
                     + list(config.recognition_quantitative[:5]))
        score = _score_recognition(selection, config)
        assert score.points == 10
        assert (score.qualitative, score.quantitative) == (5, 5)

    def test_false_items_score_nothing(self, config):
        assert _score_recognition(config.recognition_false, config).points == 0

    def test_unknown_item(self, config):
        with pytest.raises(MalformedLog, match="not_stocked"):
            _score_recognition(["not_stocked"], config)

    def test_duplicate_item(self, logs, config):
        message = _engine_rejection(logs["perfect"], config,
                                    _repeat(3, "ItemSelected"))
        assert message.endswith("already selected")

    def test_eleven_items_rejected(self, logs, config):
        eleventh = _add_after(3, "ItemSelected", "ItemSelected",
                              {"item": config.recognition_false[0]})
        assert (_engine_rejection(logs["perfect"], config, eleventh)
                == "the list board holds 10 items")

    @given(st.data())
    def test_points_decompose_and_stay_in_range(self, config, data):
        catalog = (list(config.recognition_targets)
                   + list(config.recognition_qualitative)
                   + list(config.recognition_quantitative)
                   + list(config.recognition_false))
        selection = data.draw(st.lists(st.sampled_from(catalog), unique=True,
                                       max_size=10))
        score = _score_recognition(selection, config)
        assert score.points == 2 * score.targets + score.qualitative + score.quantitative
        assert 0 <= score.points <= 20
        assert (score.targets + score.qualitative + score.quantitative
                + score.false_items) == len(selection)


class TestPlanning:
    def test_route_with_redundant_units(self, config):
        score = _score_planning(range(1, 19), 30.0, config)
        assert score.route_score == 12
        assert score.time_modifier == 0
        assert score.total == 12

    def test_route_exact_dozen(self, config):
        assert _score_planning(range(1, 13), 30.0, config).route_score == 12

    def test_route_peak_is_fifteen(self, config):
        score = _score_planning(range(1, 16), 30.0, config)
        assert score.route_score == 15
        assert score.total == 15

    def test_route_count_only_not_identity(self, config):
        low = _score_planning(range(1, 13), 30.0, config)
        high = _score_planning(range(12, 24), 30.0, config)
        assert low.route_score == high.route_score == 12

    def test_every_extra_unit_beyond_fifteen_costs_one(self, config):
        scores = [_score_planning(range(1, n + 1), 30.0, config).route_score
                  for n in range(15, 24)]
        assert scores == list(range(15, 6, -1))

    def test_fast_completion_bonus(self, config):
        score = _score_planning(range(1, 16), 6.0, config)
        assert score.time_modifier == 2
        assert score.time_z == pytest.approx(-2.4)
        assert score.total == 17

    @pytest.mark.parametrize("seconds,expected", [
        (5.0, 2), (10.0, 2), (10.01, 1), (20.0, 1), (20.01, 0), (30.0, 0),
        (39.99, 0), (40.0, -1), (49.99, -1), (50.0, -2), (90.0, -2),
    ])
    def test_time_modifier_boundaries(self, seconds, expected):
        assert _planning_time_modifier((seconds - 30.0) / 10.0) == expected

    def test_unit_out_of_range(self, logs, config):
        for unit in (0, 24):
            assert (_engine_rejection(logs["perfect"], config,
                                      _set(3, "RouteUnitToggled", unit=unit))
                    == f"street unit {unit} out of range")

    def test_duplicate_unit(self, logs, config):
        message = _engine_rejection(logs["perfect"], config,
                                    _repeat(3, "RouteUnitToggled"))
        assert message.endswith("already selected")

    def test_empty_route(self, config):
        score = _score_planning([], 30.0, config)
        assert score.route_score == 0
        assert score.units_selected == 0

    def test_a_unit_counts_if_its_last_toggle_selected_it(self, config):
        # The simulator never deselects, so a hand-built walk selects 17
        # units in scene 3, deselects three of them and selects one again.
        toggles = [(unit, True) for unit in range(1, 18)]
        toggles += [(17, False), (4, False), (16, False), (4, True)]
        stream = [(e.scene, e.kind, e.payload) for e in minimal_walk()]
        at = stream.index((3, EventKind.ROUTE_SUBMITTED, {}))
        stream[at:at] = [(3, EventKind.ROUTE_UNIT_TOGGLED,
                          {"unit": unit, "selected": selected})
                         for unit, selected in toggles]
        log = log_from_events(
            SessionEvent(seq=i, sim_time_ms=1_000 * i, scene=scene, kind=kind,
                         payload=payload)
            for i, (scene, kind, payload) in enumerate(stream))
        planning = aggregate_scorecard(log, config).planning
        assert planning.units_selected == 15
        assert planning.route_score == 15
        assert planning.completion_time_s == len(toggles)


class TestCooking:
    # printed timing-band edges, one probe either side of each boundary
    OMELETTE = [(13.99, "VeryEarly"), (14.0, "Early"), (15.99, "Early"),
                (16.0, "SlightlyEarly"), (17.99, "SlightlyEarly"),
                (18.0, "OnTime"), (22.0, "OnTime"), (22.01, "SlightlyLate"),
                (23.99, "SlightlyLate"), (24.0, "Late"), (26.0, "Late"),
                (26.01, "VeryLate")]
    SAUSAGES = [(17.99, "VeryEarly"), (18.0, "Early"), (19.99, "Early"),
                (20.0, "SlightlyEarly"), (21.99, "SlightlyEarly"),
                (22.0, "OnTime"), (26.0, "OnTime"), (26.01, "SlightlyLate"),
                (27.99, "SlightlyLate"), (28.0, "Late"), (30.0, "Late"),
                (30.01, "VeryLate")]
    KETTLE = [(10.99, "VeryEarly"), (11.0, "Early"), (12.99, "Early"),
              (13.0, "SlightlyEarly"), (14.99, "SlightlyEarly"),
              (15.0, "OnTime"), (17.0, "OnTime"), (17.01, "SlightlyLate"),
              (18.99, "SlightlyLate"), (19.0, "Late"), (21.0, "Late"),
              (21.01, "VeryLate")]

    @pytest.mark.parametrize("item,cases", [
        ("omelette", OMELETTE), ("sausages", SAUSAGES), ("kettle", KETTLE)])
    def test_band_edges(self, item, cases):
        for seconds, band in cases:
            assert _classify_cooking_time(item, seconds) == band, (item, seconds)

    def test_half_up_rounding_to_centiseconds(self):
        # 13.995 rounds half-up to 14.00 -> Early, not VeryEarly
        assert _classify_cooking_time("omelette", 13.995) == "Early"
        assert _classify_cooking_time("omelette", 13.9949) == "VeryEarly"

    def test_unknown_item(self, logs, config):
        assert (_engine_rejection(logs["perfect"], config,
                                  _set(6, "CookingItemPlaced", item="toast"))
                == "unknown cooking item 'toast'")

    def test_negative_time(self, logs, config):
        assert (_engine_rejection(logs["perfect"], config,
                                  _set(6, "CookingItemPlaced", cook_time_s=-0.5))
                == "cook_time_s must be non-negative")

    def test_scoring_sums_band_points(self, config):
        items, total = _score_cooking(
            {"omelette": 19.0, "sausages": 27.0, "kettle": 16.5}, config)
        assert items["omelette"].band == "OnTime"
        assert items["omelette"].points == 3
        assert items["sausages"].band == "SlightlyLate"
        assert items["sausages"].points == 2
        assert items["kettle"].band == "OnTime"
        assert total == 8

    def test_missing_items_are_very_late(self, config):
        items, total = _score_cooking({}, config)
        assert {s.band for s in items.values()} == {"VeryLate"}
        assert total == 0

    def test_unknown_cooked_item(self, logs, config):
        # a fourth placement, after all three known items
        toast = _add_after(6, "CookingItemPlaced", "CookingItemPlaced",
                           {"item": "toast", "cook_time_s": 10.0})
        assert (_engine_rejection(logs["perfect"], config, toast)
                == "unknown cooking item 'toast'")

    @given(st.floats(min_value=0.0, max_value=120.0,
                     allow_nan=False, allow_infinity=False))
    def test_every_time_lands_in_exactly_one_band(self, seconds):
        for item in ("omelette", "sausages", "kettle"):
            band = _classify_cooking_time(item, seconds)
            assert band in {"VeryEarly", "Early", "SlightlyEarly", "OnTime",
                            "SlightlyLate", "Late", "VeryLate"}

    def test_band_order_is_monotone_in_time(self):
        order = ["VeryEarly", "Early", "SlightlyEarly", "OnTime",
                 "SlightlyLate", "Late", "VeryLate"]
        for item in ("omelette", "sausages", "kettle"):
            ranks = [order.index(_classify_cooking_time(item, t / 100.0))
                     for t in range(0, 6001)]
            assert ranks == sorted(ranks), item


# (rule, edge, what it gives just below the edge, at it, and just above it):
# bands close their lower edge, stars are strict, and the planning modifier
# rewards z <= -1 and z <= -2 and penalises z >= 1 and z >= 2
_EDGES = [
    (classify_evidence, 1.0, EvidenceBand.NONE, EvidenceBand.NONE, EvidenceBand.ANECDOTAL),
    (classify_evidence, 3.0, EvidenceBand.ANECDOTAL, EvidenceBand.MODERATE,
     EvidenceBand.MODERATE),
    (classify_evidence, 10.0, EvidenceBand.MODERATE, EvidenceBand.STRONG, EvidenceBand.STRONG),
    (classify_evidence, 30.0, EvidenceBand.STRONG, EvidenceBand.VERY_STRONG,
     EvidenceBand.VERY_STRONG),
    (classify_evidence, 100.0, EvidenceBand.VERY_STRONG, EvidenceBand.EXTREME,
     EvidenceBand.EXTREME),
    (evidence_stars, 10.0, "", "", "*"),
    (evidence_stars, 30.0, "*", "*", "**"),
    (evidence_stars, 100.0, "**", "**", "***"),
    (_planning_time_modifier, -2.0, 2, 2, 1),
    (_planning_time_modifier, -1.0, 1, 1, 0),
    (_planning_time_modifier, -0.0, 0, 0, 0),
    (_planning_time_modifier, 0.0, 0, 0, 0),
    (_planning_time_modifier, 1.0, 0, -1, -1),
    (_planning_time_modifier, 2.0, -1, -2, -2),
]


class TestEdgeTables:
    @pytest.mark.parametrize("rule, x, expected", [
        pytest.param(rule, x, expected, id=f"{rule.__name__}({x!r})")
        for rule, edge, *around in _EDGES
        for x, expected in zip((math.nextafter(edge, -math.inf), edge,
                                math.nextafter(edge, math.inf)), around)])
    def test_each_edge_to_the_last_bit(self, rule, x, expected):
        assert rule(x) == expected

    @pytest.mark.parametrize("item", COOKING_ITEMS)
    def test_each_cooking_row_floors_every_band_after_very_early(self, item):
        row = _COOKING_EDGES_CS[item]
        assert len(row) == len(BAND_NAMES) - 1
        assert list(row) == sorted(set(row))
        for band, first_cs in zip(BAND_NAMES[1:], row):
            assert _classify_cooking_time(item, first_cs / 100) == band
        on_time = BAND_NAMES.index("OnTime")
        assert row[on_time - 1] <= _COOKING_MIDPOINT_S[item] * 100 < row[on_time]
        assert _classify_cooking_time(item, _COOKING_MIDPOINT_S[item]) == "OnTime"


class TestPromptCascade:
    def test_full_ladder(self):
        assert [_score_prompt_cascade(d) for d in range(5)] == [6, 4, 2, 1, 0]

    def test_depth_out_of_range(self, logs, config):
        # After the fourth press the cascade has given up (depth 4): acting
        # then, at a depth past 4, is not an event the engine admits.
        late = _add_after(6, "FinalButtonPressed", "MedicationTaken", {})
        assert (_engine_rejection(logs["null"], config, late)
                == "scene 6 already resolved; only SceneExited is valid")


class TestNpcScoring:
    def test_positive_matrix(self, config):
        expected = {(1, "correct"): 6, (1, "semantic_relative"): 3,
                    (1, "other_pm_task"): 1, (1, "unrelated"): 0,
                    (2, "correct"): 4, (2, "semantic_relative"): 2,
                    (2, "other_pm_task"): 1, (2, "unrelated"): 0,
                    (3, "correct"): 2, (3, "semantic_relative"): 1,
                    (3, "other_pm_task"): 1, (3, "unrelated"): 0}
        for (prompt, choice), points in expected.items():
            assert _score_npc_pm_positive(prompt, choice, config) == points

    def test_positive_never_affirmed(self, config):
        assert _score_npc_pm_positive(0, None, config) == 0

    def test_positive_affirmed_requires_choice(self, logs, config):
        def no_choice(records):
            del records[_index(records, 10, "NpcItemChosen")]
        assert (_engine_rejection(logs["perfect"], config, no_choice)
                == "scene 10 is not finished")

    def test_positive_unknown_choice(self, logs, config):
        assert (_engine_rejection(logs["perfect"], config,
                                  _set(10, "NpcItemChosen", choice="sandwich"))
                == "unknown board choice 'sandwich'")

    def test_negative_deductions(self, config):
        assert [_score_npc_pm_negative(a, config) for a in range(4)] == [0, -3, -2, -1]

    def test_negative_out_of_range(self, logs, config):
        assert (_engine_rejection(logs["perfect"], config,
                                  _set(16, "NpcPromptAnswered", prompt_index=4))
                == "conversation prompt 4 out of order (expected 1)")


class TestCollection:
    def test_mixed_grab(self, config):
        score = _score_collection(
            ["red_book", "smartphone", "magazine", "blue_book",
             "car_keys", "flat_keys"], config)
        assert score.points == 4
        assert score.errors == 2

    def test_all_targets(self, config):
        score = _score_collection(config.collection_targets, config)
        assert score.points == 6
        assert score.errors == 0

    def test_target_regrab_rejected(self, config):
        with pytest.raises(MalformedLog, match="twice"):
            _score_collection(["red_book", "red_book"], config)

    def test_repeated_distractor_counts_each_time(self, config):
        score = _score_collection(["magazine", "magazine", "magazine"], config)
        assert score.points == 0
        assert score.errors == 3

    def test_any_non_target_grab_is_an_error(self, config):
        score = _score_collection(["lamp"], config)
        assert score.points == 0
        assert score.errors == 1


def _poster(stimulus_id, kind, side):
    """A ``PosterSpotted`` payload."""
    return {"stimulus_id": stimulus_id, "stimulus_kind": kind, "side": side}


def _sound(stimulus_id, kind, stimulus_side, response_side):
    """A ``SoundTriggered`` payload."""
    return {"stimulus_id": stimulus_id, "stimulus_kind": kind,
            "stimulus_side": stimulus_side, "response_side": response_side}


class TestVisualAttention:
    @staticmethod
    def _targets(config):
        return [_poster(f"{side}_t{i}", "target", side)
                for side in ("left", "right")
                for i in range(config.visual_targets_per_side)]

    def test_all_targets(self, config):
        score = _score_visual_attention(self._targets(config), config)
        assert score.points == 16

    def test_distractor_costs_one(self, config):
        responses = self._targets(config) + [
            _poster("d1", "shape_distractor", "left"),
            _poster("d2", "color_distractor", "right")]
        assert _score_visual_attention(responses, config).points == 14

    def test_no_responses(self, config):
        assert _score_visual_attention([], config).points == 0

    def test_capacity_enforced(self, config):
        over = [_poster(f"t{i}", "target", "left")
                for i in range(config.visual_targets_per_side + 1)]
        with pytest.raises(MalformedLog, match="more target"):
            _score_visual_attention(over, config)

    def test_duplicate_stimulus(self, logs, config):
        message = _engine_rejection(logs["perfect"], config,
                                    _repeat(12, "PosterSpotted"))
        assert message.endswith("already spotted")

    def test_unknown_kind(self, logs, config):
        assert (_engine_rejection(logs["perfect"], config,
                                  _set(12, "PosterSpotted", stimulus_kind="sparkle"))
                == "unknown poster kind 'sparkle'")


class TestAuditoryAttention:
    def test_point_schedule(self, config):
        responses = [
            _sound("t1", "target", "left", "left"),     # +2
            _sound("t2", "target", "left", "right"),    # +1
            _sound("d1", "high_pitch_distractor", "right", "right"),  # -1
            _sound("t3", "target", "right", None),      # silent
        ]
        score = _score_auditory_attention(responses, config)
        assert score.points == 2
        assert score.side_matched == 1
        assert score.side_mismatched == 1
        assert score.false_alarms == 1

    def test_perfect_run(self, config):
        responses = [_sound(f"{side}_t{i}", "target", side, side)
                     for side in ("left", "right")
                     for i in range(config.auditory_targets_per_side)]
        assert _score_auditory_attention(responses, config).points == 32

    def test_unanswered_stimuli_do_not_use_capacity(self, config):
        responses = [_sound(f"s{i}", "target", "left",
                            "left" if i == 0 else None)
                     for i in range(config.auditory_targets_per_side + 3)]
        assert _score_auditory_attention(responses, config).points == 2

    def test_capacity_enforced(self, config):
        over = [_sound(f"s{i}", "low_pitch_distractor", "left", "left")
                for i in range(config.auditory_low_distractors_per_side + 1)]
        with pytest.raises(MalformedLog, match="more low_pitch_distractor"):
            _score_auditory_attention(over, config)

    def test_duplicate_stimulus(self, logs, config):
        message = _engine_rejection(logs["perfect"], config,
                                    _repeat(19, "SoundTriggered"))
        assert message.endswith("already recorded")

    def test_unknown_kind_and_sides(self, logs, config):
        for field, value, message in (
                ("stimulus_kind", "chime", "unknown sound kind 'chime'"),
                ("stimulus_side", "middle", "unknown side 'middle'"),
                ("response_side", "middle", "unknown response side 'middle'")):
            assert (_engine_rejection(logs["perfect"], config,
                                      _set(19, "SoundTriggered", **{field: value}))
                    == message)


@pytest.mark.parametrize("name, count", [
    ("recognition_targets", 10), ("recognition_qualitative", 5),
    ("recognition_quantitative", 5), ("recognition_false", 10),
    ("collection_targets", 6)])
def test_a_catalog_of_another_length_is_rejected(config, name, count):
    short = dataclasses.replace(config, **{name: getattr(config, name)[1:]})
    with pytest.raises(ConfigError, match=f"^{name} must list {count} items$"):
        short.validate()


def test_a_repeated_collection_target_is_rejected(config):
    # simulate would grab the repeat twice, and scoring rejects its own log
    repeated = dataclasses.replace(config, collection_targets=("red_book",) * 6)
    with pytest.raises(ConfigError, match="^collection targets must be unique$"):
        repeated.validate()
    # a repeated distractor only counts one more error grab
    dataclasses.replace(config, collection_distractors=("magazine",) * 7).validate()


@pytest.mark.parametrize("name, message", [
    ("recognition_false", "recognition catalog items must be unique"),
    ("collection_distractors", "collection targets and distractors overlap"),
])
def test_an_item_shared_across_two_lists_is_rejected(config, name, message):
    # the first item of the list is replaced by the first target of its task
    target = (config.recognition_targets if name.startswith("recognition")
              else config.collection_targets)[0]
    with pytest.raises(ConfigError) as excinfo:
        config_from_dict({name: [target, *getattr(config, name)[1:]]})
    assert str(excinfo.value) == message


@pytest.mark.parametrize("name", [
    "recognition_targets", "recognition_qualitative", "recognition_quantitative",
    "recognition_false", "collection_targets", "collection_distractors"])
@pytest.mark.parametrize("make", [list, lambda names: tuple(range(len(names))),
                                  lambda names: ",".join(names)],
                         ids=["list", "tuple-of-int", "str"])
def test_a_list_field_that_is_no_tuple_of_strings_is_rejected(config, name, make):
    # validate() checks the field's type before any count or comparison
    mistyped = dataclasses.replace(config, **{name: make(getattr(config, name))})
    with pytest.raises(ConfigError, match=f"^{name} must be a list of strings$"):
        mistyped.validate()


# The report prints awarded points as "score/maximum": an award table with
# OnTime -1 .. VeryLate -4 would print a perfect cook as -3/-3.
_POINTS_OUT_OF_BOUNDS = [
    ({"band_points": {band: points - 4 for band, points in DEFAULT_BAND_POINTS.items()}},
     "band_points values must be at least 0, not -1"),
    ({"npc_positive_matrix": {depth: {**row, "correct": -5}
                              for depth, row in DEFAULT_NPC_POSITIVE_MATRIX.items()}},
     "npc_positive_matrix values must be at least 0, not -5"),
    ({"npc_negative_deductions": {**DEFAULT_NPC_NEGATIVE_DEDUCTIONS, "0": 1}},
     "npc_negative_deductions values must be in [-3, 0], not 1"),
    ({"npc_negative_deductions": {**DEFAULT_NPC_NEGATIVE_DEDUCTIONS, "1": -4}},
     "npc_negative_deductions values must be in [-3, 0], not -4"),
]


@pytest.mark.parametrize("document, message", _POINTS_OUT_OF_BOUNDS)
def test_a_points_table_out_of_its_bounds_is_rejected(document, message):
    with pytest.raises(ConfigError) as excinfo:
        config_from_dict(document)
    assert str(excinfo.value) == message


def test_points_tables_at_their_bounds_validate():
    config_from_dict({
        "band_points": dict.fromkeys(BAND_NAMES, 0),
        "npc_positive_matrix": {depth: dict.fromkeys(row, 0)
                                for depth, row in DEFAULT_NPC_POSITIVE_MATRIX.items()},
        "npc_negative_deductions": dict.fromkeys(DEFAULT_NPC_NEGATIVE_DEDUCTIONS, -3)})
    config_from_dict({"npc_negative_deductions": dict.fromkeys(DEFAULT_NPC_NEGATIVE_DEDUCTIONS, 0)})


def test_the_built_in_defaults_validate():
    # default_config returns them unchecked
    ScoringConfig().validate()
    assert default_config() == ScoringConfig()


# Each ScoringConfig field, set to one other valid value.  A field whose
# value moves neither a simulated session nor its scores nor its report
# is a knob that nothing reads.
_OTHER_VALUES = {
    **{name: tuple(f"other_{item}" for item in getattr(ScoringConfig, name))
       for name in ("recognition_targets", "recognition_qualitative",
                    "recognition_quantitative", "recognition_false",
                    "collection_targets", "collection_distractors")},
    "normative_route_mean_s": 300.0,
    "normative_route_sd_s": 0.5,
    "band_points": {band: points + 1 for band, points in DEFAULT_BAND_POINTS.items()},
    "npc_positive_matrix": {depth: {choice: points + 1 for choice, points in row.items()}
                            for depth, row in DEFAULT_NPC_POSITIVE_MATRIX.items()},
    "npc_negative_deductions": {"0": -1, "1": -2, "2": -3, "3": -3},
    "visual_targets_per_side": 7,
    "visual_shape_distractors_per_side": 3,
    "visual_color_distractors_per_side": 3,
    "auditory_targets_per_side": 7,
    "auditory_high_distractors_per_side": 3,
    "auditory_low_distractors_per_side": 3,
    "session_target_s": 1800.0,
}


def _session_outputs(config):
    # every false-alarm draw fires, so that the false reminders are affirmed
    # and the collection distractors are picked up
    profile = dataclasses.replace(default_profile(), attention_false_alarm_prob=1.0)
    log = simulate_session(profile, 3, config)
    card = aggregate_scorecard(log, config)
    report = export_report(card, config, log.seed, log.config_hash).splitlines()
    return (log.events, scorecard_to_dict(card),
            [line for line in report if not line.startswith("config: ")])


def test_every_config_field_moves_a_session():
    assert list(_OTHER_VALUES) == [f.name for f in dataclasses.fields(ScoringConfig)]
    config = default_config()
    base = _session_outputs(config)
    inert = []
    for name, value in _OTHER_VALUES.items():
        changed = dataclasses.replace(config, **{name: value})
        changed.validate()
        if _session_outputs(changed) == base:
            inert.append(name)
    assert inert == []
