from __future__ import annotations

import dataclasses
import json
import math
import random
import statistics

import pytest

from errandlab import simulate
from errandlab.config import ConfigError, config_hash, default_config
from errandlab.scenario import (
    LADDER_DEPTH,
    NEVER_DONE_DEPTH,
    PM_TASKS,
    SCENES_BY_ID,
    EventKind,
    replay,
)
from errandlab.scoring import aggregate_scorecard, scorecard_to_dict
from errandlab.sessionlog import derive_telemetry, serialize_log
from errandlab.simulate import (
    LengthMismatch,
    PROFILE_PRESETS,
    ParticipantProfile,
    default_profile,
    load_profile,
    null_profile,
    perfect_profile,
    profile_from_dict,
    profile_to_dict,
    save_profile,
    simulate_cohort,
    simulate_session,
)


class TestDeterminism:
    def test_same_inputs_same_bytes(self, typical):
        first = serialize_log(simulate_session(typical, seed=424242))
        second = serialize_log(simulate_session(typical, seed=424242))
        assert first == second

    def test_different_seeds_differ(self, typical):
        assert (serialize_log(simulate_session(typical, seed=1))
                != serialize_log(simulate_session(typical, seed=2)))

    def test_different_profiles_differ(self, typical, perfect):
        assert (serialize_log(simulate_session(typical, seed=5))
                != serialize_log(simulate_session(perfect, seed=5)))

    def test_log_carries_seed_and_config_hash(self, typical, config):
        log = simulate_session(typical, seed=99, config=config)
        assert log.seed == 99
        assert log.config_hash == config_hash(config)


class TestSceneStreams:
    """Each scene draws from ``random.Random((seed mod 2**64) * 32 + scene id)``,
    built on the scene's first draw."""

    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**40 + 17, 2**64 - 1,
                                      2**64, -1, -2**40])
    def test_each_drawing_scene_gets_its_random_stream(self, monkeypatch, seed):
        built = []

        class Recording(random.Random):
            def __init__(self, x):
                built.append(x)
                super().__init__(x)

        monkeypatch.setattr(simulate, "Random", Recording)
        simulate_session(default_profile(), seed)
        monkeypatch.undo()
        # a plain tutorial never draws, so it builds no stream
        plain = {scene_id for scene_id, model in simulate._SCENE_MODELS.items()
                 if model is simulate._plain_tutorial}
        drawing = sorted(SCENES_BY_ID.keys() - plain)
        assert built == [(seed & (2**64 - 1)) * 32 + scene_id for scene_id in drawing]


class TestDraws:
    """Every draw is built from ``Random.random()`` alone."""

    def test_normal_has_mean_0_sd_1_and_stays_below_6(self):
        rng = random.Random(7)
        zs = [simulate._normal(rng) for _ in range(20_000)]
        assert abs(statistics.fmean(zs)) < 0.03
        assert abs(statistics.pstdev(zs) - 1.0) < 0.03

        class Widest(random.Random):
            def random(self):
                return 1.0 - 2**-53  # the largest value random() returns

        z = simulate._normal(Widest())
        assert z < simulate._MAX_NORMAL_Z
        assert math.isfinite(max(simulate._COOKING_MIDPOINT_S.values())
                             + simulate._MAX_COOKING_SD_S * z)

    def test_shuffled_is_a_seeded_permutation_and_its_prefix(self):
        items = list(range(23))
        full = simulate._shuffled(random.Random(3), items)
        assert sorted(full) == items and full != items
        assert simulate._shuffled(random.Random(3), items, 15) == full[:15]
        assert simulate._shuffled(random.Random(3), []) == []

    def test_poisson_has_its_mean_and_stops_at_the_cap(self):
        rng = random.Random(11)
        draws = [simulate._poisson(rng, 2, 23) for _ in range(20_000)]
        assert abs(statistics.fmean(draws) - 2.0) < 0.05
        assert abs(statistics.pvariance(draws) - 2.0) < 0.1
        assert simulate._poisson(rng, 0, 23) == 0
        for mean in (10**6, 10**400):
            assert simulate._poisson(rng, mean, 23) == 23


class TestProtocolValidity:
    @pytest.mark.parametrize("seed", range(25))
    def test_every_log_replays_to_completion(self, typical, seed):
        log = simulate_session(typical, seed=seed)
        final, _ = replay(log.events)
        assert final.completed
        assert final.current_scene == 22

    @pytest.mark.parametrize("preset", sorted(PROFILE_PRESETS))
    def test_every_preset_replays(self, preset):
        log = simulate_session(PROFILE_PRESETS[preset](), seed=7)
        final, _ = replay(log.events)
        assert final.completed

    def test_scorable_without_errors(self, typical, config):
        log = simulate_session(typical, seed=31)
        scorecard = aggregate_scorecard(log, config)
        assert 0 <= scorecard.immediate_recognition.points <= 20
        assert 0 <= scorecard.delayed_recognition.points <= 20


@pytest.fixture(scope="module")
def perfect_scorecard(config):
    log = simulate_session(perfect_profile(), seed=8, config=config)
    return aggregate_scorecard(log, config)


@pytest.fixture(scope="module")
def null_scorecard(config):
    log = simulate_session(null_profile(), seed=8, config=config)
    return aggregate_scorecard(log, config)


class TestPerfectProfile:
    @pytest.fixture
    def scorecard(self, perfect_scorecard):
        return perfect_scorecard

    def test_recognition_ceiling(self, scorecard):
        assert scorecard.immediate_recognition.points == 20
        assert scorecard.delayed_recognition.points == 20

    def test_cascades_unprompted(self, scorecard):
        for task_id in ("take_medication", "remove_pie", "return_book",
                        "evening_medication", "give_keys"):
            assert scorecard.pm[task_id].points == 6, task_id

    def test_npc_positive_first_prompt_correct(self, scorecard):
        for task_id in ("call_rose", "collect_cake"):
            assert scorecard.pm[task_id].points == 6, task_id

    def test_no_deductions(self, scorecard):
        assert scorecard.pm_deductions_total == 0

    def test_collection_clean(self, scorecard):
        assert scorecard.collection.points == 6
        assert scorecard.collection.errors == 0

    def test_attention_ceilings(self, scorecard):
        assert scorecard.visual.points == 16
        assert scorecard.auditory.points == 32
        assert scorecard.auditory.false_alarms == 0

    def test_pm_positive_total_is_max(self, scorecard):
        assert scorecard.pm_positive_total == 42  # seven tasks, six points each


class TestNullProfile:
    @pytest.fixture
    def scorecard(self, null_scorecard):
        return null_scorecard

    def test_recognition_floor(self, scorecard):
        assert scorecard.immediate_recognition.points == 0
        assert scorecard.delayed_recognition.points == 0

    def test_all_positive_pm_missed(self, scorecard):
        assert scorecard.pm_positive_total == 0

    def test_no_false_affirmations_means_no_deductions(self, scorecard):
        assert scorecard.pm_deductions_total == 0

    def test_nothing_collected_nothing_wrong(self, scorecard):
        assert scorecard.collection.points == 0
        assert scorecard.collection.errors == 0

    def test_attention_floors(self, scorecard):
        assert scorecard.visual.points == 0
        assert scorecard.auditory.points == 0


class TestLadderFromSceneTable:
    """The engine and the simulator read each reminder ladder's length from
    the scene table: with two-prompt scripts in scenes 6, 8, 10 and 16, every
    preset still plays out to a log that scores."""

    @pytest.fixture
    def two_prompt_ladders(self, monkeypatch):
        for sid in (6, 8, 10, 16):
            task = PM_TASKS[sid]
            monkeypatch.setitem(PM_TASKS, sid, dataclasses.replace(
                task, prompt_texts=task.prompt_texts[:2]))

    @pytest.mark.parametrize("preset", sorted(PROFILE_PRESETS))
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_every_preset_scores(self, two_prompt_ladders, config, preset, seed):
        log = simulate_session(PROFILE_PRESETS[preset](), seed=seed, config=config)
        aggregate_scorecard(log, config)
        for event in log.events:
            if event.kind is EventKind.NPC_PROMPT_ANSWERED and event.scene in (10, 16):
                assert event.payload["prompt_index"] <= 2

    def test_null_profile_never_acts(self, two_prompt_ladders, config):
        log = simulate_session(null_profile(), seed=1, config=config)
        card = aggregate_scorecard(log, config)
        for task_id in ("take_medication", "remove_pie"):
            assert card.pm[task_id].prompt_depth == NEVER_DONE_DEPTH == 4
            assert card.pm[task_id].points == 0
        presses = [e for e in log.events if e.scene == 6
                   and e.kind is EventKind.FINAL_BUTTON_PRESSED]
        assert len(presses) == 3  # two prompts, then the scene ends


class TestFinaleFromSceneTable:
    """The finale's doses follow the reminder schedule of the scene table:
    with the reminders moved to 50, 55 and 58 s, an unprompted dose still
    comes before the first and a prompted one before the next."""

    @pytest.fixture
    def retimed_finale(self, monkeypatch):
        monkeypatch.setitem(PM_TASKS, 22, dataclasses.replace(
            PM_TASKS[22], timer_offsets_ms=(50_000, 55_000, 58_000)))

    @pytest.mark.parametrize("seed", [1, 2])
    def test_an_unprompted_dose_comes_before_the_first_reminder(
            self, retimed_finale, perfect, config, seed):
        card = aggregate_scorecard(simulate_session(perfect, seed=seed, config=config),
                                   config)
        outcome = card.pm["evening_medication"]
        assert (outcome.prompt_depth, outcome.points) == (0, 6)

    @pytest.mark.parametrize("seed", [1, 2])
    def test_a_prompted_dose_comes_before_the_next_reminder(
            self, retimed_finale, perfect, config, seed):
        # never acts unprompted and always complies after a prompt, 8 s on:
        # longer than the 3 s between the last two reminders
        late = dataclasses.replace(
            perfect, pm_hit_prob={"short": 0.0, "medium": 0.0, "long": 0.0},
            latency_mean_ms=8_000.0)
        card = aggregate_scorecard(simulate_session(late, seed=seed, config=config),
                                   config)
        outcome = card.pm["evening_medication"]
        assert (outcome.prompt_depth, outcome.points) == (1, 4)


class TestCohort:
    def test_pairs_match_rescoring(self, typical, perfect, config):
        # scorecard_to_dict covers the telemetry, which == on scorecards skips
        pairs = simulate_cohort([typical, perfect, typical], [3, 4, 5],
                                config=config)
        assert len(pairs) == 3
        for log, scorecard in pairs:
            assert (scorecard_to_dict(aggregate_scorecard(log, config))
                    == scorecard_to_dict(scorecard))

    def test_order_follows_seeds(self, typical, config):
        pairs = simulate_cohort([typical, typical], [10, 20], config=config)
        assert [log.seed for log, _ in pairs] == [10, 20]

    def test_length_mismatch(self, typical):
        with pytest.raises(LengthMismatch):
            simulate_cohort([typical], [1, 2])

    def test_empty_cohort(self):
        assert simulate_cohort([], []) == []


_DEFAULT_DIALS = profile_to_dict(default_profile())
# (dial, profile document): one probability dial of the default profile made "x"
_BAD_PROBABILITIES = [
    *((f"pm_hit_prob[{key!r}]", {"pm_hit_prob": {**_DEFAULT_DIALS["pm_hit_prob"], key: "x"}})
      for key in _DEFAULT_DIALS["pm_hit_prob"]),
    *((f"prompt_yield_probs[{i}]",
       {"prompt_yield_probs": [*_DEFAULT_DIALS["prompt_yield_probs"][:i], "x",
                               *_DEFAULT_DIALS["prompt_yield_probs"][i + 1:]]})
      for i in range(LADDER_DEPTH)),
    *((name, {name: "x"}) for name in (
        "recognition_target_prob", "recognition_distractor_prob", "attention_hit_prob",
        "attention_false_alarm_prob", "wrong_controller_prob", "notes_use_prob")),
]


class TestProfiles:
    def test_round_trip_dict(self, typical):
        clone = profile_from_dict(profile_to_dict(typical))
        assert clone == typical

    def test_round_trip_file(self, typical, tmp_path):
        path = tmp_path / "profile.json"
        save_profile(typical, str(path))
        assert load_profile(str(path)) == typical
        assert json.loads(path.read_text())  # plain JSON on disk

    def test_unknown_field_rejected(self, typical):
        data = profile_to_dict(typical)
        data["bravery"] = 1.0
        with pytest.raises(ValueError, match="bravery"):
            profile_from_dict(data)

    def test_missing_fields_fall_back_to_defaults(self, typical):
        partial = {"recognition_target_prob": 0.25}
        profile = profile_from_dict(partial)
        assert profile.recognition_target_prob == 0.25
        assert profile.latency_mean_ms == default_profile().latency_mean_ms

    def test_probability_bounds(self, typical):
        with pytest.raises(ValueError):
            dataclasses.replace(typical, recognition_target_prob=1.5)
        with pytest.raises(ValueError):
            dataclasses.replace(typical, attention_hit_prob=-0.1)

    @pytest.mark.parametrize("dial, document", _BAD_PROBABILITIES,
                             ids=[dial for dial, _ in _BAD_PROBABILITIES])
    def test_a_bad_probability_names_its_dial(self, dial, document):
        assert len(_BAD_PROBABILITIES) == 12
        with pytest.raises(ValueError) as caught:
            profile_from_dict(document)
        assert str(caught.value) == f"probability {dial} = 'x' is not a number in [0, 1]"

    @pytest.mark.parametrize("dials", [(0.5, 0.5), (0.5,) * (LADDER_DEPTH + 1)])
    def test_one_yield_dial_per_prompt_of_the_deepest_ladder(self, typical, dials):
        assert LADDER_DEPTH == 3
        with pytest.raises(ValueError, match=r"^prompt_yield_probs must have 3 entries$"):
            dataclasses.replace(typical, prompt_yield_probs=dials)

    def test_pm_hit_keys_pinned(self, typical):
        with pytest.raises(ValueError):
            dataclasses.replace(typical, pm_hit_prob={"short": 0.5})

    def test_pm_hit_prob_must_be_a_mapping(self, typical):
        with pytest.raises(ValueError, match=r"^pm_hit_prob needs exactly the keys"):
            dataclasses.replace(typical, pm_hit_prob=["short", "medium", "long"])

    def test_negative_spread_rejected(self, typical):
        with pytest.raises(ValueError):
            dataclasses.replace(typical, cooking_timing_sd_s=-1.0)
        with pytest.raises(ValueError):
            dataclasses.replace(typical, planning_extra_units=-1)

    def test_largest_spread_and_extra_units_simulate(self, typical, config):
        # the spread's bound keeps every cook time finite (|z| < 6); the
        # extra units have none, as the route draw is capped
        sd = simulate._MAX_COOKING_SD_S
        for units in (10**21, 10**400):
            widest = dataclasses.replace(typical, cooking_timing_sd_s=sd,
                                         planning_extra_units=units)
            for seed in range(1, 4):
                log = simulate_session(widest, seed=seed, config=config)
                assert replay(log.events)[0].completed
        with pytest.raises(ValueError, match="^cooking_timing_sd_s must be at most"):
            dataclasses.replace(typical, cooking_timing_sd_s=math.nextafter(sd, math.inf))

    def test_presets_are_valid_and_distinct(self):
        profiles = {name: factory() for name, factory in PROFILE_PRESETS.items()}
        assert set(profiles) == {"default", "perfect", "null"}
        assert len({str(p) for p in profiles.values()}) == 3
        assert profiles["default"] == default_profile()


class TestSessionClock:
    def test_default_target_duration(self, typical, config):
        log = simulate_session(typical, seed=6, config=config)
        total = derive_telemetry(replay(log.events)[0]).total_time_s
        assert total == pytest.approx(config.session_target_s, rel=0.2)

    def test_scaled_target_duration(self, typical, config):
        short = dataclasses.replace(config, session_target_s=1866.0)
        log = simulate_session(typical, seed=6, config=short)
        total = derive_telemetry(replay(log.events)[0]).total_time_s
        assert total == pytest.approx(1866.0, rel=0.2)
        final, _ = replay(log.events)
        assert final.completed

    @pytest.mark.parametrize("target_s", [None, 93.3])
    @pytest.mark.parametrize("preset", sorted(PROFILE_PRESETS))
    def test_each_scene_exits_at_its_share_of_the_clock(self, config, preset, target_s):
        # SceneExited comes at the later of the scene's last other event and
        # its entry plus its share of session_target_s (at least 1 s); at
        # 93.3 s some scenes' events outrun their share, so both occur
        if target_s is not None:
            config = dataclasses.replace(config, session_target_s=target_s)
        scale = config.session_target_s / sum(simulate._NOMINAL_DURATION_S.values())
        log = simulate_session(PROFILE_PRESETS[preset](), seed=11, config=config)
        scenes: dict[int, list] = {}
        for event in log.events:
            scenes.setdefault(event.scene, []).append(event)
        assert sorted(scenes) == sorted(SCENES_BY_ID)
        for sid, events in scenes.items():
            entry, *others, exit_ = events
            assert entry.kind is EventKind.SCENE_ENTERED
            assert exit_.kind is EventKind.SCENE_EXITED
            assert EventKind.SCENE_EXITED not in {e.kind for e in others}
            share_ms = max(1_000, int(simulate._NOMINAL_DURATION_S[sid] * scale * 1000))
            last_ms = max(e.sim_time_ms for e in [entry, *others])
            assert exit_.sim_time_ms == max(last_ms, entry.sim_time_ms + share_ms), sid

    def test_longest_target_fits_the_clock(self, config):
        longest = dataclasses.replace(config, session_target_s=2**53 / 1000)
        longest.validate()
        for preset in PROFILE_PRESETS.values():
            log = simulate_session(preset(), seed=1, config=longest)
            assert log.events[-1].sim_time_ms <= 2**53

    def test_latency_bounded_by_the_clock(self, typical):
        with pytest.raises(ValueError, match=r"latency_sd_ms must be at most 2\*\*53 ms"):
            dataclasses.replace(typical, latency_sd_ms=2**53 + 1)
        # each latency fits, but the session's sum of them does not
        slow = dataclasses.replace(typical, latency_mean_ms=2**53)
        with pytest.raises(ConfigError, match=r"runs past 2\*\*53 ms"):
            simulate_session(slow, seed=1)


class TestBehaviouralKnobs:
    def test_pm_probability_moves_pm_scores(self, config):
        def summed_pm(prob):
            profile = dataclasses.replace(
                default_profile(),
                pm_hit_prob={"short": prob, "medium": prob, "long": prob})
            totals = 0
            for seed in range(12):
                log = simulate_session(profile, seed=seed, config=config)
                totals += aggregate_scorecard(log, config).pm_positive_total
            return totals

        assert summed_pm(0.0) < summed_pm(1.0)

    def test_false_alarm_probability_moves_deductions(self, config):
        def summed_deductions(prob):
            profile = dataclasses.replace(default_profile(),
                                          attention_false_alarm_prob=prob)
            totals = 0
            for seed in range(12):
                log = simulate_session(profile, seed=seed, config=config)
                totals += aggregate_scorecard(log, config).pm_deductions_total
            return totals

        assert summed_deductions(1.0) < summed_deductions(0.0) == 0
