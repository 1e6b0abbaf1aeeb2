"""Acceptance gate: one test per release criterion, at the stated tolerance.

Run with ``pytest -v tests/test_acceptance.py``; the verbose line for each
test is the pass/fail line for that criterion.  Every timed criterion
measures its own work with ``time.perf_counter`` and fails if it exceeds
the stated budget, so a pass here certifies both behaviour and cost.
"""
from __future__ import annotations

import dataclasses
import itertools
import time

import numpy as np
import pytest

from errandlab.bayes import (
    Direction,
    EvidenceBand,
    bf10_directional,
    classify_evidence,
    evidence_stars,
)
from errandlab.config import config_hash, default_config
from errandlab.scoring import (
    _classify_cooking_time,
    _score_auditory_attention,
    _score_npc_pm_negative,
    _score_npc_pm_positive,
    _score_planning,
    _score_prompt_cascade,
    _score_recognition,
    _score_visual_attention,
    aggregate_scorecard,
)
from errandlab.sessionlog import derive_telemetry, export_report, serialize_log
from errandlab.simulate import default_profile, simulate_cohort, simulate_session
from errandlab.vrnq import CohortAggregate, ScoreStats, check_cutoffs
from oracle_bf import oracle_bf10_a_less


def _timed(budget_s):
    """Context manager asserting the body finished inside ``budget_s``."""
    class _Timer:
        def __enter__(self):
            self.start = time.perf_counter()
            return self

        def __exit__(self, exc_type, exc, tb):
            self.elapsed = time.perf_counter() - self.start
            if exc_type is None:
                assert self.elapsed < budget_s, (
                    f"took {self.elapsed:.3f}s, budget {budget_s}s")
            return False

    return _Timer()


def test_criterion_1_planning_route_score(config):
    """Redundant units shrink the route score; budget < 1 ms."""
    _score_planning(range(1, 19), 30.0, config)  # warm caches before timing
    best = min(_time_planning_pair(config) for _ in range(5))
    first = _score_planning(range(1, 19), 30.0, config)
    second = _score_planning(range(1, 13), 30.0, config)
    assert first.route_score == 12
    assert second.route_score == 12
    assert best < 1e-3, f"scoring pair took {best * 1e3:.3f} ms"


def _time_planning_pair(config):
    start = time.perf_counter()
    _score_planning(range(1, 19), 30.0, config)
    _score_planning(range(1, 13), 30.0, config)
    return time.perf_counter() - start


def test_criterion_2_recognition_bounds_and_deltas(config):
    """All targets scores 20; 10k random lists stay in 0..20; marginal
    value of each extra item is exactly its category worth; budget < 1 s."""
    with _timed(1.0):
        assert _score_recognition(config.recognition_targets, config).points == 20

        catalog = (list(config.recognition_targets)
                   + list(config.recognition_qualitative)
                   + list(config.recognition_quantitative)
                   + list(config.recognition_false))
        worth = {}
        for item in config.recognition_targets:
            worth[item] = 2
        for item in (config.recognition_qualitative
                     + config.recognition_quantitative):
            worth[item] = 1
        for item in config.recognition_false:
            worth[item] = 0

        rng = np.random.default_rng(20260817)
        for trial in range(10_000):
            size = int(rng.integers(0, 11))
            selection = list(rng.choice(catalog, size=size, replace=False))
            score = _score_recognition(selection, config)
            assert 0 <= score.points <= 20
            assert score.points == sum(worth[item] for item in selection)
            if trial % 5 == 0 and size < 10:
                extra = next(item for item in catalog if item not in selection)
                grown = _score_recognition(selection + [extra], config)
                assert grown.points - score.points == worth[extra]


# printed edge values for the three timed cooking items: for each band the
# earliest cook time (seconds) the band covers, plus the band it names.
_COOKING_PRINTED_EDGES = {
    "omelette": [(0.0, "VeryEarly"), (14.0, "Early"), (16.0, "SlightlyEarly"),
                 (18.0, "OnTime"), (22.01, "SlightlyLate"), (24.0, "Late"),
                 (26.01, "VeryLate")],
    "sausages": [(0.0, "VeryEarly"), (18.0, "Early"), (20.0, "SlightlyEarly"),
                 (22.0, "OnTime"), (26.01, "SlightlyLate"), (28.0, "Late"),
                 (30.01, "VeryLate")],
    "kettle": [(0.0, "VeryEarly"), (11.0, "Early"), (13.0, "SlightlyEarly"),
               (15.0, "OnTime"), (17.01, "SlightlyLate"), (19.0, "Late"),
               (21.01, "VeryLate")],
}

_BAND_ORDER = ["VeryEarly", "Early", "SlightlyEarly", "OnTime",
               "SlightlyLate", "Late", "VeryLate"]


def test_criterion_3_cooking_band_edges_and_sweep():
    """21 printed band edges classify exactly; a centisecond sweep over
    0-60 s (3 x 6001 probes) shows no gaps or overlaps; budget < 1 s."""
    with _timed(1.0):
        probes = [(item, seconds, band)
                  for item, edges in _COOKING_PRINTED_EDGES.items()
                  for seconds, band in edges]
        assert len(probes) == 21
        for item, seconds, band in probes:
            assert _classify_cooking_time(item, seconds) == band, (item, seconds)

        total_probes = 0
        for item in _COOKING_PRINTED_EDGES:
            ranks = []
            for centis in range(0, 6001):
                band = _classify_cooking_time(item, centis / 100.0)
                ranks.append(_BAND_ORDER.index(band))  # KeyError = a gap
                total_probes += 1
            # bands sit in timeline order with no interleaving (no overlaps)
            assert ranks == sorted(ranks), item
            assert ranks[0] == 0 and ranks[-1] == len(_BAND_ORDER) - 1
        assert total_probes == 18_003


def test_criterion_4_pm_enumerations(config):
    """Exhaustive cascade, positive-response and false-prompt scoring
    tables; deductions bounded per scene and overall; budget < 1 s."""
    with _timed(1.0):
        assert [_score_prompt_cascade(d) for d in range(5)] == [6, 4, 2, 1, 0]

        matrix = {(1, "correct"): 6, (1, "semantic_relative"): 3,
                  (1, "other_pm_task"): 1, (1, "unrelated"): 0,
                  (2, "correct"): 4, (2, "semantic_relative"): 2,
                  (2, "other_pm_task"): 1, (2, "unrelated"): 0,
                  (3, "correct"): 2, (3, "semantic_relative"): 1,
                  (3, "other_pm_task"): 1, (3, "unrelated"): 0}
        for (prompt, choice), points in matrix.items():
            assert _score_npc_pm_positive(prompt, choice, config) == points
        assert _score_npc_pm_positive(0, None, config) == 0

        deductions = [_score_npc_pm_negative(a, config) for a in range(4)]
        assert deductions == [0, -3, -2, -1]
        per_scene_worst = min(deductions)
        assert per_scene_worst >= -3
        assert 2 * per_scene_worst >= -6  # two false-prompt scenes overall


def _poster(stimulus_id, kind, side):
    """A ``PosterSpotted`` payload."""
    return {"stimulus_id": stimulus_id, "stimulus_kind": kind, "side": side}


def _sound(stimulus_id, kind, stimulus_side, response_side):
    """A ``SoundTriggered`` payload."""
    return {"stimulus_id": stimulus_id, "stimulus_kind": kind,
            "stimulus_side": stimulus_side, "response_side": response_side}


def test_criterion_5_attention_schedules(config):
    """Visual: all targets score 16.  Auditory: every stimulus-kind x
    stimulus-side x response-side combination follows the +2/+1/-1
    schedule; budget < 1 s."""
    with _timed(1.0):
        targets = [_poster(f"{side}{i}", "target", side)
                   for side in ("left", "right")
                   for i in range(config.visual_targets_per_side)]
        assert _score_visual_attention(targets, config).points == 16

        kinds = ("target", "high_pitch_distractor", "low_pitch_distractor")
        combos = list(itertools.product(kinds, ("left", "right"),
                                        ("left", "right", None)))
        assert len(combos) == 18
        for kind, stim_side, resp_side in combos:
            score = _score_auditory_attention(
                [_sound("s0", kind, stim_side, resp_side)], config)
            if resp_side is None:
                expected = 0
            elif kind != "target":
                expected = -1
            elif resp_side == stim_side:
                expected = 2
            else:
                expected = 1
            assert score.points == expected, (kind, stim_side, resp_side)


# reference questionnaire medians: four domain medians plus the total, per
# development build and per player background, each with its cohort size.
_QUESTIONNAIRE_COHORTS = {
    "first_build": ((25.0, 23.5, 24.0, 25.5), 100.0, 12, False),
    "second_build": ((28.0, 29.0, 26.0, 26.0), 109.5, 12, False),
    "final_build_all": ((31.0, 32.0, 32.0, 33.0), 128.0, 25, True),
    "final_build_gamers": ((32.5, 32.0, 32.5, 33.0), 129.5, 12, True),
    "final_build_non_gamers": ((31.0, 31.0, 32.0, 33.0), 128.0, 13, True),
}


def test_criterion_6_questionnaire_cutoff_verdicts():
    """The reference per-build medians reproduce the pass/fail verdicts at
    the stricter tier exactly; budget < 1 s."""
    with _timed(1.0):
        domains = ("UserExperience", "GameMechanics", "InGameAssistance",
                   "VRISE")
        for name, (subs, total, n, should_pass) in _QUESTIONNAIRE_COHORTS.items():
            aggregate = CohortAggregate(
                sub_stats={domain: ScoreStats(median=median, mad=1.0, n=n)
                           for domain, median in zip(domains, subs)},
                total_stats=ScoreStats(median=total, mad=1.0, n=n))
            verdict = check_cutoffs(aggregate, tier="parsimonious")
            assert verdict.overall is should_pass, name
            gates = list(verdict.passes.values())
            if should_pass:
                assert all(gates), name
            else:
                assert not any(gates), name  # these builds miss every gate


_EVIDENCE_FIXTURES = [
    # (bayes factor, band, stars) reference rows for the paired comparisons
    (0.402, EvidenceBand.NONE, ""),
    (0.546, EvidenceBand.NONE, ""),
    (0.429, EvidenceBand.NONE, ""),
    (0.374, EvidenceBand.NONE, ""),
    (0.368, EvidenceBand.NONE, ""),
    (0.988, EvidenceBand.NONE, ""),
    (1.095, EvidenceBand.ANECDOTAL, ""),
    (17.262, EvidenceBand.STRONG, "*"),
    (17.597, EvidenceBand.STRONG, "*"),
    (21.221, EvidenceBand.STRONG, "*"),
    (47.214, EvidenceBand.VERY_STRONG, "**"),
    (101.651, EvidenceBand.EXTREME, "***"),
    (139.994, EvidenceBand.EXTREME, "***"),
    (224.329, EvidenceBand.EXTREME, "***"),
    (487.798, EvidenceBand.EXTREME, "***"),
    (681.518, EvidenceBand.EXTREME, "***"),
    (855.603, EvidenceBand.EXTREME, "***"),
    (1912.328, EvidenceBand.EXTREME, "***"),
    (57974.267, EvidenceBand.EXTREME, "***"),
]


def test_criterion_7_bayes_factors():
    """Bayes factors within 2% of an independently computed oracle across
    the t x n grid, strictly increasing in t, and the reference values
    classify to their expected bands and stars; budget < 10 s."""
    with _timed(10.0):
        for n in (12, 25):
            previous = None
            for t in (0.0, 0.5, 1.0, 2.0, 3.0, 5.0):
                mine = bf10_directional(t, n, direction=Direction.A_LESS)
                ref = oracle_bf10_a_less(t, n)
                assert mine == pytest.approx(ref, rel=0.02), (t, n)
                if previous is not None:
                    assert mine > previous, (t, n)
                previous = mine

        for boundary, band in ((1.0, EvidenceBand.NONE),
                               (3.0, EvidenceBand.MODERATE),
                               (10.0, EvidenceBand.STRONG),
                               (30.0, EvidenceBand.VERY_STRONG),
                               (100.0, EvidenceBand.EXTREME)):
            assert classify_evidence(boundary) is band

        for bf10, band, stars in _EVIDENCE_FIXTURES:
            assert classify_evidence(bf10) is band, bf10
            assert evidence_stars(bf10) == stars, bf10


def test_criterion_8_reproducibility(config):
    """Same profile, seed, and config give byte-identical logs and reports;
    rescoring the log reproduces the simulator's scorecard; the default
    session clock lands near its target; budget < 1 s."""
    with _timed(1.0):
        profile = default_profile()
        pairs_a = simulate_cohort([profile], [2026], config=config)
        pairs_b = simulate_cohort([profile], [2026], config=config)
        (log_a, card_a), (log_b, card_b) = pairs_a[0], pairs_b[0]

        assert serialize_log(log_a) == serialize_log(log_b)

        telemetry = derive_telemetry(log_a)
        report_a = export_report(card_a, config, seed=2026,
                                 config_hash=config_hash(config))
        report_b = export_report(card_b, config, seed=2026,
                                 config_hash=config_hash(config))
        assert report_a == report_b

        assert aggregate_scorecard(log_a, config) == card_a

        assert (0.8 * config.session_target_s <= telemetry.total_time_s
                <= 1.2 * config.session_target_s)


def test_criterion_9_pm_score_monotonicity(config):
    """Mean summed time-based-task score over 200 seeds never decreases
    as the action probability climbs from 0 to 1; budget < 30 s."""
    with _timed(30.0):
        seeds = range(200)
        means = []
        for prob in (0.0, 0.25, 0.5, 0.75, 1.0):
            profile = dataclasses.replace(
                default_profile(),
                pm_hit_prob={"short": prob, "medium": prob, "long": prob})
            total = 0
            for seed in seeds:
                log = simulate_session(profile, seed=seed, config=config)
                total += aggregate_scorecard(log, config).pm_positive_total
            means.append(total / len(seeds))
        assert means == sorted(means), means
        assert means[0] < means[-1]
