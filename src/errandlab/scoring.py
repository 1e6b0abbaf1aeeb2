"""Task scoring rules for the errand battery.

The scoring API is :func:`aggregate_scorecard`, :func:`score_session` and
:func:`scorecard_to_dict`.  :func:`aggregate_scorecard` folds a full session
log through the scenario engine, keeping only the final state and rejecting
anything the engine rejects; then :func:`score_session` looks each task up in
:data:`~errandlab.scenario.TASKS`, reads the payloads of its input events from
the log's (scene, kind) groups
(:attr:`~errandlab.sessionlog.SessionLog.events_by_key`), the route and the
reminders from the engine's final state, and applies every private per-task
scorer with the :class:`~errandlab.config.ScoringConfig` in force.  The
simulator, which already holds the engine's final state, calls
:func:`score_session` directly.

The scorers' inputs come from engine-accepted logs, so they read the payloads
as the engine validated them, trust what it established (known names, no
repeats, prompts in order) and check only what depends on the config, which
the engine never sees: the recognition catalog, the collection targets and
the stimuli per side.  A log that fails one of these raises
:class:`~errandlab.sessionlog.MalformedLog`, as an engine rejection does.

Scoring summary:

* Recognition boards (immediate and delayed): 2 points per intended item
  selected, 1 point per related variant (qualitative or quantitative),
  0 per absent item; 10 intended items, so 20 is the ceiling.
* Route planning: 15 minus the absolute deviation from the ideal 15 street
  units, floored at 0, then a timing modifier read off an edge table of
  normative z-score steps, (1, 2): a point for each step of speed, minus
  one for each step of slowness.
* Cooking: each of the three items lands in one of seven timing bands, read
  off its row of band floors in centiseconds; band points default to
  3/2/1/0 symmetric around OnTime.
* Reminder cascades: acting unprompted earns 6, after prompts 1..3 earns
  4/2/1, never acting earns 0.
* Conversation (companion) tasks: points from a matrix over when the user
  affirmed (prompt 1..3) and what they picked from the item board.  False
  reminders invert: affirming at prompt 1/2/3 deducts 3/2/1, resisting all
  three deducts nothing; at most 3 per scene and 6 across the session.
* Collection: one point per distinct target item gathered (six exist);
  grabbing anything else counts an error but deducts nothing.
* Visual attention: +1 per distinct target spotted, -1 per distractor.
* Auditory attention: +2 for a target answered with the same-side
  controller, +1 with the opposite one, -1 for responding to a distractor.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Any, Collection, Iterable, Mapping, Optional, Sequence

from .config import BAND_NAMES, ScoringConfig, _DEDUCTION_FLOOR, _PER_SIDE_FIELDS
from .jsonio import _json_native, _quoted
from .scenario import (
    COOKING_ITEMS,
    EngineError,
    LADDER_DEPTH,
    NEVER_DONE_DEPTH,
    PM_TASKS,
    PmPolarity,
    ROUTE_IDEAL_UNITS,
    SIDES,
    SessionState,
    TASKS,
    TriggerKind,
    _final_state,
)
from .sessionlog import (
    IncompleteSession,
    MalformedLog,
    SessionLog,
    Telemetry,
    derive_telemetry,
)


def _invalid(reason: str) -> MalformedLog:
    return MalformedLog(f"log content failed scoring validation: {reason}")


# ---------------------------------------------------------------------------
# Recognition


@dataclass(frozen=True)
class RecognitionScore:
    points: int
    targets: int
    qualitative: int
    quantitative: int
    false_items: int


def _score_recognition(selected: Iterable[str], config: ScoringConfig) -> RecognitionScore:
    """Score a shopping-list recognition selection.

    2 points per intended item, 1 per related (qualitative or quantitative)
    variant, 0 per absent item.  The engine admits at most ten distinct
    items, which keeps the result inside [0, 20]; an item outside the
    configured catalog raises :class:`MalformedLog`.
    """
    targets = set(config.recognition_targets)
    qualitative = set(config.recognition_qualitative)
    quantitative = set(config.recognition_quantitative)
    false_items = set(config.recognition_false)
    n_target = n_qual = n_quant = n_false = 0
    for item in selected:
        if item in targets:
            n_target += 1
        elif item in qualitative:
            n_qual += 1
        elif item in quantitative:
            n_quant += 1
        elif item in false_items:
            n_false += 1
        else:
            raise _invalid(f"item {_quoted(item)} is not in the recognition catalog")
    points = 2 * n_target + (n_qual + n_quant)
    return RecognitionScore(points=points, targets=n_target, qualitative=n_qual,
                            quantitative=n_quant, false_items=n_false)


# ---------------------------------------------------------------------------
# Planning


@dataclass(frozen=True)
class PlanningScore:
    units_selected: int
    route_score: int
    time_modifier: int
    total: int
    completion_time_s: float
    time_z: float


_Z_STEPS = (1, 2)  # the modifier's steps, in SDs either side of the norm


def _planning_time_modifier(z: float) -> int:
    """Whole-point timing modifier from the normative z-score.

    The time earns a point for each step of :data:`_Z_STEPS` it is at or
    beyond on the fast side (z <= -1, z <= -2) and loses one for each on
    the slow side (z >= 1, z >= 2); the middle band is neutral.
    """
    return bisect_right(_Z_STEPS, -z) - bisect_right(_Z_STEPS, z)


def _score_planning(selected_units: Collection[int], completion_time_s: float,
                    config: ScoringConfig) -> PlanningScore:
    """Score the street-unit route: deviation from the ideal plus timing."""
    units = len(selected_units)
    route_score = max(0, ROUTE_IDEAL_UNITS - abs(units - ROUTE_IDEAL_UNITS))
    z = (completion_time_s - config.normative_route_mean_s) / config.normative_route_sd_s
    modifier = _planning_time_modifier(z)
    return PlanningScore(
        units_selected=units, route_score=route_score, time_modifier=modifier,
        total=route_score + modifier, completion_time_s=completion_time_s, time_z=z)


# ---------------------------------------------------------------------------
# Cooking


# Each item's first centisecond of every band after VeryEarly, in BAND_NAMES
# order.  The printed table is closed at every endpoint; working on an
# integer centisecond grid keeps the seven bands a gap-free partition.
_COOKING_EDGES_CS: dict[str, tuple[int, ...]] = {
    "omelette": (1400, 1600, 1800, 2201, 2400, 2601),
    "sausages": (1800, 2000, 2200, 2601, 2800, 3001),
    "kettle": (1100, 1300, 1500, 1701, 1900, 2101),
}


@dataclass(frozen=True)
class CookingItemScore:
    band: str
    points: int


def _to_centiseconds(seconds: float) -> int:
    # round half up on the centisecond grid
    return int(math.floor(seconds * 100.0 + 0.5))


def _classify_cooking_time(item: str, cook_time_s: float) -> str:
    """Name the timing band for one cooked item.

    Times are rounded half-up to centiseconds first; on that grid a band
    runs from its first centisecond to the next band's first, exclusive.  A
    time past the VeryLate edge is banded off the grid, so that a time of
    any size cannot overflow the conversion.
    """
    row = _COOKING_EDGES_CS[item]
    if cook_time_s * 100 >= row[-1]:
        return "VeryLate"
    return BAND_NAMES[bisect_right(row, _to_centiseconds(cook_time_s))]


def _score_cooking(cook_times_s: Mapping[str, float],
                   config: ScoringConfig) -> tuple[dict[str, CookingItemScore], int]:
    """Band and score all three items; items never placed rate VeryLate."""
    per_item: dict[str, CookingItemScore] = {}
    total = 0
    for item in COOKING_ITEMS:
        if item in cook_times_s:
            band = _classify_cooking_time(item, cook_times_s[item])
        else:
            band = "VeryLate"  # never taken off the heat
        points = int(config.band_points[band])
        per_item[item] = CookingItemScore(band=band, points=points)
        total += points
    return per_item, total


# ---------------------------------------------------------------------------
# Reminder cascades and conversation tasks


_CASCADE_POINTS = {0: 6, 1: 4, 2: 2, 3: 1, NEVER_DONE_DEPTH: 0}
# a point value for each depth the ladder can reach, and for never done
assert sorted(_CASCADE_POINTS) == [*range(LADDER_DEPTH + 1), NEVER_DONE_DEPTH]


def _score_prompt_cascade(depth_when_done: int) -> int:
    """Points for a graded reminder cascade.

    ``depth_when_done`` counts the prompts shown before the user acted
    (0..3); ``NEVER_DONE_DEPTH`` means the user never acted at all.
    """
    return _CASCADE_POINTS[depth_when_done]


def _score_npc_pm_positive(affirmed_at: int, choice: Optional[str],
                           config: ScoringConfig) -> int:
    """Points for a companion-conversation task.

    ``affirmed_at`` is the prompt (1..3) at which the user said yes, or 0 if
    they never did.  ``choice`` is the board item category picked after
    affirming; the engine finishes the scene only once it is chosen.
    """
    if affirmed_at == 0:
        return 0
    return int(config.npc_positive_matrix[str(affirmed_at)][choice])


_FALSE_REMINDERS = sum(task.polarity is PmPolarity.NEGATIVE for task in PM_TASKS.values())


def _score_npc_pm_negative(affirmed_at: int, config: ScoringConfig) -> int:
    """Deduction for a false reminder: 0 if resisted, else by prompt."""
    return int(config.npc_negative_deductions[str(affirmed_at)])


# ---------------------------------------------------------------------------
# Collection


@dataclass(frozen=True)
class CollectionScore:
    points: int
    errors: int


def _score_collection(grabs: Sequence[str], config: ScoringConfig) -> CollectionScore:
    """One point per distinct target gathered; every other grab is an error.

    Grabs are attempts, so repeated swipes at the same distractor each count
    as an error; a target can only be held once.
    """
    targets = set(config.collection_targets)
    collected: set[str] = set()
    errors = 0
    for item in grabs:
        if item in targets:
            if item in collected:
                raise _invalid(f"target {_quoted(item)} grabbed twice")
            collected.add(item)
        else:
            errors += 1
    return CollectionScore(points=len(collected), errors=errors)


# ---------------------------------------------------------------------------
# Attention


@dataclass(frozen=True)
class VisualAttentionScore:
    points: int
    responded: dict[str, dict[str, int]]  # side -> kind -> count


@dataclass(frozen=True)
class AuditoryAttentionScore:
    points: int
    responded: dict[str, dict[str, int]]  # stimulus side -> kind -> count
    side_matched: int
    side_mismatched: int
    false_alarms: int


def _count_responses(responses: Iterable[Mapping[str, Any]], config: ScoringConfig,
                     ride: str, side_field: str) -> dict[str, dict[str, int]]:
    """Count payloads per side and stimulus kind; more than a side shows is an error."""
    capacity = {kind: getattr(config, name) for kind, name in _PER_SIDE_FIELDS[ride].items()}
    counts = {side: dict.fromkeys(capacity, 0) for side in SIDES}
    for response in responses:
        side, kind = response[side_field], response["stimulus_kind"]
        counts[side][kind] += 1
        if counts[side][kind] > capacity[kind]:
            raise _invalid(f"more {kind} responses on the {side} than stimuli exist")
    return counts


def _score_visual_attention(responses: Iterable[Mapping[str, Any]],
                            config: ScoringConfig) -> VisualAttentionScore:
    """+1 per spotted target, -1 per spotted distractor, one spot each."""
    counts = _count_responses(responses, config, "visual", "side")
    points = sum(count if kind == "target" else -count
                 for per_kind in counts.values() for kind, count in per_kind.items())
    return VisualAttentionScore(points=points, responded=counts)


def _score_auditory_attention(responses: Iterable[Mapping[str, Any]],
                              config: ScoringConfig) -> AuditoryAttentionScore:
    """Side-matched target +2, cross-side target +1, distractor response -1.

    Stimuli that drew no response (``response_side`` None) score nothing and
    are not counted as detections.
    """
    answered = [r for r in responses if r["response_side"] is not None]
    counts = _count_responses(answered, config, "auditory", "stimulus_side")
    targets = [r for r in answered if r["stimulus_kind"] == "target"]
    matched = sum(r["response_side"] == r["stimulus_side"] for r in targets)
    mismatched = len(targets) - matched
    false_alarms = len(answered) - len(targets)
    return AuditoryAttentionScore(
        points=2 * matched + mismatched - false_alarms, responded=counts,
        side_matched=matched, side_mismatched=mismatched, false_alarms=false_alarms)


# ---------------------------------------------------------------------------
# Whole-session aggregation


@dataclass(frozen=True)
class PmOutcome:
    task_id: str
    polarity: str
    points: int
    prompt_depth: int  # depth when done (NEVER_DONE_DEPTH if never) or prompt affirmed
    choice: Optional[str] = None


@dataclass(frozen=True)
class TaskScorecard:
    notes_intent: tuple[bool, ...]
    immediate_recognition: RecognitionScore
    planning: PlanningScore
    cooking: dict[str, CookingItemScore]
    cooking_total: int
    pm: dict[str, PmOutcome]
    pm_positive_total: int
    pm_deductions_total: int
    collection: CollectionScore
    visual: VisualAttentionScore
    delayed_recognition: RecognitionScore
    auditory: AuditoryAttentionScore
    telemetry: Telemetry = field(compare=False, default_factory=Telemetry)


def aggregate_scorecard(log: SessionLog, config: ScoringConfig) -> TaskScorecard:
    """Run a complete session log through the engine and score every task.

    Raises :class:`MalformedLog` if the engine or a check of the config
    rejects the log, and :class:`IncompleteSession` if the log never
    reaches the scenario's final button.
    """
    try:
        final_state = _final_state(log.events)
    except EngineError as exc:
        raise MalformedLog(f"log rejected by the scenario engine: {exc}") from exc
    return score_session(log, final_state, config)


def score_session(log: SessionLog, final_state: SessionState,
                  config: ScoringConfig) -> TaskScorecard:
    """Score every task of an engine-accepted log from its final state.

    ``final_state`` must be the state the engine ends in after ``log.events``
    (what :func:`~errandlab.scenario.replay` returns); the simulator holds it
    already, so a simulated session is scored without a second engine pass.
    Raises :class:`IncompleteSession` if that state never reached the
    scenario's final button, and :class:`MalformedLog` if a check of the
    config rejects the log.
    """
    if not final_state.completed:
        raise IncompleteSession("log ends before the scenario's final button")
    telemetry = derive_telemetry(log)
    groups = log.events_by_key

    def payloads(task: str) -> list[dict[str, Any]]:
        scene_id, kind, *_ = TASKS[task]
        return [event.payload for event in groups.get((scene_id, kind), ())]

    immediate = _score_recognition(
        [p["item"] for p in payloads("immediate_recognition")], config)
    delayed = _score_recognition([p["item"] for p in payloads("delayed_recognition")], config)
    collection = _score_collection([p["item"] for p in payloads("collection")], config)
    visual_score = _score_visual_attention(payloads("visual_attention"), config)
    auditory_score = _score_auditory_attention(payloads("auditory_attention"), config)
    planning = _score_planning(final_state.route_selected,
                               telemetry.task_time_s.get("planning", 0.0), config)
    cooking, cooking_total = _score_cooking(
        {p["item"]: p["cook_time_s"] for p in payloads("cooking")}, config)

    pm: dict[str, PmOutcome] = {}
    positive_total = 0
    deductions_total = 0
    for _, task in sorted(PM_TASKS.items()):
        choice = None
        if task.trigger is TriggerKind.NPC_DIALOGUE:
            depth = final_state.npc_affirmed_at.get(task.task_id, 0)
            choice = final_state.npc_choice.get(task.task_id)
            if task.polarity is PmPolarity.POSITIVE:
                points = _score_npc_pm_positive(depth, choice, config)
            else:
                points = _score_npc_pm_negative(depth, config)
        else:
            depth = final_state.pm_done_depth.get(task.task_id, NEVER_DONE_DEPTH)
            points = _score_prompt_cascade(depth)
        pm[task.task_id] = PmOutcome(
            task_id=task.task_id, polarity=task.polarity.value,
            points=points, prompt_depth=depth, choice=choice)
        if task.polarity is PmPolarity.POSITIVE:
            positive_total += points
        else:
            deductions_total += points

    # each false reminder deducts at most the config's floor
    assert _DEDUCTION_FLOOR * _FALSE_REMINDERS <= deductions_total <= 0

    return TaskScorecard(
        notes_intent=telemetry.notes_intent,
        immediate_recognition=immediate,
        planning=planning,
        cooking=cooking,
        cooking_total=cooking_total,
        pm=pm,
        pm_positive_total=positive_total,
        pm_deductions_total=deductions_total,
        collection=collection,
        visual=visual_score,
        delayed_recognition=delayed,
        auditory=auditory_score,
        telemetry=telemetry,
    )


def scorecard_to_dict(card: TaskScorecard) -> dict:
    """JSON-native rendering of a scorecard, telemetry included.

    Every dataclass becomes a dict of its fields, every tuple a list and
    every key a string (the telemetry's scene ids are ints), so the result
    equals what ``json.loads`` reads back from its ``json.dumps`` text.
    """
    return _json_native(card)

