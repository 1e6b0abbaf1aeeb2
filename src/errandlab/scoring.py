"""Task scoring rules for the errand battery.

The scoring API is :func:`aggregate_scorecard`, :func:`score_session` and
:func:`scorecard_to_dict`.  :func:`aggregate_scorecard` replays a full session
log through the scenario engine (rejecting anything the engine rejects), then
:func:`score_session` looks each task up in :data:`~errandlab.scenario.TASKS`,
reads the payloads of its input events from the log's (scene, kind) groups
(:attr:`~errandlab.sessionlog.SessionLog.events_by_key`), the route and the
reminders from the engine's final state, and applies every private per-task
scorer with the :class:`~errandlab.config.ScoringConfig` in force.  The
simulator, which already holds the engine's final state, calls
:func:`score_session` directly.

The scorers' inputs come from engine-accepted logs, so they read the payloads
as the engine validated them, trust what it established (known names, no
repeats, prompts in order) and check only what depends on the config, which
the engine never sees: the recognition catalog, the collection targets and
the stimuli per side.

Scoring summary:

* Recognition boards (immediate and delayed): 2 points per intended item
  selected, 1 point per related variant (qualitative or quantitative),
  0 per absent item; 10 intended items, so 20 is the ceiling.
* Route planning: 15 minus the absolute deviation from the ideal 15 street
  units, floored at 0, then a timing modifier in whole-point steps of the
  normative z-score (fast is rewarded, slow penalised, two points max).
* Cooking: each of the three items lands in one of seven timing bands;
  band points default to 3/2/1/0 symmetric around OnTime.
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
from dataclasses import dataclass, field
from typing import Any, Collection, Iterable, Mapping, Optional, Sequence

from .config import ScoringConfig, _PER_SIDE_FIELDS
from .scenario import (
    COOKING_ITEMS,
    EngineError,
    NEVER_DONE_DEPTH,
    PM_TASKS,
    PmPolarity,
    ROUTE_IDEAL_UNITS,
    SIDES,
    SessionState,
    TASKS,
    TriggerKind,
    replay,
)
from .sessionlog import (
    IncompleteSession,
    MalformedLog,
    SessionLog,
    Telemetry,
    derive_telemetry,
)


class ScoringError(Exception):
    """Base class for scoring-input problems."""


class UnknownItem(ScoringError):
    """A selection names an item outside the configured catalog."""


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
    configured catalog raises :class:`UnknownItem`.
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
            raise UnknownItem(f"item {item!r} is not in the recognition catalog")
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


def _planning_time_modifier(z: float) -> int:
    """Whole-point timing modifier from the normative z-score.

    Two or more SDs faster than the norm earns +2, between one and two +1;
    the mirror-image slowness costs -1 and -2; the middle band is neutral.
    """
    if z <= -2:
        return 2
    if z <= -1:
        return 1
    if z < 1:
        return 0
    if z < 2:
        return -1
    return -2


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


# Centisecond band edges per item: (very_early_hi, on_time_lo, on_time_hi,
# very_late_lo).  The printed table is closed at every endpoint; working on
# an integer centisecond grid keeps the seven bands a gap-free partition.
_COOKING_EDGES_CS: dict[str, tuple[int, int, int, int]] = {
    "omelette": (1399, 1800, 2200, 2601),
    "sausages": (1799, 2200, 2600, 3001),
    "kettle": (1099, 1500, 1700, 2101),
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

    Times are rounded half-up to centiseconds first; the printed band edges
    are closed on both sides, so the rounded grid partitions cleanly.  A
    time past the VeryLate edge is banded off the grid, so that a time of
    any size cannot overflow the conversion.
    """
    very_early_hi, on_time_lo, on_time_hi, very_late_lo = _COOKING_EDGES_CS[item]
    if cook_time_s * 100 >= very_late_lo:
        return "VeryLate"
    cs = _to_centiseconds(cook_time_s)
    if cs <= very_early_hi:
        return "VeryEarly"
    if cs < on_time_lo - 200:
        return "Early"
    if cs < on_time_lo:
        return "SlightlyEarly"
    if cs <= on_time_hi:
        return "OnTime"
    if cs < on_time_hi + 200:
        return "SlightlyLate"
    if cs < very_late_lo:
        return "Late"
    return "VeryLate"


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
                raise ScoringError(f"target {item!r} grabbed twice")
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
            raise ScoringError(f"more {kind} responses on the {side} than stimuli exist")
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
    """Replay a complete session log and score every task.

    Raises :class:`MalformedLog` if the engine rejects any event and
    :class:`IncompleteSession` if the log never reaches the scenario's
    final button.
    """
    try:
        final_state, _ = replay(log.events)
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
    scenario's final button.
    """
    if not final_state.completed:
        raise IncompleteSession("log ends before the scenario's final button")
    telemetry = derive_telemetry(log)
    groups = log.events_by_key

    def payloads(task: str) -> list[dict[str, Any]]:
        scene_id, kind, *_ = TASKS[task]
        return [event.payload for event in groups.get((scene_id, kind), ())]

    try:
        immediate = _score_recognition(
            [p["item"] for p in payloads("immediate_recognition")], config)
        delayed = _score_recognition(
            [p["item"] for p in payloads("delayed_recognition")], config)
        collection = _score_collection(
            [p["item"] for p in payloads("collection")], config)
        visual_score = _score_visual_attention(payloads("visual_attention"), config)
        auditory_score = _score_auditory_attention(
            payloads("auditory_attention"), config)
    except ScoringError as exc:
        raise MalformedLog(f"log content failed scoring validation: {exc}") from exc
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

    # two false reminders at -3 apiece bound the total deduction
    assert -6 <= deductions_total <= 0

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
    sorts and compares as its JSON text reads back.
    """
    return _json_native(card)


_JSON_LEAVES = (str, int, float, type(None))  # bool is an int


def _json_native(value: Any) -> Any:
    # A walk over the dataclass fields that shares the leaves instead of
    # deep-copying them the way dataclasses.asdict does.
    if isinstance(value, _JSON_LEAVES):
        return value
    if isinstance(value, dict):
        return {str(key): _json_native(item) for key, item in value.items()}
    if isinstance(value, (tuple, list)):
        return [_json_native(item) for item in value]
    return {name: _json_native(item) for name, item in vars(value).items()}
