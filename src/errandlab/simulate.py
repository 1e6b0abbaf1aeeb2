"""Seeded participant simulator that drives the scenario engine.

The simulator exists to exercise the engine and the scorers, not to model
cognition.  A :class:`ParticipantProfile` holds the behavioral dials (hit
probabilities, prompt compliance, timing noise, response latency); a session
is generated by walking the 22 scenes in order and feeding each event to the
scenario engine (the in-place core of :func:`errandlab.scenario.advance`),
so every generated log is engine-accepted by construction.

Determinism contract: each scene draws from its own stream,
``random.Random((seed mod 2**64) * 32 + scene_id)``, built on its first draw,
so identical ``(profile, seed, config)`` inputs always reproduce the same log
byte for byte, and editing one scene's behavior model cannot perturb another
scene's draws.  Every draw is built from ``Random.random()``, whose sequence
Python keeps across versions, so the logs are the same under every interpreter.

The simulated clock targets ``config.session_target_s`` (default 3 732 s,
about an hour); each scene gets a fixed share of that budget.  The driver
enters each scene, lets the scene's behaviour model play it, and exits it at
its entry plus its share (or at its last event, if that is later), so the
total session duration is stable across profiles.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from random import Random
from typing import Any, Callable, Iterator, Mapping, Optional, Sequence

from .config import ScoringConfig, _PER_SIDE_FIELDS, config_hash, default_config
from .jsonio import (ConfigError, _is_int, _is_number, _json_native, _quoted, _record, read_json,
                     write_json)
from .scenario import (
    COOKING_ITEMS,
    EVENT_SCENES,
    EventKind,
    GATED_SCENES,
    LADDER_DEPTH,
    NOTES_INTENT_PROMPTS,
    NPC_SCENES,
    NpcChoice,
    PM_TASKS,
    PRACTICE_TARGETS,
    PmDelay,
    PmPolarity,
    ROUTE_IDEAL_UNITS,
    ROUTE_UNIT_COUNT,
    SCENES_BY_ID,
    SHOPPING_LIST_LENGTH,
    SIDES,
    SessionEvent,
    SessionState,
    TUTORIAL_SCENES,
    _MAX_CLOCK_MS,
    _apply,
    initial_state,
    scene_sequence,
)
from .scoring import _COOKING_EDGES_CS, TaskScorecard, score_session
from .sessionlog import SessionLog


class LengthMismatch(Exception):
    """Cohort profiles and seeds differ in length."""


# Per-scene share of the simulated clock, in seconds; the shares add up to
# the default config.session_target_s and scale linearly with it.
_NOMINAL_DURATION_S: dict[int, int] = {
    1: 180, 2: 180, 3: 300, 4: 180, 5: 180, 6: 300, 7: 120, 8: 240,
    9: 180, 10: 150, 11: 150, 12: 150, 13: 90, 14: 240, 15: 120, 16: 90,
    17: 120, 18: 150, 19: 180, 20: 90, 21: 90, 22: 252,
}
assert sum(_NOMINAL_DURATION_S.values()) == ScoringConfig.session_target_s

# Cooking removal targets: the midpoint of each item's on-time window, from
# OnTime's first centisecond, row[2], to its last, row[3] - 1.
_COOKING_MIDPOINT_S = {item: (row[2] + row[3] - 1) / 200.0
                       for item, row in _COOKING_EDGES_CS.items()}

_PRACTICE_ATTEMPT_CAP = 5

# Scene sid's stream is seeded (seed mod 2**64) * _STREAMS_PER_SEED + sid:
# one-to-one while every scene id is below the multiplier, and never
# negative (Random seeds an int by its absolute value).
_STREAMS_PER_SEED = 32
assert max(SCENES_BY_ID) < _STREAMS_PER_SEED
# A normal draw z is Irwin-Hall (_normal), so |z| <= 6.  An sd up to the
# largest double / 6 keeps every midpoint + sd * z finite.
_MAX_NORMAL_Z = 6
_MAX_COOKING_SD_S = sys.float_info.max / _MAX_NORMAL_Z


@dataclass(frozen=True)
class ParticipantProfile:
    """Behavioral dials for one simulated participant.

    ``pm_hit_prob`` maps reminder delay (short/medium/long) to the chance of
    performing the task before any prompt; ``prompt_yield_probs`` gives the
    chance of complying after prompts 1..``LADDER_DEPTH``.  Attention probabilities drive
    the rides, the practice gates, and item collection; the false-alarm
    probability doubles as the chance of affirming a false reminder.
    """

    pm_hit_prob: Mapping[str, float] = field(
        default_factory=lambda: {"short": 0.7, "medium": 0.5, "long": 0.35})
    prompt_yield_probs: tuple[float, ...] = (0.6, 0.7, 0.8)
    recognition_target_prob: float = 0.85
    recognition_distractor_prob: float = 0.12
    planning_extra_units: int = 2
    cooking_timing_sd_s: float = 3.0
    attention_hit_prob: float = 0.85
    attention_false_alarm_prob: float = 0.08
    wrong_controller_prob: float = 0.1
    notes_use_prob: float = 0.6
    latency_mean_ms: float = 900.0
    latency_sd_ms: float = 300.0

    def __post_init__(self) -> None:
        delays = {d.value for d in PmDelay}
        if not isinstance(self.pm_hit_prob, Mapping) or set(self.pm_hit_prob) != delays:
            raise ValueError(f"pm_hit_prob needs exactly the keys {sorted(delays)}")
        if not isinstance(self.prompt_yield_probs, (list, tuple)):
            raise ValueError(f"prompt_yield_probs must be a list of {LADDER_DEPTH} probabilities")
        if len(self.prompt_yield_probs) != LADDER_DEPTH:
            raise ValueError(f"prompt_yield_probs must have {LADDER_DEPTH} entries")
        probs = [*((f"pm_hit_prob[{key!r}]", p) for key, p in self.pm_hit_prob.items()),
                 *((f"prompt_yield_probs[{i}]", p)
                   for i, p in enumerate(self.prompt_yield_probs)),
                 *((name, getattr(self, name)) for name in (
                     "recognition_target_prob", "recognition_distractor_prob",
                     "attention_hit_prob", "attention_false_alarm_prob",
                     "wrong_controller_prob", "notes_use_prob"))]
        # bool is a subclass of int, and no field here takes one
        for name, p in probs:
            if not (_is_number(p) and 0.0 <= p <= 1.0):  # NaN fails too
                raise ValueError(
                    f"probability {name} = {_quoted(p)} is not a number in [0, 1]")
        if not (_is_int(self.planning_extra_units) and self.planning_extra_units >= 0):
            raise ValueError("planning_extra_units must be a non-negative integer")
        for name in ("cooking_timing_sd_s", "latency_mean_ms", "latency_sd_ms"):
            value = getattr(self, name)
            if not (_is_number(value) and 0 <= value <= sys.float_info.max):
                raise ValueError(f"{name} must be a non-negative finite number")
        # a cook time is a midpoint plus cooking_timing_sd_s times a normal draw
        if self.cooking_timing_sd_s > _MAX_COOKING_SD_S:
            raise ValueError(f"cooking_timing_sd_s must be at most {_MAX_COOKING_SD_S:.6g} "
                             f"(the largest double / {_MAX_NORMAL_Z})")
        # each latency is added to the millisecond clock, which ends at 2**53
        for name in ("latency_mean_ms", "latency_sd_ms"):
            if getattr(self, name) > _MAX_CLOCK_MS:
                raise ValueError(f"{name} must be at most 2**53 ms")


def default_profile() -> ParticipantProfile:
    return ParticipantProfile()


def perfect_profile() -> ParticipantProfile:
    """Every action performed, no false alarms, no timing noise."""
    return ParticipantProfile(
        pm_hit_prob={"short": 1.0, "medium": 1.0, "long": 1.0},
        prompt_yield_probs=(1.0, 1.0, 1.0),
        recognition_target_prob=1.0, recognition_distractor_prob=0.0,
        planning_extra_units=0, cooking_timing_sd_s=0.0,
        attention_hit_prob=1.0, attention_false_alarm_prob=0.0,
        wrong_controller_prob=0.0, notes_use_prob=1.0,
        latency_mean_ms=600.0, latency_sd_ms=0.0)


def null_profile() -> ParticipantProfile:
    """No optional action is ever taken; the session still completes."""
    return ParticipantProfile(
        pm_hit_prob={"short": 0.0, "medium": 0.0, "long": 0.0},
        prompt_yield_probs=(0.0, 0.0, 0.0),
        recognition_target_prob=0.0, recognition_distractor_prob=0.0,
        planning_extra_units=0, cooking_timing_sd_s=0.0,
        attention_hit_prob=0.0, attention_false_alarm_prob=0.0,
        wrong_controller_prob=0.0, notes_use_prob=0.0,
        latency_mean_ms=800.0, latency_sd_ms=0.0)


PROFILE_PRESETS = {
    "default": default_profile,
    "perfect": perfect_profile,
    "null": null_profile,
}


def profile_to_dict(profile: ParticipantProfile) -> dict[str, Any]:
    """A JSON-native dict of the dials: it equals ``json.loads`` of its ``json.dumps``."""
    return _json_native(profile)


def profile_from_dict(data: Mapping[str, Any]) -> ParticipantProfile:
    """Build a profile from a (possibly partial) JSON mapping over defaults."""
    return _record(ParticipantProfile, data, "profile", "fields")


def load_profile(path: str) -> ParticipantProfile:
    """Read a JSON profile file over the default dials; a fault in its
    content is a ConfigError that names ``path``."""
    return read_json(path, profile_from_dict)


def save_profile(profile: ParticipantProfile, path: str) -> None:
    write_json(path, profile_to_dict(profile))


# ---------------------------------------------------------------------------
# Session builder


class _SessionBuilder:
    """Feeds events through the engine, each timed from the engine's clock."""

    def __init__(self, profile: ParticipantProfile, config: ScoringConfig,
                 seed: int) -> None:
        self.profile = profile
        self.config = config
        self.state: SessionState = initial_state()
        self.events: list[SessionEvent] = []
        self._streams = (seed % 2**64) * _STREAMS_PER_SEED
        self._rng: Optional[Random] = None

    @property
    def rng(self) -> Random:
        # The current scene's stream, built on the scene's first draw: a
        # scene that never draws builds none.  (A class __getattr__ would
        # make the later reads free, but on Python 3.11 it stops the
        # interpreter from specializing every attribute read on the builder.)
        rng = self._rng
        if rng is None:
            rng = self._rng = Random(self._streams + self.state.current_scene)
        return rng

    def latency_ms(self) -> int:
        p = self.profile
        raw = p.latency_mean_ms + p.latency_sd_ms * _normal(self.rng)
        return max(0, int(round(raw)))

    def _emit(self, at_ms: int, kind: EventKind,
              payload: Optional[dict[str, Any]] = None) -> None:
        if at_ms > _MAX_CLOCK_MS:
            raise ConfigError(
                "the simulated session runs past 2**53 ms; lower latency_mean_ms, "
                "latency_sd_ms or session_target_s")
        # positional: a keyword call costs more, once per event
        event = SessionEvent(len(self.events), at_ms, self.state.current_scene,
                             kind, payload or {})
        _apply(self.state, event)  # the builder owns its state
        self.events.append(event)

    def enter(self) -> None:
        self._rng = None
        self._emit(self.state.sim_clock_ms, EventKind.SCENE_ENTERED)

    def act(self, kind: EventKind, payload: Optional[dict[str, Any]] = None, *,
            at_offset_ms: Optional[int] = None) -> None:
        # a latency after the last event, or at the offset from the scene's entry
        state = self.state
        at_ms = (state.sim_clock_ms + self.latency_ms() if at_offset_ms is None
                 else max(state.sim_clock_ms, state.scene.entry_ms + at_offset_ms))
        self._emit(at_ms, kind, payload)


# --- draws, each built from Random.random() alone --------------------------


def _normal(rng: Random) -> float:
    # Irwin-Hall, -6 <= z < 6: twelve uniforms added left to right (sum()
    # adds floats with compensation from Python 3.12 on), less 6
    r = rng.random
    return r() + r() + r() + r() + r() + r() + r() + r() + r() + r() + r() + r() - 6.0


def _shuffled(rng: Random, items: Sequence[Any], count: Optional[int] = None) -> list[Any]:
    """The first ``count`` (default all) of ``items`` in a seeded order (Fisher-Yates)."""
    out = list(items)
    for i in range(len(out) - 1 if count is None else count):
        j = i + int(rng.random() * (len(out) - i))
        out[i], out[j] = out[j], out[i]
    return out[:count]


def _poisson(rng: Random, mean: int, cap: int) -> int:
    """A Poisson draw by inversion, capped at ``cap``."""
    mean_f = float(min(mean, 2**64))  # exp(-2**64) is 0 already; a larger int overflows
    u, k = rng.random(), 0
    prob = cumulative = math.exp(-mean_f)
    while cumulative <= u and k < cap:
        k += 1
        prob *= mean_f / k
        cumulative += prob
    return k


def _maybe_use_notes(b: _SessionBuilder) -> None:
    if b.rng.random() < b.profile.notes_use_prob:
        b.act(EventKind.NOTE_OPENED)
        b.act(EventKind.NOTE_CLOSED)


# --- per-scene behavior models ---------------------------------------------


def _plain_tutorial(b: _SessionBuilder, duration_ms: int) -> None:
    b.act(EventKind.TUTORIAL_COMPLETED, at_offset_ms=duration_ms // 2)


def _notes_tutorial(b: _SessionBuilder, duration_ms: int) -> None:
    # the notes tutorial invites opening the notes at least once
    _maybe_use_notes(b)
    _plain_tutorial(b, duration_ms)


def _gated_tutorial(b: _SessionBuilder, duration_ms: int) -> None:
    p = b.profile
    for attempt in range(1, _PRACTICE_ATTEMPT_CAP + 1):
        if attempt == _PRACTICE_ATTEMPT_CAP:
            targets, distractors = PRACTICE_TARGETS, 0  # the front end coaches until passed
        else:
            targets = sum(b.rng.random() < p.attention_hit_prob for _ in range(PRACTICE_TARGETS))
            distractors = sum(b.rng.random() < p.attention_false_alarm_prob for _ in range(3))
        b.act(EventKind.PRACTICE_ATTEMPT,
              {"targets_hit": targets, "distractors_hit": distractors})
        if b.state.scene.resolved:  # the gate passed
            break


def _recognition_pick(b: _SessionBuilder, kind: EventKind, payload_key: str) -> None:
    # Walk the shelf in a seeded order, deciding item by item until the
    # ten-slot basket is full.
    p = b.profile
    c = b.config
    targets = c.recognition_targets
    catalog = (c.recognition_targets + c.recognition_qualitative
               + c.recognition_quantitative + c.recognition_false)
    picked = 0
    for item in _shuffled(b.rng, catalog):
        prob = (p.recognition_target_prob if item in targets
                else p.recognition_distractor_prob)
        if b.rng.random() < prob:
            b.act(kind, {payload_key: item})
            picked += 1
            if picked >= SHOPPING_LIST_LENGTH:
                break


def _scene_planning(b: _SessionBuilder, duration_ms: int) -> None:
    p = b.profile
    for index in range(1, NOTES_INTENT_PROMPTS + 1):
        b.act(EventKind.NOTES_INTENT_ANSWERED,
              {"prompt_index": index, "yes": b.rng.random() < p.notes_use_prob})
    _recognition_pick(b, EventKind.ITEM_SELECTED, "item")
    deviation = 0
    if p.planning_extra_units > 0:
        # a deviation of ROUTE_UNIT_COUNT already takes every unit, or one
        deviation = _poisson(b.rng, p.planning_extra_units, ROUTE_UNIT_COUNT)
        if b.rng.random() < 0.5:
            deviation = -deviation
    n_units = min(ROUTE_UNIT_COUNT, max(1, ROUTE_IDEAL_UNITS + deviation))
    for unit in _shuffled(b.rng, range(1, ROUTE_UNIT_COUNT + 1), n_units):
        b.act(EventKind.ROUTE_UNIT_TOGGLED, {"unit": unit, "selected": True})
    b.act(EventKind.ROUTE_SUBMITTED)


def _event_cascade(b: _SessionBuilder, trigger: EventKind, action: EventKind) -> None:
    # The reminder dance shared by breakfast (final button) and leaving the
    # flat (exit attempt): maybe act before touching the trigger, then keep
    # triggering, maybe complying after the one prompt each press may show,
    # until the engine ends the scene (the task done, or its last prompt ignored).
    p = b.profile
    scene = b.state.scene
    if b.rng.random() < p.pm_hit_prob[PM_TASKS[b.state.current_scene].delay.value]:
        b.act(action)
    while not scene.resolved:
        shown = scene.prompt_depth
        b.act(trigger)
        if scene.prompt_depth > shown and b.rng.random() < p.prompt_yield_probs[shown]:
            b.act(action)


def _scene_breakfast(b: _SessionBuilder, duration_ms: int) -> None:
    p = b.profile
    _maybe_use_notes(b)
    for item in COOKING_ITEMS:
        noise = p.cooking_timing_sd_s * _normal(b.rng)
        cook_time = max(0.0, _COOKING_MIDPOINT_S[item] + noise)
        b.act(EventKind.COOKING_ITEM_PLACED,
              {"item": item, "cook_time_s": round(cook_time, 2)})
    _event_cascade(b, EventKind.FINAL_BUTTON_PRESSED, EventKind.MEDICATION_TAKEN)


def _scene_collect_and_pie(b: _SessionBuilder, duration_ms: int) -> None:
    p = b.profile
    _maybe_use_notes(b)
    for items, prob in ((b.config.collection_targets, p.attention_hit_prob),
                        (b.config.collection_distractors, p.attention_false_alarm_prob)):
        for item in items:
            if b.rng.random() < prob:
                b.act(EventKind.ITEM_SELECTED, {"item": item})
    _event_cascade(b, EventKind.EXIT_ATTEMPTED, EventKind.PIE_REMOVED)


_WRONG_CHOICES = tuple(c.value for c in NpcChoice if c is not NpcChoice.CORRECT)


def _scene_npc(b: _SessionBuilder, duration_ms: int) -> None:
    # The companion's first question is already showing (engine emits it on
    # entry).  Answer the question showing until the engine opens the item
    # board (a positive task affirmed) or ends the conversation (a false one
    # affirmed, or the last question refused).
    p = b.profile
    state = b.state
    scene_id = state.current_scene
    task = PM_TASKS[scene_id]
    if task.polarity is PmPolarity.POSITIVE:
        yes_probs = (p.pm_hit_prob[task.delay.value], *p.prompt_yield_probs[1:])
    else:
        yes_probs = (p.attention_false_alarm_prob,) * len(p.prompt_yield_probs)
    while not state.scene.resolved and not state.scene.awaiting_choice:
        index = state.scene.prompt_depth
        b.act(EventKind.NPC_PROMPT_ANSWERED,
              {"prompt_index": index, "yes": b.rng.random() < yes_probs[index - 1]})
    if state.scene.awaiting_choice:
        choice = (NpcChoice.CORRECT.value if b.rng.random() < p.recognition_target_prob
                  else _WRONG_CHOICES[int(b.rng.random() * len(_WRONG_CHOICES))])
        b.act(EventKind.NPC_ITEM_CHOSEN, {"choice": choice})
    if (state.npc_affirmed_at[task.task_id]
            and scene_id in EVENT_SCENES[EventKind.KEYS_GIVEN]):
        b.act(EventKind.KEYS_GIVEN)


def _ride(b: _SessionBuilder, ride: str,
          duration_ms: int) -> Iterator[tuple[int, str, str, int, bool]]:
    # The ride's fixed inventory of (kind, side) stimuli in a seeded order,
    # spread over the first 80% of the ride: yields each one's index, kind,
    # side, offset and whether it was responded to.  Each response is drawn
    # as its stimulus is yielded, so the caller's own draws for it come
    # before the next one's.
    p = b.profile
    inventory = [(kind, side) for kind, name in _PER_SIDE_FIELDS[ride].items()
                 for side in SIDES for _ in range(getattr(b.config, name))]
    step = max(1, (duration_ms * 8 // 10) // max(1, len(inventory)))
    for index, (kind, side) in enumerate(_shuffled(b.rng, inventory)):
        hit_p = p.attention_hit_prob if kind == "target" else p.attention_false_alarm_prob
        yield index, kind, side, (index + 1) * step, b.rng.random() < hit_p


def _scene_visual_ride(b: _SessionBuilder, duration_ms: int) -> None:
    for index, kind, side, offset, hit in _ride(b, "visual", duration_ms):
        if hit:
            b.act(EventKind.POSTER_SPOTTED,
                  {"stimulus_id": f"poster_{index:02d}", "stimulus_kind": kind,
                   "side": side},
                  at_offset_ms=offset)


def _scene_auditory_ride(b: _SessionBuilder, duration_ms: int) -> None:
    for index, kind, side, offset, hit in _ride(b, "auditory", duration_ms):
        response: Optional[str] = None
        if hit:
            response = side
            if b.rng.random() < b.profile.wrong_controller_prob:
                response = SIDES[1 - SIDES.index(side)]
        b.act(EventKind.SOUND_TRIGGERED,
              {"stimulus_id": f"sound_{index:02d}", "stimulus_kind": kind,
               "stimulus_side": side, "response_side": response},
              at_offset_ms=offset)


def _scene_supermarket(b: _SessionBuilder, duration_ms: int) -> None:
    _maybe_use_notes(b)
    _recognition_pick(b, EventKind.SHOPPING_COLLECTED, "item")
    b.act(EventKind.FINAL_BUTTON_PRESSED)  # the till ends the shop


def _scene_finale(b: _SessionBuilder, duration_ms: int) -> None:
    p = b.profile
    task = PM_TASKS[b.state.current_scene]
    # a dose comes at least 10 s before the first reminder, or 1 s before the next
    offsets = task.timer_offsets_ms
    reply_within = min((nxt - off for off, nxt in zip(offsets, offsets[1:])),
                       default=duration_ms) - 1_000
    stow_at = min(30_000, duration_ms // 4)
    for offset, item in enumerate(b.config.recognition_targets[:2]):
        b.act(EventKind.ITEM_STOWED, {"item": item},
              at_offset_ms=stow_at + offset * 5_000)
    if b.rng.random() < p.pm_hit_prob[task.delay.value]:
        b.act(EventKind.MEDICATION_TAKEN,
              at_offset_ms=min(offsets[0] - 10_000, max(duration_ms // 2, stow_at + 10_000)))
    else:
        for depth, offset_ms in enumerate(offsets, start=1):
            if b.rng.random() < p.prompt_yield_probs[depth - 1]:
                b.act(EventKind.MEDICATION_TAKEN,
                      at_offset_ms=offset_ms + min(b.latency_ms(), reply_within))
                break
    # unless it was taken, the final button waits 5 s past the last reminder
    taken = task.task_id in b.state.pm_done_depth
    b.act(EventKind.FINAL_BUTTON_PRESSED,
          at_offset_ms=duration_ms if taken else max(duration_ms, offsets[-1] + 5_000))


# Scene id -> the behaviour model that plays the scene, given the builder and
# the scene's duration in milliseconds; the driver enters and exits it.
_SCENE_MODELS: dict[int, Callable[[_SessionBuilder, int], None]] = {
    **dict.fromkeys(TUTORIAL_SCENES - GATED_SCENES - {4}, _plain_tutorial),
    **dict.fromkeys(GATED_SCENES, _gated_tutorial),
    **dict.fromkeys(NPC_SCENES, _scene_npc),
    3: _scene_planning,
    4: _notes_tutorial,
    6: _scene_breakfast,
    8: _scene_collect_and_pie,
    12: _scene_visual_ride,
    14: _scene_supermarket,
    19: _scene_auditory_ride,
    22: _scene_finale,
}
assert sorted(_SCENE_MODELS) == sorted(SCENES_BY_ID)


# ---------------------------------------------------------------------------
# Entry points


def simulate_session(profile: ParticipantProfile, seed: int,
                     config: Optional[ScoringConfig] = None) -> SessionLog:
    """Generate one complete, engine-accepted session log.

    Deterministic in ``(profile, seed, config)``; the log replays through
    the engine with zero errors and scores without raising.  Raises
    :class:`~errandlab.jsonio.ConfigError` if the profile's latencies would
    run the session clock past 2**53 ms.
    """
    cfg = config if config is not None else default_config()
    log, _ = _simulate(profile, seed, cfg, config_hash(cfg))
    return log


def _simulate(profile: ParticipantProfile, seed: int, config: ScoringConfig,
              cfg_hash: str) -> tuple[SessionLog, SessionState]:
    # The log stamped with the caller's hash of ``config``, and the state the
    # engine ends in after its events: what replaying the log would return.
    builder = _SessionBuilder(profile, config, seed)
    scale = config.session_target_s / sum(_NOMINAL_DURATION_S.values())

    for descriptor in scene_sequence():
        sid = descriptor.scene_id
        builder.enter()
        duration_ms = max(1_000, int(_NOMINAL_DURATION_S[sid] * scale * 1000))
        _SCENE_MODELS[sid](builder, duration_ms)
        builder.act(EventKind.SCENE_EXITED, at_offset_ms=duration_ms)

    # The order needs no second check: seq is the event's index, and the
    # engine raised OutOfOrderEvent on any step back in time.
    log = SessionLog(seed=seed, config_hash=cfg_hash, events=tuple(builder.events))
    return log, builder.state


def simulate_cohort(profiles: Sequence[ParticipantProfile], seeds: Sequence[int],
                    config: Optional[ScoringConfig] = None,
                    ) -> list[tuple[SessionLog, TaskScorecard]]:
    """Simulate and score independent sessions, order-stable.

    Each session is scored from the engine state the simulator ends in, with
    no replay, and the config is hashed once for the whole cohort.  Raises
    :class:`LengthMismatch` when the input lists differ in length.
    """
    if len(profiles) != len(seeds):
        raise LengthMismatch(
            f"{len(profiles)} profiles vs {len(seeds)} seeds")
    cfg = config if config is not None else default_config()
    cfg_hash = config_hash(cfg)
    out: list[tuple[SessionLog, TaskScorecard]] = []
    for profile, seed in zip(profiles, seeds):
        log, final_state = _simulate(profile, seed, cfg, cfg_hash)
        out.append((log, score_session(final_state, cfg)))
    return out
