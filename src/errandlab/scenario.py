"""Discrete-event state machine for the 22-scene errand scenario.

The scenario is a fixed linear sequence of scenes: nine tutorials that teach
one interaction each and thirteen storyline scenes that carry the assessed
tasks (list learning, route planning, multitask cooking, reminder cascades,
character conversations, item collection, attention rides, and a timed
finale).  The engine is deliberately engine-agnostic: it consumes timestamped
:class:`SessionEvent` records that a front end or simulator produces and
changes a :class:`SessionState`; :func:`advance` and :func:`replay` read each
event's :class:`Effect` values (prompts, transitions, retry signals, session
completion) off that change.  It never does I/O and never draws randomness.

Core invariants, enforced here and property-tested in the suite:

* ``advance`` is a pure function: identical ``(state, event)`` pairs yield
  identical ``(state, effects)`` pairs, and the input state is not mutated.
* Scene ids only ever move forward, one scene at a time.
* Within one reminder task the emitted prompt depths form a strictly
  increasing prefix of ``1..n``, for the ``n`` prompts of its ladder.
* The practice gates (scenes 11 and 18) pass only on an attempt with all
  three targets hit and zero distractors, so scene 12 (or 19) can never be
  entered without a :class:`PracticePassed` effect first.
* A timestamp regression raises :class:`OutOfOrderEvent`; an event stamped
  with the wrong scene raises :class:`WrongSceneEvent`.
* One table maps each event kind to the scenes that host it and to what it
  does in each; an event in any other scene raises :class:`InvalidEvent`,
  and :data:`EVENT_SCENES` lists the hosts of the kinds not in every scene.
  What a scene takes once, and the payload values it knows, are rows of
  that table too.

Scene transitions are explicit, never implicit: a scene's resolving event
(final button, exit attempt, conversation outcome, tutorial completion, gate
pass, or, for free-running scenes, the exit itself) resolves the scene, which
:func:`advance` reports as a :class:`SceneTransition`; after it only
``SceneExited`` is accepted for the old scene.
"""

from __future__ import annotations

import copy
import math
from bisect import bisect_right
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Callable, Iterable, Mapping, NamedTuple, Optional, Union

from .jsonio import ErrandlabError, _is_int, _quoted

# Fixed storyline content.
ROUTE_UNIT_COUNT = 23
ROUTE_IDEAL_UNITS = 15
SHOPPING_LIST_LENGTH = 10
COOKING_ITEMS = ("omelette", "sausages", "kettle")

# Prompt scripts.  Event- and exit-triggered cascades escalate from a vague
# nudge to naming the task outright; conversation prompts are the companion's
# three questions; the finale prompts are clock reminders.
_BREAKFAST_PROMPTS = (
    "You Have to Do Something Else",
    "You Have to Do Something After Having your Breakfast",
    "You Have to Take Your Meds",
)
_LEAVING_PROMPTS = (
    "You Have to Do Something Else",
    "You Have to Do Something Before Leaving",
    "You Have to Take the Pie Out of the Oven",
)
_NPC_PROMPTS = (
    "Do we need to do something else at this time?",
    "Are you sure that we do not have to do something around this time?",
    "I think that we have to do something around this time.",
)
_FINALE_PROMPTS = (
    "Check the Time",
    "You Have to Do Something at One O'Clock",
    "You Have to Take Your Meds",
)

NOTES_INTENT_PROMPTS = 3  # the planning scene's notes-intent questions, asked in order
PRACTICE_TARGETS = 3  # the targets of each attempt in a gated tutorial


class SceneKind(str, Enum):
    TUTORIAL = "tutorial"
    STORYLINE = "storyline"


class PmBasis(str, Enum):
    EVENT_BASED = "event_based"
    TIME_BASED = "time_based"


class PmDelay(str, Enum):
    SHORT = "short"
    MEDIUM = "medium"
    LONG = "long"


class PmPolarity(str, Enum):
    # Positive tasks earn points; negative ones are false reminders where
    # affirming costs points.
    POSITIVE = "positive"
    NEGATIVE = "negative"


class TriggerKind(str, Enum):
    FINAL_BUTTON = "final_button"
    EXIT_ATTEMPT = "exit_attempt"
    NPC_DIALOGUE = "npc_dialogue"
    TIMER = "timer"


class NpcChoice(str, Enum):
    CORRECT = "correct"
    SEMANTIC_RELATIVE = "semantic_relative"
    OTHER_PM_TASK = "other_pm_task"
    UNRELATED = "unrelated"


@dataclass(frozen=True)
class PmTaskSpec:
    task_id: str
    basis: PmBasis
    delay: PmDelay
    polarity: PmPolarity
    trigger: TriggerKind
    prompt_texts: tuple[str, ...] = ()  # the ladder, one prompt per depth
    timer_offsets_ms: tuple[int, ...] = ()  # a timer task's, per prompt, from scene entry


@dataclass(frozen=True)
class SceneDescriptor:
    scene_id: int
    kind: SceneKind
    title: str
    gated: bool = False
    free_running: bool = False  # no resolving event: the exit resolves it
    pm_task: Optional[PmTaskSpec] = None


def _npc_task(task_id: str, basis: PmBasis, delay: PmDelay,
              polarity: PmPolarity = PmPolarity.POSITIVE) -> PmTaskSpec:
    return PmTaskSpec(task_id, basis, delay, polarity,
                      TriggerKind.NPC_DIALOGUE, _NPC_PROMPTS)


_SCENES: tuple[SceneDescriptor, ...] = (
    SceneDescriptor(1, SceneKind.TUTORIAL, "basic interaction and navigation"),
    SceneDescriptor(2, SceneKind.TUTORIAL, "interactive boards"),
    SceneDescriptor(3, SceneKind.STORYLINE, "task list, shopping list, and route planning",
                    free_running=True),
    SceneDescriptor(4, SceneKind.TUTORIAL, "reminder prompts and notes"),
    SceneDescriptor(5, SceneKind.TUTORIAL, "cooking controls"),
    SceneDescriptor(
        6, SceneKind.STORYLINE, "breakfast multitasking and morning medication",
        pm_task=PmTaskSpec(
            "take_medication", PmBasis.EVENT_BASED, PmDelay.SHORT, PmPolarity.POSITIVE,
            TriggerKind.FINAL_BUTTON, _BREAKFAST_PROMPTS)),
    SceneDescriptor(7, SceneKind.TUTORIAL, "collecting items"),
    SceneDescriptor(
        8, SceneKind.STORYLINE, "collect belongings and oven pie",
        pm_task=PmTaskSpec(
            "remove_pie", PmBasis.EVENT_BASED, PmDelay.SHORT, PmPolarity.POSITIVE,
            TriggerKind.EXIT_ATTEMPT, _LEAVING_PROMPTS)),
    SceneDescriptor(9, SceneKind.TUTORIAL, "talking with characters"),
    SceneDescriptor(
        10, SceneKind.STORYLINE, "front-gate conversation and planned phone call",
        pm_task=_npc_task("call_rose", PmBasis.TIME_BASED, PmDelay.SHORT)),
    SceneDescriptor(11, SceneKind.TUTORIAL, "gaze practice", gated=True),
    SceneDescriptor(12, SceneKind.STORYLINE, "poster spotting on the ride into town",
                    free_running=True),
    SceneDescriptor(13, SceneKind.TUTORIAL, "shopping practice"),
    SceneDescriptor(14, SceneKind.STORYLINE, "supermarket shopping from memory"),
    SceneDescriptor(
        15, SceneKind.STORYLINE, "bakery order pickup",
        pm_task=_npc_task("collect_cake", PmBasis.TIME_BASED, PmDelay.MEDIUM)),
    SceneDescriptor(
        16, SceneKind.STORYLINE, "false reminder outside the bakery",
        pm_task=_npc_task("false_prompt_library", PmBasis.EVENT_BASED, PmDelay.MEDIUM,
                          PmPolarity.NEGATIVE)),
    SceneDescriptor(
        17, SceneKind.STORYLINE, "library book return",
        pm_task=_npc_task("return_book", PmBasis.EVENT_BASED, PmDelay.MEDIUM)),
    SceneDescriptor(18, SceneKind.TUTORIAL, "sound localisation practice", gated=True),
    SceneDescriptor(19, SceneKind.STORYLINE, "sound spotting on the ride back",
                    free_running=True),
    SceneDescriptor(
        20, SceneKind.STORYLINE, "false reminder at the petrol station",
        pm_task=_npc_task("false_prompt_home", PmBasis.TIME_BASED, PmDelay.LONG,
                          PmPolarity.NEGATIVE)),
    SceneDescriptor(
        21, SceneKind.STORYLINE, "handing over the flat keys",
        pm_task=_npc_task("give_keys", PmBasis.EVENT_BASED, PmDelay.LONG)),
    SceneDescriptor(
        22, SceneKind.STORYLINE, "putting away shopping and afternoon medication",
        pm_task=PmTaskSpec(
            "evening_medication", PmBasis.TIME_BASED, PmDelay.LONG, PmPolarity.POSITIVE,
            TriggerKind.TIMER, _FINALE_PROMPTS, timer_offsets_ms=(70_000, 80_000, 90_000))),
)

SCENES_BY_ID: dict[int, SceneDescriptor] = {s.scene_id: s for s in _SCENES}
TUTORIAL_SCENES = frozenset(s.scene_id for s in _SCENES if s.kind is SceneKind.TUTORIAL)
STORYLINE_SCENES = frozenset(s.scene_id for s in _SCENES if s.kind is SceneKind.STORYLINE)
GATED_SCENES = frozenset(s.scene_id for s in _SCENES if s.gated)
FREE_RUNNING_SCENES = frozenset(s.scene_id for s in _SCENES if s.free_running)
PM_TASKS: dict[int, PmTaskSpec] = {
    s.scene_id: s.pm_task for s in _SCENES if s.pm_task is not None}
NPC_SCENES = frozenset(sid for sid, task in PM_TASKS.items()
                       if task.trigger is TriggerKind.NPC_DIALOGUE)
TIMER_SCENES = frozenset(sid for sid, task in PM_TASKS.items()
                         if task.trigger is TriggerKind.TIMER)
# the deepest reminder ladder's prompts; a task never done is past every ladder
LADDER_DEPTH = max(len(task.prompt_texts) for task in PM_TASKS.values())
NEVER_DONE_DEPTH = LADDER_DEPTH + 1


def _check_timer_schedules(tasks: dict[int, PmTaskSpec]) -> None:
    # Exactly the timer tasks carry offsets: one per prompt, strictly increasing.
    wrong = [sid for sid, task in tasks.items()
             if (task.trigger is TriggerKind.TIMER) != bool(task.timer_offsets_ms)
             or len(task.timer_offsets_ms) not in (0, len(task.prompt_texts))
             or sorted(set(task.timer_offsets_ms)) != list(task.timer_offsets_ms)]
    if wrong:
        raise AssertionError(f"timer schedules wrong in scenes {wrong}")


_check_timer_schedules(PM_TASKS)


def scene_sequence() -> tuple[SceneDescriptor, ...]:
    """The full scene table in play order."""
    return _SCENES


# ---------------------------------------------------------------------------
# Events


class EventKind(str, Enum):
    SCENE_ENTERED = "SceneEntered"
    SCENE_EXITED = "SceneExited"
    TUTORIAL_COMPLETED = "TutorialCompleted"
    PRACTICE_ATTEMPT = "PracticeAttempt"
    NOTES_INTENT_ANSWERED = "NotesIntentAnswered"
    ITEM_SELECTED = "ItemSelected"
    ROUTE_UNIT_TOGGLED = "RouteUnitToggled"
    ROUTE_SUBMITTED = "RouteSubmitted"
    COOKING_ITEM_PLACED = "CookingItemPlaced"
    FINAL_BUTTON_PRESSED = "FinalButtonPressed"
    EXIT_ATTEMPTED = "ExitAttempted"
    MEDICATION_TAKEN = "MedicationTaken"
    PIE_REMOVED = "PieRemoved"
    NOTE_OPENED = "NoteOpened"
    NOTE_CLOSED = "NoteClosed"
    NPC_PROMPT_ANSWERED = "NpcPromptAnswered"
    NPC_ITEM_CHOSEN = "NpcItemChosen"
    POSTER_SPOTTED = "PosterSpotted"
    SOUND_TRIGGERED = "SoundTriggered"
    SHOPPING_COLLECTED = "ShoppingCollected"
    KEYS_GIVEN = "KeysGiven"
    ITEM_STOWED = "ItemStowed"


# Required payload fields of each kind that has any: name -> allowed types.
# ``None`` in the tuple marks an optional null.
_PAYLOAD_FIELDS: dict[EventKind, dict[str, tuple[type, ...]]] = {
    EventKind.PRACTICE_ATTEMPT: {"targets_hit": (int,), "distractors_hit": (int,)},
    EventKind.NOTES_INTENT_ANSWERED: {"prompt_index": (int,), "yes": (bool,)},
    EventKind.ITEM_SELECTED: {"item": (str,)},
    EventKind.ROUTE_UNIT_TOGGLED: {"unit": (int,), "selected": (bool,)},
    EventKind.COOKING_ITEM_PLACED: {"item": (str,), "cook_time_s": (int, float)},
    EventKind.NPC_PROMPT_ANSWERED: {"prompt_index": (int,), "yes": (bool,)},
    EventKind.NPC_ITEM_CHOSEN: {"choice": (str,)},
    EventKind.POSTER_SPOTTED: {
        "stimulus_id": (str,), "stimulus_kind": (str,), "side": (str,)},
    EventKind.SOUND_TRIGGERED: {
        "stimulus_id": (str,), "stimulus_kind": (str,),
        "stimulus_side": (str,), "response_side": (str, type(None))},
    EventKind.SHOPPING_COLLECTED: {"item": (str,)},
    EventKind.ITEM_STOWED: {"item": (str,)},
}

VISUAL_STIMULUS_KINDS = ("target", "shape_distractor", "color_distractor")
AUDITORY_STIMULUS_KINDS = ("target", "high_pitch_distractor", "low_pitch_distractor")
SIDES = ("left", "right")


class TaskSpec(NamedTuple):
    """A scored task: its scene, the kind of the events whose payloads are its
    input, and its window, from the scene's first ``start_kind`` event to its
    last ``end_kind`` event."""

    scene_id: int
    input_kind: EventKind
    start_kind: EventKind
    end_kind: EventKind


# The tasks scored from their own events; PM_TASKS holds the reminder ones.
TASKS: dict[str, TaskSpec] = {
    "immediate_recognition": TaskSpec(
        3, EventKind.ITEM_SELECTED, EventKind.ITEM_SELECTED, EventKind.ITEM_SELECTED),
    "planning": TaskSpec(3, EventKind.ROUTE_UNIT_TOGGLED,
                         EventKind.ROUTE_UNIT_TOGGLED, EventKind.ROUTE_SUBMITTED),
    "cooking": TaskSpec(6, EventKind.COOKING_ITEM_PLACED,
                        EventKind.SCENE_ENTERED, EventKind.COOKING_ITEM_PLACED),
    "collection": TaskSpec(
        8, EventKind.ITEM_SELECTED, EventKind.SCENE_ENTERED, EventKind.ITEM_SELECTED),
    "visual_attention": TaskSpec(
        12, EventKind.POSTER_SPOTTED, EventKind.SCENE_ENTERED, EventKind.SCENE_EXITED),
    "delayed_recognition": TaskSpec(14, EventKind.SHOPPING_COLLECTED,
                                    EventKind.SCENE_ENTERED, EventKind.FINAL_BUTTON_PRESSED),
    "auditory_attention": TaskSpec(
        19, EventKind.SOUND_TRIGGERED, EventKind.SCENE_ENTERED, EventKind.SCENE_EXITED),
}


# Each kind's payload schema as the check reads it: the field names, for one
# comparison per event, then (name, allowed types, whether a bool is allowed)
# per field.
_PAYLOAD_SCHEMA: dict[EventKind, tuple[frozenset[str],
                                       tuple[tuple[str, tuple[type, ...], bool], ...]]] = {
    kind: (frozenset(schema),
           tuple((name, types, bool in types) for name, types in schema.items()))
    for kind in EventKind for schema in (_PAYLOAD_FIELDS.get(kind, {}),)}
# The kinds whose payload has no fields: a plain empty dict is the one payload
# of theirs that the schema check could not refuse, so it is not walked.
_FIELDLESS_KINDS = frozenset(EventKind).difference(_PAYLOAD_FIELDS)


def validate_payload(kind: EventKind, payload: dict[str, Any]) -> None:
    """Check a payload against the fixed schema for its event kind."""
    keys, checks = _PAYLOAD_SCHEMA[kind]
    if payload.keys() != keys:
        extra = set(payload) - keys
        missing = keys - set(payload)
        raise ValueError(
            f"{kind.value} payload has wrong fields "
            f"(missing={sorted(missing)}, unexpected={sorted(extra)})")
    for name, types, bool_allowed in checks:
        value = payload[name]
        # bool is an int subclass; keep the two apart.
        if type(value) is bool and not bool_allowed:
            raise ValueError(f"{kind.value}.{name} must not be a bool")
        if not isinstance(value, types):
            raise ValueError(
                f"{kind.value}.{name} has type {type(value).__name__}")
        # a float subclass (numpy's float64) is checked too
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"{kind.value}.{name} must be finite")


# The session clock counts whole milliseconds, which telemetry and the
# simulator turn into float seconds and back: a double holds every whole
# millisecond up to 2**53, and past about 1.8e308 ms the conversion overflows.
_MAX_CLOCK_MS = 2**53

# The default of SessionEvent's payload, which stands for a new empty dict.
_NO_PAYLOAD: Any = object()


@dataclass(frozen=True, slots=True, init=False)
class SessionEvent:
    """One timestamped, scene-stamped record of something the user did."""

    seq: int
    sim_time_ms: int
    scene: int
    kind: EventKind
    payload: dict[str, Any]

    def __init__(self, seq: int, sim_time_ms: int, scene: int, kind: EventKind,
                 payload: dict[str, Any] = _NO_PAYLOAD) -> None:
        # The checks run before any field is set, in the order of the fields.
        # Three plain ints and a kind pass at once; the rest is checked by name,
        # and an int subclass is held as a plain int.
        if not (type(seq) is type(sim_time_ms) is type(scene) is int
                and type(kind) is EventKind):
            for name, value in (("seq", seq), ("sim_time_ms", sim_time_ms),
                                ("scene", scene)):
                if not _is_int(value):
                    raise TypeError(
                        f"{name} must be an integer, not {type(value).__name__}")
            seq, sim_time_ms, scene = int(seq), int(sim_time_ms), int(scene)
            if type(kind) is not EventKind:  # a str would pass the schema lookup
                raise TypeError(
                    f"kind must be an EventKind, not {type(kind).__name__}")
        if seq < 0:
            raise ValueError("seq must be non-negative")
        if sim_time_ms < 0:
            raise ValueError("sim_time_ms must be non-negative")
        if sim_time_ms > _MAX_CLOCK_MS:
            raise ValueError("sim_time_ms must be at most 2**53")
        if scene not in SCENES_BY_ID:
            raise ValueError(f"unknown scene id {_quoted(scene)}")
        if payload is _NO_PAYLOAD:
            payload = {}
        elif type(payload) is not dict and not isinstance(payload, Mapping):
            raise TypeError(f"payload must be a mapping, not {type(payload).__name__}")
        if type(payload) is not dict or payload or kind not in _FIELDLESS_KINDS:
            validate_payload(kind, payload)
        _set_seq(self, seq)
        _set_sim_time_ms(self, sim_time_ms)
        _set_scene(self, scene)
        _set_kind(self, kind)
        _set_payload(self, payload)


# The setters of SessionEvent's slots, which its frozen __setattr__ refuses:
# object.__setattr__ would look each one up by name on every call.
_set_seq = SessionEvent.seq.__set__
_set_sim_time_ms = SessionEvent.sim_time_ms.__set__
_set_scene = SessionEvent.scene.__set__
_set_kind = SessionEvent.kind.__set__
_set_payload = SessionEvent.payload.__set__


# ---------------------------------------------------------------------------
# Effects


@dataclass(frozen=True)
class PromptShown:
    task_id: str
    depth: int  # 1..len(prompt_texts)
    text: str


@dataclass(frozen=True)
class SceneTransition:
    to_scene: int


@dataclass(frozen=True)
class PracticeRetry:
    scene_id: int
    attempt: int


@dataclass(frozen=True)
class PracticePassed:
    scene_id: int
    attempts: int


@dataclass(frozen=True)
class SessionComplete:
    pass


Effect = Union[PromptShown, SceneTransition, PracticeRetry, PracticePassed,
               SessionComplete]


# ---------------------------------------------------------------------------
# Errors


class EngineError(ErrandlabError):
    """Base class for event rejections."""
    exit_code = 4


class OutOfOrderEvent(EngineError):
    """Event timestamp is earlier than the engine clock."""


class WrongSceneEvent(EngineError):
    """Event is stamped with a scene other than the current one."""


class NotAGatedScene(EngineError):
    """Practice attempt outside scenes 11 and 18."""


class InvalidEvent(EngineError):
    """Event is well-formed but impossible in the current state."""


# ---------------------------------------------------------------------------
# Gate


class GateResult(str, Enum):
    PASS = "pass"
    RETRY = "retry"


def practice_gate(scene_id: int, targets_hit: int, distractors_hit: int) -> GateResult:
    """Judge one practice attempt in a gated tutorial.

    The attempt passes only when all three practice targets were hit and no
    distractor drew a response; anything less repeats the trial.
    """
    if scene_id not in GATED_SCENES:
        raise NotAGatedScene(f"scene {scene_id} has no practice gate")
    if not 0 <= targets_hit <= PRACTICE_TARGETS:
        raise ValueError(f"targets_hit must be in 0..{PRACTICE_TARGETS}")
    if distractors_hit < 0:
        raise ValueError("distractors_hit must be non-negative")
    if targets_hit == PRACTICE_TARGETS and distractors_hit == 0:
        return GateResult.PASS
    return GateResult.RETRY


# ---------------------------------------------------------------------------
# State


@dataclass
class SceneState:
    """What only the entered scene reads, its entry time, whether it is
    resolved and its reminder ladder's position too; each ``SceneEntered``
    makes a new one."""

    entry_ms: int = 0
    resolved: bool = False  # the scene awaits its exit; advance reports a SceneTransition
    prompt_depth: int = 0  # the prompts of the scene's reminder task shown
    practice_attempts: int = 0
    notes_prompts_answered: int = 0
    route_submitted: bool = False
    note_open: bool = False
    keys_given: bool = False
    awaiting_choice: bool = False
    taken: set[str] = field(default_factory=set)  # the scene's items or stimuli


@dataclass
class SessionState:
    """Everything the engine needs to validate the next event.

    ``scene`` holds what only the entered scene reads; the rest lasts the
    session.  Treat instances as values: :func:`advance` copies before
    mutating, so a state can be shared across threads or kept for inspection.
    """

    current_scene: int = 1
    entered: bool = False
    sim_clock_ms: int = 0
    completed: bool = False
    scene: SceneState = field(default_factory=SceneState)
    route_selected: set[int] = field(default_factory=set)  # kept for scoring
    # kept for scoring, per reminder task; a task is done iff pm_done_depth has it
    pm_done_depth: dict[str, int] = field(default_factory=dict)
    npc_affirmed_at: dict[str, int] = field(default_factory=dict)
    npc_choice: dict[str, str] = field(default_factory=dict)

    def copy(self) -> "SessionState":
        return copy.deepcopy(self)


def initial_state() -> SessionState:
    return SessionState()


# ---------------------------------------------------------------------------
# Engine

# The members the per-event code tests, bound once: on Python 3.11 each
# ``EventKind.X`` read goes through ``EnumType.__getattr__``, about ten times
# the cost of a module global.
_SCENE_ENTERED = EventKind.SCENE_ENTERED
_SCENE_EXITED = EventKind.SCENE_EXITED
_ROUTE_SUBMITTED = EventKind.ROUTE_SUBMITTED
_KEYS_GIVEN = EventKind.KEYS_GIVEN
_POSITIVE = PmPolarity.POSITIVE


def _fire_due_timer_prompts(state: SessionState, now_ms: int, sid: int) -> None:
    # Timer reminders are clock-driven: any event whose timestamp reaches an
    # offset shows the prompts due up to that instant before the event itself
    # is applied.  The offsets are sorted at import.
    task = PM_TASKS[sid]
    if task.task_id in state.pm_done_depth:
        return
    due = bisect_right(task.timer_offsets_ms, now_ms - state.scene.entry_ms)
    state.scene.prompt_depth = max(state.scene.prompt_depth, due)


def _cascade_press(state: SessionState, event: SessionEvent, sid: int) -> None:
    # Shared by the breakfast final button and the flat exit attempt: a press
    # with the task done ends the scene; otherwise each press escalates one
    # prompt, and the press after the last prompt ends the scene unscored.
    task = PM_TASKS[sid]
    if task.task_id not in state.pm_done_depth:
        if state.scene.prompt_depth < len(task.prompt_texts):
            state.scene.prompt_depth += 1
            return
        state.pm_done_depth[task.task_id] = NEVER_DONE_DEPTH
    state.scene.resolved = True


def _pm_action(state: SessionState, event: SessionEvent, sid: int) -> None:
    task = PM_TASKS[sid]
    if task.task_id in state.pm_done_depth:
        raise InvalidEvent(f"{task.task_id} already done")
    state.pm_done_depth[task.task_id] = state.scene.prompt_depth


def advance(state: SessionState, event: SessionEvent) -> tuple[SessionState, list[Effect]]:
    """Apply one event, returning the successor state and emitted effects.

    Raises :class:`OutOfOrderEvent` on a timestamp regression,
    :class:`WrongSceneEvent` on a scene mismatch, and :class:`InvalidEvent`
    (or :class:`NotAGatedScene`) when the event cannot happen in the current
    state.  The input state is never mutated.
    """
    new = state.copy()
    return new, _step(new, event)


def _step(state: SessionState, event: SessionEvent) -> list[Effect]:
    # _apply, then the event's effects read off what it changed, in the
    # order the engine acts: the prompts shown, the practice verdict, the
    # scene's resolution, the session's end.  The one place effects are built.
    sid, completed, scene = state.current_scene, state.completed, state.scene
    depth, attempts, resolved = scene.prompt_depth, scene.practice_attempts, scene.resolved
    _apply(state, event)
    if state.scene is not scene:  # an entry: the new scene's record counts from 0
        scene, depth, attempts, resolved = state.scene, 0, 0, False
    effects: list[Effect] = []
    if scene.prompt_depth > depth:
        task = PM_TASKS[sid]
        effects.extend(PromptShown(task.task_id, shown, task.prompt_texts[shown - 1])
                       for shown in range(depth + 1, scene.prompt_depth + 1))
    if scene.practice_attempts > attempts:
        verdict = PracticePassed if scene.resolved else PracticeRetry
        effects.append(verdict(sid, scene.practice_attempts))
    if scene.resolved and not resolved:
        effects.append(SceneTransition(sid + 1))
    if state.completed and not completed:
        effects.append(SessionComplete())
    return effects


def _apply(state: SessionState, event: SessionEvent) -> None:
    # The engine itself: ``event`` changes ``state`` in place, and nothing
    # else is returned.  A rejected event may leave ``state`` half-updated,
    # so callers own the state they pass and drop it on error.
    if event.sim_time_ms < state.sim_clock_ms:
        raise OutOfOrderEvent(
            f"event {event.seq} at {event.sim_time_ms} ms behind clock "
            f"{state.sim_clock_ms} ms")
    if event.scene != state.current_scene:
        raise WrongSceneEvent(
            f"event {event.seq} stamped scene {event.scene}, "
            f"current scene is {state.current_scene}")
    state.sim_clock_ms = event.sim_time_ms

    kind = event.kind
    sid = state.current_scene

    if state.completed and kind is not _SCENE_EXITED:
        raise InvalidEvent("session already complete")

    if kind is _SCENE_ENTERED:
        if state.entered:
            raise InvalidEvent(f"scene {sid} already entered")
        state.entered = True
        state.scene = SceneState(entry_ms=event.sim_time_ms)
        if sid in NPC_SCENES:  # a conversation opens on its first prompt
            state.scene.prompt_depth = 1
        return

    if not state.entered:
        raise InvalidEvent(f"scene {sid} not entered yet")

    if sid in TIMER_SCENES and not state.completed:
        _fire_due_timer_prompts(state, event.sim_time_ms, sid)

    if kind is _SCENE_EXITED:
        if not state.completed:
            if not state.scene.resolved:
                if sid not in FREE_RUNNING_SCENES:
                    raise InvalidEvent(f"scene {sid} is not finished")
                # the planning scene's exit needs its prompts and its route
                if sid in _ROUTE_SCENES and (
                        state.scene.notes_prompts_answered < NOTES_INTENT_PROMPTS
                        or not state.scene.route_submitted):
                    raise InvalidEvent(f"scene {sid} tasks unfinished")
                state.scene.resolved = True
            state.current_scene += 1
        state.entered = False
        return

    if state.scene.resolved and kind is not _KEYS_GIVEN:
        raise InvalidEvent(
            f"scene {sid} already resolved; only SceneExited is valid")
    handler = _HANDLERS[kind].get(sid)
    if handler is None:
        raise InvalidEvent(f"{kind.value} does not occur in scene {sid}")
    handler(state, event, sid)


# The handlers _apply dispatches to through _HANDLERS: (state, event,
# scene id) -> None.  Each runs after _apply's common checks and changes
# the state in place; _cascade_press and _pm_action above are handlers too,
# and so is each _Take's apply below.


def _on_resolving_event(state: SessionState, event: SessionEvent, sid: int) -> None:
    # a tutorial's completion or the supermarket till: the scene is done
    state.scene.resolved = True


def _on_practice_attempt(state: SessionState, event: SessionEvent, sid: int) -> None:
    try:
        result = practice_gate(sid, event.payload["targets_hit"],
                               event.payload["distractors_hit"])
    except ValueError as exc:
        raise InvalidEvent(str(exc)) from exc
    state.scene.practice_attempts += 1
    state.scene.resolved = result is GateResult.PASS


def _on_notes_intent_answered(state: SessionState, event: SessionEvent, sid: int) -> None:
    expected = state.scene.notes_prompts_answered + 1
    if event.payload["prompt_index"] != expected or expected > NOTES_INTENT_PROMPTS:
        raise InvalidEvent(
            f"notes-intent prompt {_quoted(int(event.payload['prompt_index']))} "
            f"out of order (expected {expected})")
    state.scene.notes_prompts_answered = expected


def _on_item_grabbed(state: SessionState, event: SessionEvent, sid: int) -> None:
    # grabs are free-form, and re-grab attempts are legitimate errors
    pass


def _on_route(state: SessionState, event: SessionEvent, sid: int) -> None:
    # a street unit toggled, or the route submitted, after which neither is taken
    if state.scene.route_submitted:
        raise InvalidEvent("route already submitted")
    if event.kind is _ROUTE_SUBMITTED:
        state.scene.route_submitted = True
        return
    unit = event.payload["unit"]
    if not 1 <= unit <= ROUTE_UNIT_COUNT:
        raise InvalidEvent(f"street unit {_quoted(int(unit))} out of range")
    if event.payload["selected"]:
        if unit in state.route_selected:
            raise InvalidEvent(f"street unit {unit} already selected")
        state.route_selected.add(unit)
    else:
        if unit not in state.route_selected:
            raise InvalidEvent(f"street unit {unit} not selected")
        state.route_selected.discard(unit)


def _on_session_end(state: SessionState, event: SessionEvent, sid: int) -> None:
    state.pm_done_depth.setdefault(PM_TASKS[sid].task_id, NEVER_DONE_DEPTH)
    state.completed = True


def _on_note_opened(state: SessionState, event: SessionEvent, sid: int) -> None:
    if state.scene.note_open:
        raise InvalidEvent("notes already open")
    state.scene.note_open = True


def _on_note_closed(state: SessionState, event: SessionEvent, sid: int) -> None:
    if not state.scene.note_open:
        raise InvalidEvent("notes are not open")
    state.scene.note_open = False


def _on_npc_prompt_answered(state: SessionState, event: SessionEvent, sid: int) -> None:
    if state.scene.awaiting_choice:
        raise InvalidEvent("answer already given; choose an item")
    # the answer is to the prompt showing, the deepest one shown
    task = PM_TASKS[sid]
    expected = state.scene.prompt_depth
    if event.payload["prompt_index"] != expected:
        raise InvalidEvent(
            f"conversation prompt {_quoted(int(event.payload['prompt_index']))} "
            f"out of order (expected {expected})")
    if event.payload["yes"]:
        state.npc_affirmed_at[task.task_id] = expected
        if task.polarity is _POSITIVE:
            state.scene.awaiting_choice = True
        else:
            state.scene.resolved = True
    elif expected < len(task.prompt_texts):
        state.scene.prompt_depth += 1
    else:
        state.npc_affirmed_at[task.task_id] = 0
        state.scene.resolved = True


_NPC_CHOICES = frozenset(c.value for c in NpcChoice)


def _on_npc_item_chosen(state: SessionState, event: SessionEvent, sid: int) -> None:
    if not state.scene.awaiting_choice:
        raise InvalidEvent("no item board is showing")
    choice = event.payload["choice"]
    if choice not in _NPC_CHOICES:
        raise InvalidEvent(f"unknown board choice {_quoted(choice)}")
    task = PM_TASKS[sid]
    state.npc_choice[task.task_id] = choice
    state.scene.awaiting_choice = False
    state.scene.resolved = True


def _on_keys_given(state: SessionState, event: SessionEvent, sid: int) -> None:
    if state.scene.keys_given:
        raise InvalidEvent("keys already handed over")
    state.scene.keys_given = True


@dataclass(frozen=True, slots=True)
class _Take:
    """What a scene takes once each: a list board item, a dish, a poster, a
    sound, a basket item or a stowed item.  The payload's ``key`` field names
    the thing; each ``known`` (field, allowed values, label) check runs
    first, and a ``non_negative`` field is checked last.  The bound ``apply``
    is the handler: a plain method call costs less than an instance's."""

    key: str
    again: str  # the message for a second take: {thing}, or its {quoted} form
    room: Optional[str] = None  # what holds SHOPPING_LIST_LENGTH things, if full
    known: tuple[tuple[str, tuple[Optional[str], ...], str], ...] = ()
    non_negative: Optional[str] = None

    def apply(self, state: SessionState, event: SessionEvent, sid: int) -> None:
        payload = event.payload
        for name, allowed, label in self.known:
            if payload[name] not in allowed:
                raise InvalidEvent(f"unknown {label} {_quoted(payload[name])}")
        thing = payload[self.key]
        taken = state.scene.taken
        if thing in taken:
            raise InvalidEvent(self.again.format(thing=thing, quoted=_quoted(thing)))
        if self.room is not None and len(taken) >= SHOPPING_LIST_LENGTH:
            raise InvalidEvent(f"{self.room} holds {SHOPPING_LIST_LENGTH} items")
        if self.non_negative is not None and payload[self.non_negative] < 0:
            raise InvalidEvent(f"{self.non_negative} must be non-negative")
        taken.add(thing)


# Which event does what in which scene: each kind after entry maps the scenes
# that host it to its handler there.  A practice attempt is handled in every
# scene, since practice_gate raises NotAGatedScene outside GATED_SCENES.
_Handler = Callable[[SessionState, SessionEvent, int], None]
_HANDLERS: dict[EventKind, dict[int, _Handler]] = {
    EventKind.TUTORIAL_COMPLETED: dict.fromkeys(TUTORIAL_SCENES - GATED_SCENES,
                                                _on_resolving_event),
    EventKind.PRACTICE_ATTEMPT: dict.fromkeys(SCENES_BY_ID, _on_practice_attempt),
    EventKind.NOTES_INTENT_ANSWERED: {3: _on_notes_intent_answered},
    EventKind.ITEM_SELECTED: {
        3: _Take("item", "item {quoted} already selected", room="the list board").apply,
        8: _on_item_grabbed},
    EventKind.ROUTE_UNIT_TOGGLED: {3: _on_route},
    EventKind.ROUTE_SUBMITTED: {3: _on_route},
    EventKind.COOKING_ITEM_PLACED: {6: _Take(
        "item", "{thing} already placed on the worktop",
        known=(("item", COOKING_ITEMS, "cooking item"),), non_negative="cook_time_s").apply},
    EventKind.FINAL_BUTTON_PRESSED: {6: _cascade_press, 14: _on_resolving_event,
                                     22: _on_session_end},
    EventKind.EXIT_ATTEMPTED: {8: _cascade_press},
    EventKind.MEDICATION_TAKEN: {6: _pm_action, 22: _pm_action},
    EventKind.PIE_REMOVED: {8: _pm_action},
    EventKind.NOTE_OPENED: dict.fromkeys(SCENES_BY_ID, _on_note_opened),
    EventKind.NOTE_CLOSED: dict.fromkeys(SCENES_BY_ID, _on_note_closed),
    EventKind.NPC_PROMPT_ANSWERED: dict.fromkeys(NPC_SCENES, _on_npc_prompt_answered),
    EventKind.NPC_ITEM_CHOSEN: dict.fromkeys(NPC_SCENES, _on_npc_item_chosen),
    EventKind.POSTER_SPOTTED: {12: _Take(
        "stimulus_id", "stimulus {quoted} already spotted",
        known=(("stimulus_kind", VISUAL_STIMULUS_KINDS, "poster kind"),
               ("side", SIDES, "side"))).apply},
    EventKind.SOUND_TRIGGERED: {19: _Take(
        "stimulus_id", "stimulus {quoted} already recorded",
        known=(("stimulus_kind", AUDITORY_STIMULUS_KINDS, "sound kind"),
               ("stimulus_side", SIDES, "side"),
               ("response_side", (None, *SIDES), "response side"))).apply},
    EventKind.SHOPPING_COLLECTED: {
        14: _Take("item", "item {quoted} already in the basket", room="the basket").apply},
    EventKind.KEYS_GIVEN: {21: _on_keys_given},
    EventKind.ITEM_STOWED: {22: _Take("item", "item {quoted} already put away").apply},
}
assert set(_HANDLERS) == set(EventKind) - {
    EventKind.SCENE_ENTERED, EventKind.SCENE_EXITED}

# The hosts of each kind that does not occur in every scene.
EVENT_SCENES: dict[EventKind, frozenset[int]] = {
    kind: frozenset(hosts) for kind, hosts in _HANDLERS.items()
    if hosts.keys() != SCENES_BY_ID.keys()}
_ROUTE_SCENES = EVENT_SCENES[EventKind.ROUTE_SUBMITTED]

# Each kind a task reads must occur in its scene.
_MISPLACED = [f"{name}: {kind.value} in scene {task.scene_id}"
              for name, task in TASKS.items() for kind in task[1:]
              if task.scene_id not in _HANDLERS.get(kind, SCENES_BY_ID)]
if _MISPLACED:
    raise AssertionError(f"task events outside their scenes: {_MISPLACED}")


def replay(events: Iterable[SessionEvent],
           state: Optional[SessionState] = None,
           ) -> tuple[SessionState, list[tuple[SessionEvent, list[Effect]]]]:
    """Run a whole event stream through the engine.

    Returns the final state and the per-event effects, exactly as folding
    :func:`advance` over the events would.  ``state`` is copied once and
    never mutated; events then apply in place.  Raises the first engine
    error encountered; a valid log replays with none.
    """
    current = state.copy() if state is not None else initial_state()
    return current, [(event, _step(current, event)) for event in events]


def _final_state(events: Iterable[SessionEvent]) -> SessionState:
    # replay(events)[0] without the trace, for a caller that reads only the
    # final state: no effect is built, and the same engine error is raised
    # at the same event.
    state = initial_state()
    for event in events:
        _apply(state, event)
    return state
