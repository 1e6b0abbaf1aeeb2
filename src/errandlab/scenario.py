"""Discrete-event state machine for the 22-scene errand scenario.

The scenario is a fixed linear sequence of scenes: nine tutorials that teach
one interaction each and thirteen storyline scenes that carry the assessed
tasks (list learning, route planning, multitask cooking, reminder cascades,
character conversations, item collection, attention rides, and a timed
finale).  The engine is deliberately engine-agnostic: it consumes timestamped
:class:`SessionEvent` records that a front end or simulator produces and it
emits :class:`Effect` values (prompts, transitions, retry signals, session
completion).  It never does I/O and never draws randomness.

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

Scene transitions are engine-emitted effects, never implicit: a scene's
resolving event (final button, exit attempt, conversation outcome, tutorial
completion, gate pass, or, for free-running scenes, the exit itself) produces
a :class:`SceneTransition`, after which only ``SceneExited`` is accepted for
the old scene.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Callable, Iterable, NamedTuple, Optional, Union

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


# Required payload fields per kind: name -> allowed types.  ``None`` in the
# tuple marks an optional null.
_PAYLOAD_FIELDS: dict[EventKind, dict[str, tuple[type, ...]]] = {
    EventKind.SCENE_ENTERED: {},
    EventKind.SCENE_EXITED: {},
    EventKind.TUTORIAL_COMPLETED: {},
    EventKind.PRACTICE_ATTEMPT: {"targets_hit": (int,), "distractors_hit": (int,)},
    EventKind.NOTES_INTENT_ANSWERED: {"prompt_index": (int,), "yes": (bool,)},
    EventKind.ITEM_SELECTED: {"item": (str,)},
    EventKind.ROUTE_UNIT_TOGGLED: {"unit": (int,), "selected": (bool,)},
    EventKind.ROUTE_SUBMITTED: {},
    EventKind.COOKING_ITEM_PLACED: {"item": (str,), "cook_time_s": (int, float)},
    EventKind.FINAL_BUTTON_PRESSED: {},
    EventKind.EXIT_ATTEMPTED: {},
    EventKind.MEDICATION_TAKEN: {},
    EventKind.PIE_REMOVED: {},
    EventKind.NOTE_OPENED: {},
    EventKind.NOTE_CLOSED: {},
    EventKind.NPC_PROMPT_ANSWERED: {"prompt_index": (int,), "yes": (bool,)},
    EventKind.NPC_ITEM_CHOSEN: {"choice": (str,)},
    EventKind.POSTER_SPOTTED: {
        "stimulus_id": (str,), "stimulus_kind": (str,), "side": (str,)},
    EventKind.SOUND_TRIGGERED: {
        "stimulus_id": (str,), "stimulus_kind": (str,),
        "stimulus_side": (str,), "response_side": (str, type(None))},
    EventKind.SHOPPING_COLLECTED: {"item": (str,)},
    EventKind.KEYS_GIVEN: {},
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
    for kind, schema in _PAYLOAD_FIELDS.items()}


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
        # Three plain ints and a kind pass at once; the rest is checked by name.
        if not (type(seq) is type(sim_time_ms) is type(scene) is int
                and type(kind) is EventKind):
            for name, value in (("seq", seq), ("sim_time_ms", sim_time_ms),
                                ("scene", scene)):
                # bool is an int subclass; keep the two apart.
                if not isinstance(value, int) or isinstance(value, bool):
                    raise TypeError(
                        f"{name} must be an integer, not {type(value).__name__}")
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
            raise ValueError(f"unknown scene id {scene}")
        if payload is _NO_PAYLOAD:
            payload = {}
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


class EngineError(Exception):
    """Base class for event rejections."""


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
    """What only the entered scene reads, its reminder ladder's position too;
    each ``SceneEntered`` makes a new one."""

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
    scene_entry_ms: int = 0
    sim_clock_ms: int = 0
    completed: bool = False
    armed_to: Optional[int] = None
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
_KEYS_GIVEN = EventKind.KEYS_GIVEN
_POSITIVE = PmPolarity.POSITIVE


def _show_prompt(state: SessionState, task: PmTaskSpec, effects: list[Effect]) -> None:
    # The one step of every reminder ladder: the task's next prompt.
    depth = state.scene.prompt_depth + 1
    state.scene.prompt_depth = depth
    effects.append(PromptShown(task.task_id, depth, task.prompt_texts[depth - 1]))


def _fire_due_timer_prompts(state: SessionState, now_ms: int,
                            effects: list[Effect], sid: int) -> None:
    # Timer reminders are clock-driven: any event whose timestamp reaches an
    # offset fires the prompts due up to that instant, oldest first, before
    # the event itself is applied.
    task = PM_TASKS[sid]
    if task.task_id in state.pm_done_depth:
        return
    due = sum(1 for off in task.timer_offsets_ms if now_ms - state.scene_entry_ms >= off)
    while state.scene.prompt_depth < due:
        _show_prompt(state, task, effects)


def _resolve(state: SessionState, effects: list[Effect]) -> None:
    nxt = state.current_scene + 1
    state.armed_to = nxt
    effects.append(SceneTransition(nxt))


def _cascade_press(state: SessionState, event: SessionEvent,
                   effects: list[Effect], sid: int) -> None:
    # Shared by the breakfast final button and the flat exit attempt: a press
    # with the task done ends the scene; otherwise each press escalates one
    # prompt, and the press after the last prompt ends the scene unscored.
    task = PM_TASKS[sid]
    if task.task_id not in state.pm_done_depth:
        if state.scene.prompt_depth < len(task.prompt_texts):
            _show_prompt(state, task, effects)
            return
        state.pm_done_depth[task.task_id] = NEVER_DONE_DEPTH
    _resolve(state, effects)


def _pm_action(state: SessionState, event: SessionEvent,
               effects: list[Effect], sid: int) -> None:
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
    effects: list[Effect] = []
    _apply(new, event, effects)
    return new, effects


def _apply(state: SessionState, event: SessionEvent, effects: list[Effect]) -> None:
    # The body of advance, mutating ``state`` in place and appending to
    # ``effects``.  A rejected event may leave ``state`` half-updated, so
    # callers own the state they pass and drop it on error.
    if event.sim_time_ms < state.sim_clock_ms:
        raise OutOfOrderEvent(
            f"event {event.seq} at {event.sim_time_ms} ms behind clock "
            f"{state.sim_clock_ms} ms")
    if event.scene != state.current_scene:
        raise WrongSceneEvent(
            f"event {event.seq} stamped scene {event.scene}, "
            f"current scene is {state.current_scene}")

    kind = event.kind
    sid = state.current_scene

    if state.completed and kind is not _SCENE_EXITED:
        raise InvalidEvent("session already complete")

    if kind is _SCENE_ENTERED:
        if state.entered:
            raise InvalidEvent(f"scene {sid} already entered")
        state.entered = True
        state.armed_to = None
        state.scene_entry_ms = event.sim_time_ms
        state.scene = SceneState()
        if sid in NPC_SCENES:
            _show_prompt(state, PM_TASKS[sid], effects)
        state.sim_clock_ms = event.sim_time_ms
        return

    if not state.entered:
        raise InvalidEvent(f"scene {sid} not entered yet")

    if sid in TIMER_SCENES and not state.completed:
        _fire_due_timer_prompts(state, event.sim_time_ms, effects, sid)

    if kind is _SCENE_EXITED:
        if not state.completed:
            if state.armed_to is None:
                if sid not in FREE_RUNNING_SCENES:
                    raise InvalidEvent(f"scene {sid} is not finished")
                # the planning scene's exit needs its prompts and its route
                if sid in _ROUTE_SCENES and (
                        state.scene.notes_prompts_answered < NOTES_INTENT_PROMPTS
                        or not state.scene.route_submitted):
                    raise InvalidEvent(f"scene {sid} tasks unfinished")
                _resolve(state, effects)
            state.current_scene = state.armed_to
            state.armed_to = None
        state.entered = False
        state.sim_clock_ms = event.sim_time_ms
        return

    if state.armed_to is not None and kind is not _KEYS_GIVEN:
        raise InvalidEvent(
            f"scene {sid} already resolved; only SceneExited is valid")
    handler = _HANDLERS[kind].get(sid)
    if handler is None:
        raise InvalidEvent(f"{kind.value} does not occur in scene {sid}")
    handler(state, event, effects, sid)
    state.sim_clock_ms = event.sim_time_ms


# The handlers _apply dispatches to through _HANDLERS: (state, event,
# effects, scene id) -> None.  Each runs after _apply's common checks,
# mutates the state in place and appends its effects; _cascade_press and
# _pm_action above are handlers too.


def _on_resolving_event(state: SessionState, event: SessionEvent,
                        effects: list[Effect], sid: int) -> None:
    # a tutorial's completion or the supermarket till: the scene is done
    _resolve(state, effects)


def _on_practice_attempt(state: SessionState, event: SessionEvent,
                         effects: list[Effect], sid: int) -> None:
    try:
        result = practice_gate(sid, event.payload["targets_hit"],
                               event.payload["distractors_hit"])
    except ValueError as exc:
        raise InvalidEvent(str(exc)) from exc
    state.scene.practice_attempts += 1
    attempts = state.scene.practice_attempts
    if result is GateResult.PASS:
        effects.append(PracticePassed(sid, attempts))
        _resolve(state, effects)
    else:
        effects.append(PracticeRetry(sid, attempts))


def _on_notes_intent_answered(state: SessionState, event: SessionEvent,
                              effects: list[Effect], sid: int) -> None:
    expected = state.scene.notes_prompts_answered + 1
    if event.payload["prompt_index"] != expected or expected > NOTES_INTENT_PROMPTS:
        raise InvalidEvent(
            f"notes-intent prompt {event.payload['prompt_index']} "
            f"out of order (expected {expected})")
    state.scene.notes_prompts_answered = expected


def _on_list_board_item(state: SessionState, event: SessionEvent,
                        effects: list[Effect], sid: int) -> None:
    item = event.payload["item"]
    if item in state.scene.taken:
        raise InvalidEvent(f"item {item!r} already selected")
    if len(state.scene.taken) >= SHOPPING_LIST_LENGTH:
        raise InvalidEvent(
            f"the list board holds {SHOPPING_LIST_LENGTH} items")
    state.scene.taken.add(item)


def _on_item_grabbed(state: SessionState, event: SessionEvent,
                     effects: list[Effect], sid: int) -> None:
    # grabs are free-form, and re-grab attempts are legitimate errors
    pass


def _on_route_unit_toggled(state: SessionState, event: SessionEvent,
                           effects: list[Effect], sid: int) -> None:
    if state.scene.route_submitted:
        raise InvalidEvent("route already submitted")
    unit = event.payload["unit"]
    if not 1 <= unit <= ROUTE_UNIT_COUNT:
        raise InvalidEvent(f"street unit {unit} out of range")
    if event.payload["selected"]:
        if unit in state.route_selected:
            raise InvalidEvent(f"street unit {unit} already selected")
        state.route_selected.add(unit)
    else:
        if unit not in state.route_selected:
            raise InvalidEvent(f"street unit {unit} not selected")
        state.route_selected.discard(unit)


def _on_route_submitted(state: SessionState, event: SessionEvent,
                        effects: list[Effect], sid: int) -> None:
    if state.scene.route_submitted:
        raise InvalidEvent("route already submitted")
    state.scene.route_submitted = True


def _on_cooking_item_placed(state: SessionState, event: SessionEvent,
                            effects: list[Effect], sid: int) -> None:
    item = event.payload["item"]
    if item not in COOKING_ITEMS:
        raise InvalidEvent(f"unknown cooking item {item!r}")
    if item in state.scene.taken:
        raise InvalidEvent(f"{item} already placed on the worktop")
    if event.payload["cook_time_s"] < 0:
        raise InvalidEvent("cook_time_s must be non-negative")
    state.scene.taken.add(item)


def _on_session_end(state: SessionState, event: SessionEvent,
                    effects: list[Effect], sid: int) -> None:
    state.pm_done_depth.setdefault(PM_TASKS[sid].task_id, NEVER_DONE_DEPTH)
    state.completed = True
    effects.append(SessionComplete())


def _on_note_opened(state: SessionState, event: SessionEvent,
                    effects: list[Effect], sid: int) -> None:
    if state.scene.note_open:
        raise InvalidEvent("notes already open")
    state.scene.note_open = True


def _on_note_closed(state: SessionState, event: SessionEvent,
                    effects: list[Effect], sid: int) -> None:
    if not state.scene.note_open:
        raise InvalidEvent("notes are not open")
    state.scene.note_open = False


def _on_npc_prompt_answered(state: SessionState, event: SessionEvent,
                            effects: list[Effect], sid: int) -> None:
    if state.scene.awaiting_choice:
        raise InvalidEvent("answer already given; choose an item")
    # the answer is to the prompt showing, the deepest one shown
    task = PM_TASKS[sid]
    expected = state.scene.prompt_depth
    if event.payload["prompt_index"] != expected:
        raise InvalidEvent(
            f"conversation prompt {event.payload['prompt_index']} "
            f"out of order (expected {expected})")
    if event.payload["yes"]:
        state.npc_affirmed_at[task.task_id] = expected
        if task.polarity is _POSITIVE:
            state.scene.awaiting_choice = True
        else:
            _resolve(state, effects)
    elif expected < len(task.prompt_texts):
        _show_prompt(state, task, effects)
    else:
        state.npc_affirmed_at[task.task_id] = 0
        _resolve(state, effects)


_NPC_CHOICES = frozenset(c.value for c in NpcChoice)


def _on_npc_item_chosen(state: SessionState, event: SessionEvent,
                        effects: list[Effect], sid: int) -> None:
    if not state.scene.awaiting_choice:
        raise InvalidEvent("no item board is showing")
    choice = event.payload["choice"]
    if choice not in _NPC_CHOICES:
        raise InvalidEvent(f"unknown board choice {choice!r}")
    task = PM_TASKS[sid]
    state.npc_choice[task.task_id] = choice
    state.scene.awaiting_choice = False
    _resolve(state, effects)


def _on_poster_spotted(state: SessionState, event: SessionEvent,
                       effects: list[Effect], sid: int) -> None:
    if event.payload["stimulus_kind"] not in VISUAL_STIMULUS_KINDS:
        raise InvalidEvent(
            f"unknown poster kind {event.payload['stimulus_kind']!r}")
    if event.payload["side"] not in SIDES:
        raise InvalidEvent(f"unknown side {event.payload['side']!r}")
    stim = event.payload["stimulus_id"]
    if stim in state.scene.taken:
        raise InvalidEvent(f"stimulus {stim!r} already spotted")
    state.scene.taken.add(stim)


def _on_sound_triggered(state: SessionState, event: SessionEvent,
                        effects: list[Effect], sid: int) -> None:
    if event.payload["stimulus_kind"] not in AUDITORY_STIMULUS_KINDS:
        raise InvalidEvent(
            f"unknown sound kind {event.payload['stimulus_kind']!r}")
    if event.payload["stimulus_side"] not in SIDES:
        raise InvalidEvent(f"unknown side {event.payload['stimulus_side']!r}")
    if event.payload["response_side"] not in (None, *SIDES):
        raise InvalidEvent(
            f"unknown response side {event.payload['response_side']!r}")
    stim = event.payload["stimulus_id"]
    if stim in state.scene.taken:
        raise InvalidEvent(f"stimulus {stim!r} already recorded")
    state.scene.taken.add(stim)


def _on_shopping_collected(state: SessionState, event: SessionEvent,
                           effects: list[Effect], sid: int) -> None:
    item = event.payload["item"]
    if item in state.scene.taken:
        raise InvalidEvent(f"item {item!r} already in the basket")
    if len(state.scene.taken) >= SHOPPING_LIST_LENGTH:
        raise InvalidEvent(
            f"the basket holds {SHOPPING_LIST_LENGTH} items")
    state.scene.taken.add(item)


def _on_keys_given(state: SessionState, event: SessionEvent,
                   effects: list[Effect], sid: int) -> None:
    if state.scene.keys_given:
        raise InvalidEvent("keys already handed over")
    state.scene.keys_given = True


def _on_item_stowed(state: SessionState, event: SessionEvent,
                    effects: list[Effect], sid: int) -> None:
    item = event.payload["item"]
    if item in state.scene.taken:
        raise InvalidEvent(f"item {item!r} already put away")
    state.scene.taken.add(item)


# Which event does what in which scene: each kind after entry maps the scenes
# that host it to its handler there.  A practice attempt is handled in every
# scene, since practice_gate raises NotAGatedScene outside GATED_SCENES.
_Handler = Callable[[SessionState, SessionEvent, list[Effect], int], None]
_HANDLERS: dict[EventKind, dict[int, _Handler]] = {
    EventKind.TUTORIAL_COMPLETED: dict.fromkeys(TUTORIAL_SCENES - GATED_SCENES,
                                                _on_resolving_event),
    EventKind.PRACTICE_ATTEMPT: dict.fromkeys(SCENES_BY_ID, _on_practice_attempt),
    EventKind.NOTES_INTENT_ANSWERED: {3: _on_notes_intent_answered},
    EventKind.ITEM_SELECTED: {3: _on_list_board_item, 8: _on_item_grabbed},
    EventKind.ROUTE_UNIT_TOGGLED: {3: _on_route_unit_toggled},
    EventKind.ROUTE_SUBMITTED: {3: _on_route_submitted},
    EventKind.COOKING_ITEM_PLACED: {6: _on_cooking_item_placed},
    EventKind.FINAL_BUTTON_PRESSED: {6: _cascade_press, 14: _on_resolving_event,
                                     22: _on_session_end},
    EventKind.EXIT_ATTEMPTED: {8: _cascade_press},
    EventKind.MEDICATION_TAKEN: {6: _pm_action, 22: _pm_action},
    EventKind.PIE_REMOVED: {8: _pm_action},
    EventKind.NOTE_OPENED: dict.fromkeys(SCENES_BY_ID, _on_note_opened),
    EventKind.NOTE_CLOSED: dict.fromkeys(SCENES_BY_ID, _on_note_closed),
    EventKind.NPC_PROMPT_ANSWERED: dict.fromkeys(NPC_SCENES, _on_npc_prompt_answered),
    EventKind.NPC_ITEM_CHOSEN: dict.fromkeys(NPC_SCENES, _on_npc_item_chosen),
    EventKind.POSTER_SPOTTED: {12: _on_poster_spotted},
    EventKind.SOUND_TRIGGERED: {19: _on_sound_triggered},
    EventKind.SHOPPING_COLLECTED: {14: _on_shopping_collected},
    EventKind.KEYS_GIVEN: {21: _on_keys_given},
    EventKind.ITEM_STOWED: {22: _on_item_stowed},
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
    trace: list[tuple[SessionEvent, list[Effect]]] = []
    for event in events:
        effects: list[Effect] = []
        _apply(current, event, effects)
        trace.append((event, effects))
    return current, trace
