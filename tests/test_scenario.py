from __future__ import annotations

import ast
import collections
import dataclasses
import inspect
import pathlib
import textwrap
import types
import typing

import numpy as np
import pytest
from hypothesis import given, strategies as st

from errandlab import simulate
from errandlab import scenario, sessionlog
from errandlab.scenario import (
    EVENT_SCENES,
    EngineError,
    EventKind,
    GateResult,
    GATED_SCENES,
    InvalidEvent,
    NPC_SCENES,
    NotAGatedScene,
    OutOfOrderEvent,
    PM_TASKS,
    PmTaskSpec,
    PracticePassed,
    PracticeRetry,
    PromptShown,
    SCENES_BY_ID,
    SceneKind,
    SceneTransition,
    SessionComplete,
    SessionEvent,
    SessionState,
    STORYLINE_SCENES,
    TUTORIAL_SCENES,
    WrongSceneEvent,
    advance,
    initial_state,
    practice_gate,
    replay,
    scene_sequence,
)
from errandlab.scoring import aggregate_scorecard
from errandlab.simulate import PROFILE_PRESETS, simulate_session
from walks import minimal_walk


def _ev(seq, t_ms, scene, kind, payload=None):
    return SessionEvent(seq=seq, sim_time_ms=t_ms, scene=scene, kind=kind,
                        payload=payload or {})


def _entered(scene_id, t_ms=0):
    state, _ = advance(
        SessionState(current_scene=scene_id),
        _ev(0, t_ms, scene_id, EventKind.SCENE_ENTERED))
    return state


class TestSceneTable:
    def test_sequence_shape(self):
        scenes = scene_sequence()
        assert len(scenes) == 22
        assert [s.scene_id for s in scenes] == list(range(1, 23))

    def test_partition(self):
        assert TUTORIAL_SCENES == {1, 2, 4, 5, 7, 9, 11, 13, 18}
        assert len(STORYLINE_SCENES) == 13
        assert TUTORIAL_SCENES | STORYLINE_SCENES == set(range(1, 23))
        assert not TUTORIAL_SCENES & STORYLINE_SCENES

    def test_gated_and_npc(self):
        assert GATED_SCENES == {11, 18}
        assert NPC_SCENES == {10, 15, 16, 17, 20, 21}

    def test_pm_tasks(self):
        assert set(PM_TASKS) == {6, 8, 10, 15, 16, 17, 20, 21, 22}
        negatives = {sid for sid, task in PM_TASKS.items()
                     if task.polarity.value == "negative"}
        assert negatives == {16, 20}

    def test_free_running_and_timer_scenes(self):
        assert scenario.FREE_RUNNING_SCENES == {3, 12, 19}
        assert scenario.TIMER_SCENES == {22}

    def test_each_reminder_task_is_its_scene_row(self):
        for sid, descriptor in SCENES_BY_ID.items():
            if descriptor.pm_task is None:
                assert sid not in PM_TASKS
            else:
                assert PM_TASKS[sid] is descriptor.pm_task
        names = {f.name for f in dataclasses.fields(PmTaskSpec)}
        assert not names & {"scene_id", "cascade"}

    def test_the_timer_schedules_pass_their_check(self):
        scenario._check_timer_schedules(PM_TASKS)

    @pytest.mark.parametrize("sid, offsets", [
        (22, (70_000, 80_000)),  # two offsets for three prompts
        (22, (70_000, 90_000, 80_000)),  # out of order
        (22, (70_000, 80_000, 80_000)),  # not strictly increasing
        (22, ()),  # a timer task with no schedule
        (6, (1_000, 2_000, 3_000)),  # a schedule on a final-button task
    ])
    def test_a_wrong_timer_schedule_is_rejected(self, sid, offsets):
        patched = {**PM_TASKS,
                   sid: dataclasses.replace(PM_TASKS[sid], timer_offsets_ms=offsets)}
        with pytest.raises(AssertionError,
                           match=rf"^timer schedules wrong in scenes \[{sid}\]$"):
            scenario._check_timer_schedules(patched)

    def test_event_scenes_derived_from_the_handler_table(self):
        # the map as it was written out by hand before the handler table
        K = EventKind
        assert EVENT_SCENES == {
            K.TUTORIAL_COMPLETED: TUTORIAL_SCENES - GATED_SCENES,
            K.NOTES_INTENT_ANSWERED: {3},
            K.ITEM_SELECTED: {3, 8},
            K.ROUTE_UNIT_TOGGLED: {3},
            K.ROUTE_SUBMITTED: {3},
            K.COOKING_ITEM_PLACED: {6},
            K.FINAL_BUTTON_PRESSED: {6, 14, 22},
            K.EXIT_ATTEMPTED: {8},
            K.MEDICATION_TAKEN: {6, 22},
            K.PIE_REMOVED: {8},
            K.NPC_PROMPT_ANSWERED: NPC_SCENES,
            K.NPC_ITEM_CHOSEN: NPC_SCENES,
            K.POSTER_SPOTTED: {12},
            K.SOUND_TRIGGERED: {19},
            K.SHOPPING_COLLECTED: {14},
            K.KEYS_GIVEN: {21},
            K.ITEM_STOWED: {22},
        }


def _is_scene_literal(node):
    # an int literal, or a tuple, list or set of them
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        return bool(node.elts) and all(map(_is_scene_literal, node.elts))
    return isinstance(node, ast.Constant) and type(node.value) is int


@pytest.mark.parametrize(
    "fn", sorted({scenario._apply, scenario._fire_due_timer_prompts,
                  *(getattr(handler, "__func__", handler)
                    for hosts in scenario._HANDLERS.values()
                    for handler in hosts.values())}, key=lambda fn: fn.__qualname__),
    ids=lambda fn: fn.__qualname__)
def test_engine_names_no_scene_id(fn):
    # which scene does what is stated in the handler and scene tables only
    tree = ast.parse(textwrap.dedent(inspect.getsource(fn)))
    for node in ast.walk(tree):
        if not isinstance(node, ast.Compare):
            continue
        operands = [node.left, *node.comparators]
        if any(isinstance(o, ast.Name) and o.id == "sid" for o in operands):
            assert not any(map(_is_scene_literal, operands)), (
                f"{fn.__name__} line {node.lineno}: {ast.unparse(node)}")


class TestPracticeGate:
    @pytest.mark.parametrize("targets", range(4))
    @pytest.mark.parametrize("distractors", range(4))
    def test_exhaustive(self, targets, distractors):
        result = practice_gate(11, targets, distractors)
        expected = (GateResult.PASS if targets == 3 and distractors == 0
                    else GateResult.RETRY)
        assert result is expected

    def test_not_gated(self):
        with pytest.raises(NotAGatedScene):
            practice_gate(5, 3, 0)

    def test_range_checks(self):
        with pytest.raises(ValueError):
            practice_gate(11, 4, 0)
        with pytest.raises(ValueError):
            practice_gate(18, 2, -1)


class TestFullWalk:
    def test_minimal_walk_completes(self):
        final, trace = replay(minimal_walk())
        assert final.completed
        assert final.current_scene == 22
        assert any(isinstance(e, SessionComplete)
                   for _, effects in trace for e in effects)

    def test_transitions_forward_one_step(self):
        _, trace = replay(minimal_walk())
        transitions = [e.to_scene for _, effects in trace
                       for e in effects if isinstance(e, SceneTransition)]
        assert transitions == list(range(2, 23))

    def test_prompt_depths_are_increasing_prefixes(self):
        _, trace = replay(minimal_walk())
        depths: dict[str, list[int]] = {}
        for _, effects in trace:
            for effect in effects:
                if isinstance(effect, PromptShown):
                    depths.setdefault(effect.task_id, []).append(effect.depth)
        assert depths  # the refusal-heavy walk triggers plenty of prompts
        for task_id, seen in depths.items():
            assert seen == list(range(1, len(seen) + 1)), task_id
            assert len(seen) <= 3


class TestAdvanceBasics:
    def test_purity(self):
        state = initial_state()
        before = dataclasses.replace(state)
        advance(state, _ev(0, 0, 1, EventKind.SCENE_ENTERED))
        assert state == before

    def test_out_of_order(self):
        state = _entered(1, t_ms=5_000)
        with pytest.raises(OutOfOrderEvent):
            advance(state, _ev(1, 4_999, 1, EventKind.TUTORIAL_COMPLETED))

    def test_wrong_scene(self):
        state = _entered(1)
        with pytest.raises(WrongSceneEvent):
            advance(state, _ev(1, 1, 2, EventKind.TUTORIAL_COMPLETED))

    def test_event_before_entry(self):
        with pytest.raises(InvalidEvent):
            advance(SessionState(current_scene=1),
                    _ev(0, 0, 1, EventKind.TUTORIAL_COMPLETED))

    def test_double_entry(self):
        state = _entered(1)
        with pytest.raises(InvalidEvent):
            advance(state, _ev(1, 1, 1, EventKind.SCENE_ENTERED))

    def test_after_resolution_only_exit(self):
        state = _entered(1)
        state, effects = advance(state, _ev(1, 1, 1, EventKind.TUTORIAL_COMPLETED))
        assert any(isinstance(e, SceneTransition) for e in effects)
        with pytest.raises(InvalidEvent):
            advance(state, _ev(2, 2, 1, EventKind.TUTORIAL_COMPLETED))
        state, _ = advance(state, _ev(2, 2, 1, EventKind.SCENE_EXITED))
        assert state.current_scene == 2
        assert not state.entered

    def test_unfinished_scene_cannot_exit(self):
        state = _entered(1)
        with pytest.raises(InvalidEvent):
            advance(state, _ev(1, 1, 1, EventKind.SCENE_EXITED))

    # At most one note is open at a time, and only an open note closes:
    # notes closed without an open, or two notes open at once.
    @pytest.mark.parametrize("kinds, message", [
        ([EventKind.NOTE_OPENED, EventKind.NOTE_CLOSED, EventKind.NOTE_CLOSED],
         "notes are not open"),
        ([EventKind.NOTE_CLOSED], "notes are not open"),
        ([EventKind.NOTE_OPENED, EventKind.NOTE_OPENED], "notes already open")])
    def test_note_rules(self, kinds, message):
        state = _entered(4)
        *accepted, refused = kinds
        for seq, kind in enumerate(accepted, start=1):
            state, _ = advance(state, _ev(seq, seq * 1_000, 4, kind))
        with pytest.raises(InvalidEvent) as raised:
            advance(state, _ev(len(kinds), len(kinds) * 1_000, 4, refused))
        assert str(raised.value) == message


class TestGatedScenes:
    def test_retry_then_pass(self):
        state = _entered(11)
        state, effects = advance(state, _ev(1, 1, 11, EventKind.PRACTICE_ATTEMPT,
                                            {"targets_hit": 2, "distractors_hit": 0}))
        assert effects == [PracticeRetry(11, 1)]
        state, effects = advance(state, _ev(2, 2, 11, EventKind.PRACTICE_ATTEMPT,
                                            {"targets_hit": 3, "distractors_hit": 1}))
        assert effects == [PracticeRetry(11, 2)]
        state, effects = advance(state, _ev(3, 3, 11, EventKind.PRACTICE_ATTEMPT,
                                            {"targets_hit": 3, "distractors_hit": 0}))
        assert effects[0] == PracticePassed(11, 3)
        assert effects[1] == SceneTransition(12)

    def test_gate_soundness(self):
        # scene 12 is unreachable from scene 11 without a passing attempt
        state = _entered(11)
        for seq in range(1, 5):
            state, effects = advance(
                state, _ev(seq, seq, 11, EventKind.PRACTICE_ATTEMPT,
                           {"targets_hit": seq % 3, "distractors_hit": 1}))
            assert all(not isinstance(e, SceneTransition) for e in effects)
        with pytest.raises(InvalidEvent):
            advance(state, _ev(5, 5, 11, EventKind.SCENE_EXITED))

    def test_payload_range_rejected(self):
        state = _entered(18)
        with pytest.raises(InvalidEvent):
            advance(state, _ev(1, 1, 18, EventKind.PRACTICE_ATTEMPT,
                               {"targets_hit": 5, "distractors_hit": 0}))


class TestBreakfastCascade:
    def test_act_before_any_prompt(self):
        state = _entered(6)
        state, _ = advance(state, _ev(1, 1, 6, EventKind.MEDICATION_TAKEN))
        assert state.pm_done_depth["take_medication"] == 0
        state, effects = advance(state, _ev(2, 2, 6, EventKind.FINAL_BUTTON_PRESSED))
        assert effects == [SceneTransition(7)]

    def test_three_prompts_then_give_up(self):
        state = _entered(6)
        for seq, depth in ((1, 1), (2, 2), (3, 3)):
            state, effects = advance(
                state, _ev(seq, seq, 6, EventKind.FINAL_BUTTON_PRESSED))
            assert isinstance(effects[0], PromptShown)
            assert effects[0].depth == depth
        state, effects = advance(state, _ev(4, 4, 6, EventKind.FINAL_BUTTON_PRESSED))
        assert effects == [SceneTransition(7)]
        assert state.pm_done_depth["take_medication"] == 4

    def test_yield_after_second_prompt(self):
        state = _entered(6)
        state, _ = advance(state, _ev(1, 1, 6, EventKind.FINAL_BUTTON_PRESSED))
        state, _ = advance(state, _ev(2, 2, 6, EventKind.FINAL_BUTTON_PRESSED))
        state, _ = advance(state, _ev(3, 3, 6, EventKind.MEDICATION_TAKEN))
        assert state.pm_done_depth["take_medication"] == 2
        _, effects = advance(state, _ev(4, 4, 6, EventKind.FINAL_BUTTON_PRESSED))
        assert effects == [SceneTransition(7)]

    def test_medication_twice_rejected(self):
        state = _entered(6)
        state, _ = advance(state, _ev(1, 1, 6, EventKind.MEDICATION_TAKEN))
        with pytest.raises(InvalidEvent):
            advance(state, _ev(2, 2, 6, EventKind.MEDICATION_TAKEN))


class TestNpcScenes:
    def test_prompt_one_on_entry(self):
        state = SessionState(current_scene=10)
        state, effects = advance(state, _ev(0, 0, 10, EventKind.SCENE_ENTERED))
        assert effects == [PromptShown("call_rose", 1,
                                       "Do we need to do something else at this time?")]

    def test_affirm_then_choose(self):
        state = _entered(10)
        state, effects = advance(
            state, _ev(1, 1, 10, EventKind.NPC_PROMPT_ANSWERED,
                       {"prompt_index": 1, "yes": True}))
        assert effects == []  # the item board opens; no transition yet
        assert state.scene.awaiting_choice
        with pytest.raises(InvalidEvent):
            advance(state, _ev(2, 2, 10, EventKind.NPC_PROMPT_ANSWERED,
                               {"prompt_index": 2, "yes": False}))
        state, effects = advance(
            state, _ev(2, 2, 10, EventKind.NPC_ITEM_CHOSEN, {"choice": "correct"}))
        assert effects == [SceneTransition(11)]
        assert state.npc_affirmed_at["call_rose"] == 1
        assert state.npc_choice["call_rose"] == "correct"

    def test_refusals_escalate_then_resolve(self):
        state = _entered(15)
        state, effects = advance(
            state, _ev(1, 1, 15, EventKind.NPC_PROMPT_ANSWERED,
                       {"prompt_index": 1, "yes": False}))
        assert effects[0].depth == 2
        state, effects = advance(
            state, _ev(2, 2, 15, EventKind.NPC_PROMPT_ANSWERED,
                       {"prompt_index": 2, "yes": False}))
        assert effects[0].depth == 3
        state, effects = advance(
            state, _ev(3, 3, 15, EventKind.NPC_PROMPT_ANSWERED,
                       {"prompt_index": 3, "yes": False}))
        assert effects == [SceneTransition(16)]
        assert state.npc_affirmed_at["collect_cake"] == 0

    def test_the_ladder_position_is_scene_state(self):
        # replayed from the minimal walk, which refuses all three of scene
        # 10's questions: the last refusal ends the talk with no fourth
        events = minimal_walk()
        entry = next(i for i, e in enumerate(events)
                     if e.scene == 10 and e.kind is EventKind.SCENE_ENTERED)
        assert [e.kind for e in events[entry + 1:entry + 4]] == [
            EventKind.NPC_PROMPT_ANSWERED] * 3
        depths = [replay(events[:end])[0].scene.prompt_depth
                  for end in range(entry + 1, entry + 5)]
        assert depths == [1, 2, 3, 3]
        assert events[entry + 5].kind is EventKind.SCENE_ENTERED  # scene 11
        assert replay(events[:entry + 6])[0].scene.prompt_depth == 0
        assert not {"prompt_depth", "armed_to", "scene_entry_ms"} & {
            f.name for f in dataclasses.fields(SessionState)}

    def test_false_prompt_affirm_resolves_without_board(self):
        state = _entered(16)
        state, effects = advance(
            state, _ev(1, 1, 16, EventKind.NPC_PROMPT_ANSWERED,
                       {"prompt_index": 1, "yes": True}))
        assert effects == [SceneTransition(17)]
        assert state.npc_affirmed_at["false_prompt_library"] == 1
        assert not state.scene.awaiting_choice

    def test_out_of_order_prompt_index(self):
        state = _entered(10)
        with pytest.raises(InvalidEvent):
            advance(state, _ev(1, 1, 10, EventKind.NPC_PROMPT_ANSWERED,
                               {"prompt_index": 2, "yes": False}))

    def test_keys_allowed_after_resolution(self):
        state = _entered(21)
        state, _ = advance(state, _ev(1, 1, 21, EventKind.NPC_PROMPT_ANSWERED,
                                      {"prompt_index": 1, "yes": True}))
        state, _ = advance(state, _ev(2, 2, 21, EventKind.NPC_ITEM_CHOSEN,
                                      {"choice": "correct"}))
        assert state.scene.resolved
        state, _ = advance(state, _ev(3, 3, 21, EventKind.KEYS_GIVEN))
        assert state.scene.keys_given
        state, _ = advance(state, _ev(4, 4, 21, EventKind.SCENE_EXITED))
        assert state.current_scene == 22


class TestSceneThree:
    def test_exit_requires_prompts_and_submission(self):
        state = _entered(3)
        with pytest.raises(InvalidEvent):
            advance(state, _ev(1, 1, 3, EventKind.SCENE_EXITED))
        for index in (1, 2, 3):
            state, _ = advance(state, _ev(index, index, 3,
                                          EventKind.NOTES_INTENT_ANSWERED,
                                          {"prompt_index": index, "yes": True}))
        with pytest.raises(InvalidEvent):
            advance(state, _ev(4, 4, 3, EventKind.SCENE_EXITED))
        state, _ = advance(state, _ev(4, 4, 3, EventKind.ROUTE_SUBMITTED))
        state, effects = advance(state, _ev(5, 5, 3, EventKind.SCENE_EXITED))
        assert state.current_scene == 4

    def test_route_toggle_bounds_and_dedupe(self):
        state = _entered(3)
        state, _ = advance(state, _ev(1, 1, 3, EventKind.ROUTE_UNIT_TOGGLED,
                                      {"unit": 7, "selected": True}))
        with pytest.raises(InvalidEvent):
            advance(state, _ev(2, 2, 3, EventKind.ROUTE_UNIT_TOGGLED,
                               {"unit": 7, "selected": True}))
        with pytest.raises(InvalidEvent):
            advance(state, _ev(2, 2, 3, EventKind.ROUTE_UNIT_TOGGLED,
                               {"unit": 24, "selected": True}))
        state, _ = advance(state, _ev(2, 2, 3, EventKind.ROUTE_UNIT_TOGGLED,
                                      {"unit": 7, "selected": False}))
        assert state.route_selected == set()

    def test_toggles_frozen_after_submit(self):
        state = _entered(3)
        state, _ = advance(state, _ev(1, 1, 3, EventKind.ROUTE_SUBMITTED))
        with pytest.raises(InvalidEvent):
            advance(state, _ev(2, 2, 3, EventKind.ROUTE_UNIT_TOGGLED,
                               {"unit": 3, "selected": True}))

    def test_selection_capped_at_list_length(self):
        state = _entered(3)
        for i in range(10):
            state, _ = advance(state, _ev(i + 1, i + 1, 3, EventKind.ITEM_SELECTED,
                                          {"item": f"item_{i}"}))
        with pytest.raises(InvalidEvent):
            advance(state, _ev(11, 11, 3, EventKind.ITEM_SELECTED,
                               {"item": "one_too_many"}))


class TestFinaleTimers:
    def test_prompts_fire_at_offsets(self):
        state = _entered(22)
        state, effects = advance(state, _ev(1, 70_000, 22, EventKind.ITEM_STOWED,
                                            {"item": "milk"}))
        assert [e.depth for e in effects if isinstance(e, PromptShown)] == [1]
        state, effects = advance(state, _ev(2, 91_000, 22, EventKind.ITEM_STOWED,
                                            {"item": "bread"}))
        assert [e.depth for e in effects if isinstance(e, PromptShown)] == [2, 3]

    @pytest.mark.parametrize("depth, offset",
                             enumerate(PM_TASKS[22].timer_offsets_ms, start=1))
    def test_each_prompt_fires_on_its_offset_and_not_a_ms_before(self, depth, offset):
        state = _entered(22)
        state, effects = advance(state, _ev(1, offset - 1, 22, EventKind.ITEM_STOWED,
                                            {"item": "milk"}))
        assert [e.depth for e in effects if isinstance(e, PromptShown)] == list(range(1, depth))
        _, effects = advance(state, _ev(2, offset, 22, EventKind.ITEM_STOWED,
                                        {"item": "bread"}))
        assert [e.depth for e in effects if isinstance(e, PromptShown)] == [depth]

    def test_action_just_before_first_prompt(self):
        state = _entered(22)
        state, effects = advance(state, _ev(1, 69_999, 22, EventKind.MEDICATION_TAKEN))
        assert effects == []
        assert state.pm_done_depth["evening_medication"] == 0

    def test_action_on_the_prompt_instant(self):
        state = _entered(22)
        state, effects = advance(state, _ev(1, 70_000, 22, EventKind.MEDICATION_TAKEN))
        assert [e.depth for e in effects if isinstance(e, PromptShown)] == [1]
        assert state.pm_done_depth["evening_medication"] == 1

    def test_entry_offset_is_respected(self):
        # prompts key off time since scene entry, not absolute time
        state = SessionState(current_scene=22)
        state, _ = advance(state, _ev(0, 500_000, 22, EventKind.SCENE_ENTERED))
        state, effects = advance(state, _ev(1, 569_999, 22, EventKind.ITEM_STOWED,
                                            {"item": "milk"}))
        assert effects == []
        state, effects = advance(state, _ev(2, 570_000, 22, EventKind.ITEM_STOWED,
                                            {"item": "bread"}))
        assert [e.depth for e in effects if isinstance(e, PromptShown)] == [1]

    def test_completion_and_single_exit(self):
        state = _entered(22)
        state, effects = advance(state, _ev(1, 1_000, 22,
                                            EventKind.FINAL_BUTTON_PRESSED))
        assert any(isinstance(e, SessionComplete) for e in effects)
        assert state.completed
        with pytest.raises(InvalidEvent):
            advance(state, _ev(2, 2_000, 22, EventKind.ITEM_STOWED, {"item": "x"}))
        state, _ = advance(state, _ev(2, 2_000, 22, EventKind.SCENE_EXITED))
        assert not state.entered

    def test_no_prompts_after_medication(self):
        state = _entered(22)
        state, _ = advance(state, _ev(1, 10_000, 22, EventKind.MEDICATION_TAKEN))
        _, effects = advance(state, _ev(2, 95_000, 22, EventKind.ITEM_STOWED,
                                        {"item": "milk"}))
        assert effects == []


# Constructor arguments over a valid SceneEntered event, and the error each
# gives; when several fields are wrong, the first check in field order wins,
# with the type checks first.
_BAD_EVENTS = [
    ({"seq": 1.0}, TypeError, "seq must be an integer, not float"),
    ({"sim_time_ms": True}, TypeError, "sim_time_ms must be an integer, not bool"),
    ({"scene": "3"}, TypeError, "scene must be an integer, not str"),
    ({"seq": -1, "scene": "3"}, TypeError, "scene must be an integer, not str"),
    ({"seq": -1}, ValueError, "seq must be non-negative"),
    ({"seq": -1, "sim_time_ms": -1, "scene": 23}, ValueError, "seq must be non-negative"),
    ({"sim_time_ms": -1}, ValueError, "sim_time_ms must be non-negative"),
    ({"sim_time_ms": 2**53 + 1, "scene": 0}, ValueError, "sim_time_ms must be at most 2**53"),
    ({"scene": 0, "payload": {"x": 1}}, ValueError, "unknown scene id 0"),
    ({"payload": {"x": 1}}, ValueError,
     "SceneEntered payload has wrong fields (missing=[], unexpected=['x'])"),
    ({"kind": EventKind.ITEM_SELECTED, "scene": 3, "payload": {"extra": 1}}, ValueError,
     "ItemSelected payload has wrong fields (missing=['item'], unexpected=['extra'])"),
    ({"kind": EventKind.PRACTICE_ATTEMPT, "scene": 11,
      "payload": {"targets_hit": 3, "distractors_hit": False}}, ValueError,
     "PracticeAttempt.distractors_hit must not be a bool"),
    ({"kind": EventKind.ITEM_SELECTED, "scene": 3, "payload": {"item": 7}}, ValueError,
     "ItemSelected.item has type int"),
    ({"kind": EventKind.NOTES_INTENT_ANSWERED, "scene": 3,
      "payload": {"prompt_index": 1, "yes": 1}}, ValueError,
     "NotesIntentAnswered.yes has type int"),
    ({"kind": EventKind.COOKING_ITEM_PLACED, "scene": 6,
      "payload": {"item": "kettle", "cook_time_s": np.float64("inf")}}, ValueError,
     "CookingItemPlaced.cook_time_s must be finite"),
    ({"kind": "SceneEntered"}, TypeError, "kind must be an EventKind, not str"),
    ({"kind": "bogus"}, TypeError, "kind must be an EventKind, not str"),
    ({"seq": -1, "kind": "SceneEntered"}, TypeError, "kind must be an EventKind, not str"),
    ({"payload": []}, TypeError, "payload must be a mapping, not list"),
    ({"payload": None}, TypeError, "payload must be a mapping, not NoneType"),
    ({"payload": "ab"}, TypeError, "payload must be a mapping, not str"),
    ({"kind": EventKind.ITEM_SELECTED, "scene": 3, "payload": ["item"]}, TypeError,
     "payload must be a mapping, not list"),
    ({"scene": 0, "payload": []}, ValueError, "unknown scene id 0"),
    ({"kind": EventKind.ITEM_SELECTED, "scene": 3, "payload": types.MappingProxyType({})},
     ValueError, "ItemSelected payload has wrong fields (missing=['item'], unexpected=[])"),
]


class TestEventConstructor:
    """The SessionEvent API: construction, its checks and the frozen value."""

    def test_positional_keyword_and_replace_agree(self):
        payload = {"item": "milk"}
        positional = SessionEvent(4, 1000, 3, EventKind.ITEM_SELECTED, payload)
        keyword = SessionEvent(payload=payload, kind=EventKind.ITEM_SELECTED,
                               scene=3, sim_time_ms=1000, seq=4)
        assert positional == keyword
        assert positional.payload is payload
        assert dataclasses.astuple(positional) == (4, 1000, 3, EventKind.ITEM_SELECTED,
                                                   {"item": "milk"})
        moved = dataclasses.replace(positional, seq=5)
        assert (moved.seq, moved.payload) == (5, payload)
        assert moved != positional
        with pytest.raises(ValueError, match="^seq must be non-negative$"):
            dataclasses.replace(positional, seq=-1)

    def test_repr_and_fields(self):
        event = SessionEvent(0, 0, 1, EventKind.SCENE_ENTERED)
        assert repr(event) == (
            "SessionEvent(seq=0, sim_time_ms=0, scene=1, "
            "kind=<EventKind.SCENE_ENTERED: 'SceneEntered'>, payload={})")
        assert [f.name for f in dataclasses.fields(SessionEvent)] == [
            "seq", "sim_time_ms", "scene", "kind", "payload"]
        assert not hasattr(event, "__dict__")

    def test_omitted_payload_is_a_fresh_dict(self):
        first = SessionEvent(0, 0, 1, EventKind.SCENE_ENTERED)
        second = SessionEvent(seq=1, sim_time_ms=0, scene=1, kind=EventKind.SCENE_EXITED)
        assert first.payload == second.payload == {}
        assert first.payload is not second.payload

    def test_frozen(self):
        event = SessionEvent(0, 0, 1, EventKind.SCENE_ENTERED)
        with pytest.raises(dataclasses.FrozenInstanceError):
            event.seq = 1
        with pytest.raises(dataclasses.FrozenInstanceError):
            del event.payload

    @pytest.mark.parametrize("fields, error, message", _BAD_EVENTS)
    def test_each_check_and_its_message(self, fields, error, message):
        arguments = {"seq": 0, "sim_time_ms": 0, "scene": 1,
                     "kind": EventKind.SCENE_ENTERED, **fields}
        with pytest.raises(error) as caught:
            SessionEvent(**arguments)
        assert str(caught.value) == message

    @pytest.mark.parametrize("kind", list(EventKind), ids=[kind.value for kind in EventKind])
    def test_an_empty_payload_passes_only_a_kind_without_fields(self, kind):
        # the schema walk is skipped for a plain {} alone, and only where it
        # would find nothing; any other empty mapping is walked
        fields = scenario._PAYLOAD_FIELDS.get(kind, {})
        for empty in ({}, collections.OrderedDict(), types.MappingProxyType({})):
            if fields:
                with pytest.raises(ValueError, match="payload has wrong fields"):
                    SessionEvent(0, 0, 1, kind, empty)
            else:
                assert SessionEvent(0, 0, 1, kind, empty).payload is empty
        with pytest.raises(ValueError, match=r"unexpected=\['x'\]"):
            SessionEvent(0, 0, 1, kind, {**dict.fromkeys(fields, "v"), "x": 1})


class TestEventValidation:
    def test_unknown_scene_id(self):
        with pytest.raises(ValueError):
            SessionEvent(seq=0, sim_time_ms=0, scene=23,
                         kind=EventKind.SCENE_ENTERED)

    def test_payload_schema_enforced(self):
        with pytest.raises(ValueError):
            SessionEvent(seq=0, sim_time_ms=0, scene=3,
                         kind=EventKind.ITEM_SELECTED, payload={})
        with pytest.raises(ValueError):
            SessionEvent(seq=0, sim_time_ms=0, scene=3,
                         kind=EventKind.ITEM_SELECTED,
                         payload={"item": "milk", "extra": 1})

    def test_bool_is_not_int(self):
        with pytest.raises(ValueError):
            SessionEvent(seq=0, sim_time_ms=0, scene=11,
                         kind=EventKind.PRACTICE_ATTEMPT,
                         payload={"targets_hit": True, "distractors_hit": 0})

    def test_clock_ends_at_2_53_ms(self):
        def entered_at(t_ms):
            return SessionEvent(seq=0, sim_time_ms=t_ms, scene=1,
                                kind=EventKind.SCENE_ENTERED)
        assert entered_at(2**53).sim_time_ms == 2**53
        with pytest.raises(ValueError, match=r"^sim_time_ms must be at most 2\*\*53$"):
            entered_at(2**53 + 1)
        with pytest.raises(ValueError, match="^sim_time_ms must be non-negative$"):
            entered_at(-1)

    def test_nonfinite_float_rejected(self):
        with pytest.raises(ValueError):
            SessionEvent(seq=0, sim_time_ms=0, scene=6,
                         kind=EventKind.COOKING_ITEM_PLACED,
                         payload={"item": "kettle", "cook_time_s": float("nan")})

    @given(targets=st.integers(0, 3), distractors=st.integers(0, 3))
    def test_gate_matches_engine(self, targets, distractors):
        state = _entered(11)
        _, effects = advance(state, _ev(1, 1, 11, EventKind.PRACTICE_ATTEMPT,
                                        {"targets_hit": targets,
                                         "distractors_hit": distractors}))
        passed = any(isinstance(e, PracticePassed) for e in effects)
        assert passed == (practice_gate(11, targets, distractors) is GateResult.PASS)


# ---------------------------------------------------------------------------
# replay and the simulator apply events in place; advance copies per event.
# Both routes must agree everywhere.


@pytest.fixture(scope="module")
def simulated_logs():
    return [simulate_session(PROFILE_PRESETS[preset](), seed)
            for preset in ("default", "perfect", "null") for seed in (1, 2, 3)]


def _fold_advance(events):
    state = initial_state()
    trace = []
    for event in events:
        state, effects = advance(state, event)
        trace.append((event, effects))
    return state, trace


def _first_rejection(events):
    state = initial_state()
    for index, event in enumerate(events):
        try:
            state, _ = advance(state, event)
        except EngineError as exc:
            return index, exc
    raise AssertionError("the corrupted log was accepted")


def _corruptions(events):
    # Each one is rejected by the engine: a scene entry dropped or doubled,
    # an exit swapped with the next entry, a timestamp moved backwards.
    entries = [i for i, e in enumerate(events)
               if e.kind is EventKind.SCENE_ENTERED and i > 0]
    for at in (entries[1], entries[len(entries) // 2], entries[-1]):
        yield events[:at] + events[at + 1:]
        yield events[:at] + [events[at]] + events[at:]
        yield events[:at - 1] + [events[at], events[at - 1]] + events[at + 1:]
        late = events[at + 1]
        yield (events[:at + 1]
               + [dataclasses.replace(late, sim_time_ms=events[at].sim_time_ms - 1)]
               + events[at + 2:])


class TestInPlaceMatchesAdvance:
    def test_replay_equals_advance_fold(self, simulated_logs):
        for log in simulated_logs:
            final, trace = replay(log.events)
            folded_final, folded_trace = _fold_advance(log.events)
            assert final == folded_final
            assert trace == folded_trace

    def test_replay_leaves_start_state_unchanged(self, simulated_logs):
        events = simulated_logs[0].events
        half = len(events) // 2
        start, _ = replay(events[:half])
        snapshot = start.copy()
        final, _ = replay(events[half:], state=start)
        assert start == snapshot
        assert final == replay(events)[0]

    def test_rejections_agree(self, simulated_logs):
        seen = set()
        for corrupted in _corruptions(list(simulated_logs[0].events)):
            index, expected = _first_rejection(corrupted)
            replay(corrupted[:index])  # everything before it is accepted
            with pytest.raises(EngineError) as caught:
                replay(corrupted)
            assert type(caught.value) is type(expected)
            assert str(caught.value) == str(expected)
            seen.add(type(expected))
        assert seen == {InvalidEvent, WrongSceneEvent, OutOfOrderEvent}

    # aggregate_scorecard folds the engine without replay's trace: the fold
    # must end in replay's state and fail as replay fails.
    def test_final_state_equals_replay(self, simulated_logs):
        for log in simulated_logs:
            events = log.events
            for end in (*range(0, len(events), 20), len(events)):
                assert scenario._final_state(events[:end]) == replay(events[:end])[0]

    def test_scoring_words_a_rejection_as_replay_raises_it(self, simulated_logs,
                                                           config):
        for corrupted in _corruptions(list(simulated_logs[0].events)):
            with pytest.raises(EngineError) as expected:
                replay(corrupted)
            with pytest.raises(sessionlog.MalformedLog) as raised:
                aggregate_scorecard(sessionlog.SessionLog(events=tuple(corrupted)),
                                    config)
            assert str(raised.value) == (
                f"log rejected by the scenario engine: {expected.value}")
            assert type(raised.value.__cause__) is type(expected.value)

    def test_simulator_state_equals_replay(self, monkeypatch):
        builders = []

        class RecordingBuilder(simulate._SessionBuilder):
            def __init__(self, *args):
                super().__init__(*args)
                builders.append(self)

        monkeypatch.setattr(simulate, "_SessionBuilder", RecordingBuilder)
        for preset in ("default", "perfect", "null"):
            for seed in (1, 2, 3):
                log = simulate_session(PROFILE_PRESETS[preset](), seed)
                assert builders[-1].state == replay(log.events)[0]


# One payload per kind that passes the schema and every range check.
_VALID_PAYLOADS = {
    EventKind.SCENE_EXITED: {},
    EventKind.TUTORIAL_COMPLETED: {},
    EventKind.PRACTICE_ATTEMPT: {"targets_hit": 3, "distractors_hit": 0},
    EventKind.NOTES_INTENT_ANSWERED: {"prompt_index": 1, "yes": True},
    EventKind.ITEM_SELECTED: {"item": "bananas"},
    EventKind.ROUTE_UNIT_TOGGLED: {"unit": 1, "selected": True},
    EventKind.ROUTE_SUBMITTED: {},
    EventKind.COOKING_ITEM_PLACED: {"item": "omelette", "cook_time_s": 20.0},
    EventKind.FINAL_BUTTON_PRESSED: {},
    EventKind.EXIT_ATTEMPTED: {},
    EventKind.MEDICATION_TAKEN: {},
    EventKind.PIE_REMOVED: {},
    EventKind.NOTE_OPENED: {},
    EventKind.NOTE_CLOSED: {},
    EventKind.NPC_PROMPT_ANSWERED: {"prompt_index": 1, "yes": True},
    EventKind.NPC_ITEM_CHOSEN: {"choice": "correct"},
    EventKind.POSTER_SPOTTED: {
        "stimulus_id": "poster_1", "stimulus_kind": "target", "side": "left"},
    EventKind.SOUND_TRIGGERED: {
        "stimulus_id": "sound_1", "stimulus_kind": "target",
        "stimulus_side": "left", "response_side": "left"},
    EventKind.SHOPPING_COLLECTED: {"item": "bananas"},
    EventKind.KEYS_GIVEN: {},
    EventKind.ITEM_STOWED: {"item": "bananas"},
}

# Recorded from the engine before its scene rules became a table: the scenes
# in which each kind is accepted right after entering the scene along the
# minimal walk.  Every other (scene, kind) pair raises InvalidEvent, except a
# practice attempt outside a gated scene, which raises NotAGatedScene.
_ACCEPTED_AFTER_ENTRY = {
    EventKind.SCENE_EXITED: {12, 19},
    EventKind.TUTORIAL_COMPLETED: {1, 2, 4, 5, 7, 9, 13},
    EventKind.PRACTICE_ATTEMPT: {11, 18},
    EventKind.NOTES_INTENT_ANSWERED: {3},
    EventKind.ITEM_SELECTED: {3, 8},
    EventKind.ROUTE_UNIT_TOGGLED: {3},
    EventKind.ROUTE_SUBMITTED: {3},
    EventKind.COOKING_ITEM_PLACED: {6},
    EventKind.FINAL_BUTTON_PRESSED: {6, 14, 22},
    EventKind.EXIT_ATTEMPTED: {8},
    EventKind.MEDICATION_TAKEN: {6, 22},
    EventKind.PIE_REMOVED: {8},
    EventKind.NOTE_OPENED: set(range(1, 23)),
    EventKind.NOTE_CLOSED: set(),
    EventKind.NPC_PROMPT_ANSWERED: {10, 15, 16, 17, 20, 21},
    EventKind.NPC_ITEM_CHOSEN: set(),
    EventKind.POSTER_SPOTTED: {12},
    EventKind.SOUND_TRIGGERED: {19},
    EventKind.SHOPPING_COLLECTED: {14},
    EventKind.KEYS_GIVEN: {21},
    EventKind.ITEM_STOWED: {22},
}


def _entered_along_walk(scene_id):
    walk = minimal_walk()
    at = next(i for i, e in enumerate(walk)
              if e.scene == scene_id and e.kind is EventKind.SCENE_ENTERED)
    state, _ = replay(walk[:at + 1])
    return state, walk[at]


def _outcome(scene_id, kind):
    state, entry = _entered_along_walk(scene_id)
    event = _ev(entry.seq + 1, entry.sim_time_ms + 1_000, scene_id, kind,
                dict(_VALID_PAYLOADS[kind]))
    try:
        advance(state, event)
    except EngineError as exc:
        return exc
    return None


class TestSceneEventOutcomes:
    def test_every_kind_is_covered(self):
        kinds = set(EventKind) - {EventKind.SCENE_ENTERED}
        assert set(_VALID_PAYLOADS) == kinds
        assert set(_ACCEPTED_AFTER_ENTRY) == kinds

    def test_outcome_table(self):
        counts = {"accepted": 0, NotAGatedScene: 0, InvalidEvent: 0}
        for scene_id in range(1, 23):
            for kind, hosts in _ACCEPTED_AFTER_ENTRY.items():
                error = _outcome(scene_id, kind)
                if scene_id in hosts:
                    assert error is None, (scene_id, kind, error)
                    counts["accepted"] += 1
                    continue
                expected = (NotAGatedScene if kind is EventKind.PRACTICE_ATTEMPT
                            else InvalidEvent)
                assert type(error) is expected, (scene_id, kind, error)
                counts[expected] += 1
        assert counts == {"accepted": 57, NotAGatedScene: 20, InvalidEvent: 385}

    def test_rejection_names_kind_and_scene(self):
        for kind, hosts in EVENT_SCENES.items():
            for scene_id in set(range(1, 23)) - hosts:
                error = _outcome(scene_id, kind)
                assert str(error) == (
                    f"{kind.value} does not occur in scene {scene_id}")


@pytest.mark.parametrize("preset", sorted(PROFILE_PRESETS))
def test_entry_and_exit_change_only_their_own_fields(preset):
    # what lasts a scene is in SceneState, which each entry makes anew: no
    # other field of the session is set or cleared at a scene's edges
    allowed = {EventKind.SCENE_ENTERED: {"entered", "scene", "scenes", "sim_clock_ms"},
               EventKind.SCENE_EXITED: {"entered", "scene", "scenes", "sim_clock_ms",
                                        "current_scene"}}
    state = initial_state()
    for event in simulate_session(PROFILE_PRESETS[preset](), 1).events:
        successor, _ = advance(state, event)
        if event.kind in allowed:
            changed = {f.name for f in dataclasses.fields(SessionState)
                       if getattr(successor, f.name) != getattr(state, f.name)}
            assert changed <= allowed[event.kind], (event, changed)
        state = successor


# A record keeps a plain dict of each payload it takes, so a state holding a
# payload of any Mapping type still copies.
@pytest.mark.parametrize("scene_id", [3, 8])
def test_a_state_that_took_a_mapping_payload_copies(scene_id):
    state = _entered(scene_id)
    for seq, item in enumerate(("milk", "eggs"), start=1):
        payload = types.MappingProxyType({"item": item})
        state, _ = advance(state, _ev(seq, seq, scene_id, EventKind.ITEM_SELECTED, payload))
    assert state.scene.payloads == [{"item": "milk"}, {"item": "eggs"}]
    assert all(type(payload) is dict for payload in state.scene.payloads)


def _containers(value):
    # every record, set, dict and list reachable from value, by id
    if dataclasses.is_dataclass(value):
        items = [getattr(value, f.name) for f in dataclasses.fields(value)]
    elif isinstance(value, dict):
        items = list(value.values())
    elif isinstance(value, (set, list)):
        items = list(value)
    else:
        return {}
    found = {id(value): value}
    for item in items:
        found.update(_containers(item))
    return found


def test_state_copy_shares_no_container():
    walk = minimal_walk()
    state, _ = replay(walk[:len(walk) // 2])
    clone = state.copy()
    assert clone == state
    # the copy's current record is its own entry in scenes, not the original's
    [sid] = [sid for sid, record in state.scenes.items() if record is state.scene]
    assert clone.scene is clone.scenes[sid]
    assert clone.scene is not state.scene
    originals, copies = _containers(state), _containers(clone)
    kinds = {type(value) for value in originals.values()}
    assert {SessionState, scenario.SceneState, set, dict, list} <= kinds
    assert len(copies) == len(originals)
    assert not originals.keys() & copies.keys()


def _global_names(code):
    """The names ``code`` and the code nested in it (comprehensions, inner
    functions) load as globals or attributes."""
    names = set(code.co_names)
    for const in code.co_consts:
        if isinstance(const, type(code)):
            names |= _global_names(const)
    return names


class TestNoPerEventEnumReads:
    # On Python 3.11 every ``EventKind.X`` or ``PmPolarity.X`` read goes
    # through ``EnumType.__getattr__``, about ten times the cost of a module
    # global, so the code that runs per event reads its members from module
    # globals bound at import.
    @pytest.mark.parametrize("fn", [
        scenario._apply,
        scenario._step,
        scenario._fire_due_timer_prompts,
        scenario._on_npc_prompt_answered,
        scenario._on_route,
        scenario._HANDLERS[EventKind.ITEM_SELECTED][3],
        scenario._on_item_grabbed,
        scenario._on_resolving_event,
        scenario._on_session_end,
        sessionlog.derive_telemetry,
        simulate._SessionBuilder._emit,
    ], ids=lambda fn: fn.__qualname__)
    def test_loads_no_enum_class(self, fn):
        names = _global_names(fn.__code__)
        assert "EventKind" not in names
        assert "PmPolarity" not in names


_EFFECT_CLASSES = frozenset(cls.__name__ for cls in typing.get_args(scenario.Effect))
# The engine's core: every function that changes a state for an event.
_ENGINE_CORE = list(dict.fromkeys(
    [scenario._apply, scenario._fire_due_timer_prompts,
     *(getattr(handler, "__func__", handler)
       for hosts in scenario._HANDLERS.values() for handler in hosts.values())]))


class TestEffectsAreReadOffTheState:
    # The engine's core only changes state; advance and replay read each
    # event's effects off the change, in one function, so a caller that
    # reads only the state builds no effect.
    @pytest.mark.parametrize("fn", _ENGINE_CORE, ids=lambda fn: fn.__qualname__)
    def test_core_takes_no_effects_and_names_no_effect_class(self, fn):
        assert "effects" not in inspect.signature(fn).parameters
        assert not _global_names(fn.__code__) & _EFFECT_CLASSES

    def test_one_function_builds_effects(self):
        naming = set()
        for path in sorted(pathlib.Path(scenario.__file__).parent.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    names = {getattr(inner, "id", getattr(inner, "attr", None))
                             for inner in ast.walk(node)}
                    if names & _EFFECT_CLASSES:
                        naming.add(f"{path.stem}.{node.name}")
        assert naming == {"scenario._step"}
