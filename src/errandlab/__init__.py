"""Engine-agnostic logic for a 22-scene everyday-errand assessment.

The package covers the full pipeline: the scenario state machine
(:mod:`errandlab.scenario`), task scoring (:mod:`errandlab.scoring`),
append-only session logs and reports (:mod:`errandlab.sessionlog`),
questionnaire psychometrics (:mod:`errandlab.vrnq`), Bayesian paired
comparisons (:mod:`errandlab.bayes`), a seeded participant simulator
(:mod:`errandlab.simulate`), and a CLI (:mod:`errandlab.cli`).

Every public name, and every submodule, is resolved lazily (PEP 562): the
first use of ``errandlab.score_vrnq`` or ``errandlab.scoring`` imports the
one submodule that defines it.  So ``import errandlab`` loads no submodule,
and each CLI command loads only the modules it runs: every command loads
``cli`` and ``jsonio`` (the JSON reader and writer, and ``ConfigError``);
``score`` adds ``config``, ``scenario``, ``sessionlog`` and ``scoring``;
``simulate`` adds those and ``simulate``; ``vrnq score`` adds only
``vrnq``; and ``vrnq compare`` adds ``vrnq`` and ``bayes`` (numpy, scipy).
"""

import importlib

__version__ = "0.1.0"

# submodule -> the public names it defines
_EXPORTS = {
    "jsonio": ("ConfigError",),
    "config": (
        "ScoringConfig", "config_from_dict", "config_hash", "config_to_dict",
        "default_config", "load_config", "save_config",
    ),
    "scenario": (
        "EngineError", "EventKind", "GateResult", "InvalidEvent",
        "NotAGatedScene", "OutOfOrderEvent", "PracticePassed", "PracticeRetry",
        "PromptShown", "SceneTransition", "SessionComplete", "SessionEvent",
        "SessionState", "WrongSceneEvent", "advance", "initial_state",
        "practice_gate", "replay", "scene_sequence",
    ),
    "scoring": (
        "TaskScorecard", "aggregate_scorecard", "score_session",
        "scorecard_to_dict",
    ),
    "sessionlog": (
        "IncompleteSession", "LogError", "MalformedLog", "ParseError",
        "SessionLog", "Telemetry", "append_event", "derive_telemetry",
        "deserialize_log", "export_report", "log_from_events", "serialize_log",
    ),
    "simulate": (
        "LengthMismatch", "ParticipantProfile", "default_profile",
        "load_profile", "null_profile", "perfect_profile", "save_profile",
        "simulate_cohort", "simulate_session",
    ),
    "vrnq": (
        "CohortAggregate", "CutoffVerdict", "DomainMapping", "VrnqError",
        "VrnqResponseSet", "VrnqScores", "aggregate_cohort", "check_cutoffs",
        "median_absolute_deviation", "read_cohort_csv", "score_vrnq",
        "write_cohort_csv",
    ),
    "bayes": (
        "BayesComparison", "DegenerateSample", "Direction", "EvidenceBand",
        "IntegrationFailure", "PairedSample", "TTestResult", "bf10_directional",
        "classify_evidence", "compare_paired", "compare_paired_columns",
        "evidence_stars", "nct_logpdf", "paired_t",
    ),
    "cli": (),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}


def __getattr__(name: str):
    # import_module, not ``from . import x``: the latter asks this hook for
    # "x" before importing it, and would recurse
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _HOME:
        return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | _HOME.keys())
