"""Engine-agnostic logic for a 22-scene everyday-errand assessment.

The package covers the full pipeline: the scenario state machine
(:mod:`errandlab.scenario`), task scoring (:mod:`errandlab.scoring`),
append-only session logs and reports (:mod:`errandlab.sessionlog`),
questionnaire psychometrics (:mod:`errandlab.vrnq`), Bayesian paired
comparisons (:mod:`errandlab.bayes`), a seeded participant simulator
(:mod:`errandlab.simulate`), and a CLI (:mod:`errandlab.cli`).

The :mod:`errandlab.bayes` names are re-exported lazily (PEP 562), so that
importing the package or its CLI loads neither scipy nor numpy.
"""

import importlib

__version__ = "0.1.0"

from .config import (
    ConfigError,
    ScoringConfig,
    config_from_dict,
    config_hash,
    config_to_dict,
    default_config,
    load_config,
    save_config,
)
from .scenario import (
    EngineError,
    EventKind,
    GateResult,
    InvalidEvent,
    NotAGatedScene,
    OutOfOrderEvent,
    PracticePassed,
    PracticeRetry,
    PromptShown,
    SceneTransition,
    SessionComplete,
    SessionEvent,
    SessionState,
    WrongSceneEvent,
    advance,
    initial_state,
    practice_gate,
    replay,
    scene_sequence,
)
from .scoring import (
    TaskScorecard,
    aggregate_scorecard,
    score_session,
    scorecard_to_dict,
)
from .sessionlog import (
    IncompleteSession,
    LogError,
    MalformedLog,
    ParseError,
    SessionLog,
    Telemetry,
    append_event,
    derive_telemetry,
    deserialize_log,
    export_report,
    log_from_events,
    serialize_log,
)
from .simulate import (
    LengthMismatch,
    ParticipantProfile,
    default_profile,
    load_profile,
    null_profile,
    perfect_profile,
    save_profile,
    simulate_cohort,
    simulate_session,
)
from .vrnq import (
    CohortAggregate,
    CutoffVerdict,
    DomainMapping,
    VrnqError,
    VrnqResponseSet,
    VrnqScores,
    aggregate_cohort,
    check_cutoffs,
    median_absolute_deviation,
    read_cohort_csv,
    score_vrnq,
    write_cohort_csv,
)

_BAYES_NAMES = frozenset({
    "BayesComparison", "DegenerateSample", "Direction", "EvidenceBand",
    "IntegrationFailure", "PairedSample", "TTestResult", "bf10_directional",
    "classify_evidence", "compare_paired", "compare_paired_columns",
    "evidence_stars", "nct_logpdf", "paired_t",
})


def __getattr__(name: str):
    # import_module, not ``from . import bayes``: the latter asks this hook
    # for "bayes" before importing it, and would recurse
    if name == "bayes" or name in _BAYES_NAMES:
        bayes = importlib.import_module(f"{__name__}.bayes")
        return bayes if name == "bayes" else getattr(bayes, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | _BAYES_NAMES)
