"""Scoring configuration: the injectable knobs and their defaults.

Everything a study might legitimately re-tune lives here — the recognition
catalog, timing-band points, the conversation scoring matrices, normative
route timing, stimulus counts, and the target session length.  The structural
rules themselves (what gets multiplied by what) stay in :mod:`scoring`.

Configs serialize to canonical JSON; :func:`config_hash` over that JSON is
stamped into every session log header and run manifest so a log can always be
matched to the exact rules that scored it.

The questionnaire's domain mapping is not a config field: ``vrnq score`` and
``vrnq compare`` take it only from ``--domains``, and a config file that holds
``domain_mapping`` is refused as an unknown key.  Logs written while the field
existed carry a hash that covered it; ``score`` never compares a log header's
hash with its config.
"""

from __future__ import annotations

import dataclasses
import hashlib
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping, Optional

from .jsonio import (ConfigError, _canonical, _is_int, _is_number, _json_native, _quoted, _record,
                     read_json, write_json)
from .scenario import (_MAX_CLOCK_MS, AUDITORY_STIMULUS_KINDS, LADDER_DEPTH,
                       SHOPPING_LIST_LENGTH, VISUAL_STIMULUS_KINDS, NpcChoice)


# Band names for the cooking timing classifier.
BAND_NAMES = (
    "VeryEarly", "Early", "SlightlyEarly", "OnTime",
    "SlightlyLate", "Late", "VeryLate",
)

DEFAULT_BAND_POINTS: dict[str, int] = {
    "OnTime": 3,
    "SlightlyEarly": 2,
    "SlightlyLate": 2,
    "Early": 1,
    "Late": 1,
    "VeryEarly": 0,
    "VeryLate": 0,
}

# Conversation tasks: points by (prompt the user affirmed at) x (board item
# category).  Affirming earlier and choosing the intended item pays best;
# a semantically related item pays half (rounded up), any other errand item
# pays a consolation point, an unrelated item pays nothing.
DEFAULT_NPC_POSITIVE_MATRIX: dict[str, dict[str, int]] = {
    "1": {"correct": 6, "semantic_relative": 3, "other_pm_task": 1, "unrelated": 0},
    "2": {"correct": 4, "semantic_relative": 2, "other_pm_task": 1, "unrelated": 0},
    "3": {"correct": 2, "semantic_relative": 1, "other_pm_task": 1, "unrelated": 0},
}

# False reminders: affirming earlier costs more.
DEFAULT_NPC_NEGATIVE_DEDUCTIONS: dict[str, int] = {
    "0": 0, "1": -3, "2": -2, "3": -1,
}

_DEFAULT_RECOGNITION_TARGETS = (
    "semi_skimmed_milk", "wholemeal_bread", "bananas", "potatoes_1kg",
    "orange_juice", "medium_eggs", "mild_cheddar", "tomato_soup",
    "basmati_rice", "ground_coffee",
)
_DEFAULT_RECOGNITION_QUALITATIVE = (
    "skimmed_milk", "white_bread", "plantains", "sweet_potatoes",
    "instant_coffee",
)
_DEFAULT_RECOGNITION_QUANTITATIVE = (
    "potatoes_2kg", "large_eggs", "milk_two_litres", "rice_2kg",
    "juice_two_litres",
)
_DEFAULT_RECOGNITION_FALSE = (
    "chocolate_bar", "washing_up_liquid", "cat_food", "frozen_pizza",
    "sparkling_water", "digestive_biscuits", "crisps", "vanilla_ice_cream",
    "kitchen_roll", "toothpaste",
)

_DEFAULT_COLLECTION_TARGETS = (
    "red_book", "twenty_pound_note", "smartphone", "library_card",
    "flat_keys", "car_keys",
)
_DEFAULT_COLLECTION_DISTRACTORS = (
    "magazine", "blue_book", "tv_remote", "notebook", "pencil",
    "chessboard", "wine_bottle",
)

# Ride -> stimulus kind -> the field that sets how many stimuli of that kind
# each side of the ride shows, in the engine's order of the kinds.
_PER_SIDE_FIELDS: dict[str, dict[str, str]] = {
    "visual": dict(zip(VISUAL_STIMULUS_KINDS, (
        "visual_targets_per_side", "visual_shape_distractors_per_side",
        "visual_color_distractors_per_side"), strict=True)),
    "auditory": dict(zip(AUDITORY_STIMULUS_KINDS, (
        "auditory_targets_per_side", "auditory_high_distractors_per_side",
        "auditory_low_distractors_per_side"), strict=True)),
}


_DEDUCTION_FLOOR = -3  # the lowest score one false reminder can get

# the longest planning time telemetry can report: float(ms) / 1000.0
_MAX_PLANNING_S = sys.float_info.max / 1000.0


@dataclass(frozen=True)
class ScoringConfig:
    """All injectable scoring and simulation parameters."""

    recognition_targets: tuple[str, ...] = _DEFAULT_RECOGNITION_TARGETS
    recognition_qualitative: tuple[str, ...] = _DEFAULT_RECOGNITION_QUALITATIVE
    recognition_quantitative: tuple[str, ...] = _DEFAULT_RECOGNITION_QUANTITATIVE
    recognition_false: tuple[str, ...] = _DEFAULT_RECOGNITION_FALSE

    collection_targets: tuple[str, ...] = _DEFAULT_COLLECTION_TARGETS
    collection_distractors: tuple[str, ...] = _DEFAULT_COLLECTION_DISTRACTORS

    # Normative completion time for the route-planning task, used for the
    # +/-2-step timing modifier.
    normative_route_mean_s: float = 30.0
    normative_route_sd_s: float = 10.0

    band_points: Mapping[str, int] = field(
        default_factory=lambda: dict(DEFAULT_BAND_POINTS))
    npc_positive_matrix: Mapping[str, Mapping[str, int]] = field(
        default_factory=lambda: {k: dict(v) for k, v in DEFAULT_NPC_POSITIVE_MATRIX.items()})
    npc_negative_deductions: Mapping[str, int] = field(
        default_factory=lambda: dict(DEFAULT_NPC_NEGATIVE_DEDUCTIONS))

    # Attention stimulus counts, per side.
    visual_targets_per_side: int = 8
    visual_shape_distractors_per_side: int = 4
    visual_color_distractors_per_side: int = 4
    auditory_targets_per_side: int = 8
    auditory_high_distractors_per_side: int = 4
    auditory_low_distractors_per_side: int = 4

    # Simulated session length target, in seconds.
    session_target_s: float = 3732.0

    def validate(self) -> None:
        # Types first, so that no comparison below meets a mistyped value.
        for name in (f.name for f in dataclasses.fields(self) if isinstance(f.default, tuple)):
            value = getattr(self, name)
            if not isinstance(value, tuple) or not all(isinstance(v, str) for v in value):
                raise ConfigError(f"{name} must be a list of strings")
        for name in ("normative_route_mean_s", "normative_route_sd_s",
                     "session_target_s"):
            value = getattr(self, name)
            if not (_is_number(value) and abs(value) <= sys.float_info.max):  # NaN fails too
                raise ConfigError(f"{name} must be a finite number")
        for name in (*_PER_SIDE_FIELDS["visual"].values(),
                     *_PER_SIDE_FIELDS["auditory"].values()):
            if not _is_int(getattr(self, name)):
                raise ConfigError(f"{name} must be an integer")
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be non-negative")
        for name, count in (
                ("recognition_targets", SHOPPING_LIST_LENGTH),
                ("recognition_qualitative", len(_DEFAULT_RECOGNITION_QUALITATIVE)),
                ("recognition_quantitative", len(_DEFAULT_RECOGNITION_QUANTITATIVE)),
                ("recognition_false", len(_DEFAULT_RECOGNITION_FALSE)),
                ("collection_targets", len(_DEFAULT_COLLECTION_TARGETS))):
            if len(getattr(self, name)) != count:
                raise ConfigError(f"{name} must list {count} items")
        catalog = (self.recognition_targets + self.recognition_qualitative
                   + self.recognition_quantitative + self.recognition_false)
        if len(set(catalog)) != len(catalog):
            raise ConfigError("recognition catalog items must be unique")
        # a repeated distractor only counts one more error grab
        if len(set(self.collection_targets)) != len(self.collection_targets):
            raise ConfigError("collection targets must be unique")
        if set(self.collection_targets) & set(self.collection_distractors):
            raise ConfigError("collection targets and distractors overlap")
        if self.normative_route_sd_s <= 0:
            raise ConfigError("normative_route_sd_s must be positive")
        # time_z = (c - mean) / sd for a planning time c that telemetry
        # computes as milliseconds / 1000.0, so c lies in [0, max / 1000]
        # and the z of either end must stay finite
        worst = max(abs(self.normative_route_mean_s),
                    abs(_MAX_PLANNING_S - self.normative_route_mean_s))
        if not worst / self.normative_route_sd_s <= sys.float_info.max:
            raise ConfigError(
                f"normative_route_sd_s {self.normative_route_sd_s!r} lets time_z "
                f"overflow for a planning time in [0, {_MAX_PLANNING_S:.3g}] s")
        # the report prints awarded points as a score out of a maximum, so no
        # award is below 0; a single deduction is in [_DEDUCTION_FLOOR, 0]
        _check_points("band_points", self.band_points, set(BAND_NAMES),
                      f"band_points must cover exactly {BAND_NAMES}", 0)
        # keyed by the prompt affirmed at, or 0 for none
        depths = [str(depth) for depth in range(LADDER_DEPTH + 1)]
        matrix = self.npc_positive_matrix
        if not isinstance(matrix, Mapping) or set(matrix) != set(depths[1:]):
            raise ConfigError("npc_positive_matrix needs rows " + ", ".join(map(repr, depths[1:])))
        for row in matrix.values():
            _check_points("npc_positive_matrix", row, {c.value for c in NpcChoice},
                          "npc_positive_matrix rows need all four item categories", 0)
        _check_points("npc_negative_deductions", self.npc_negative_deductions, set(depths),
                      f"npc_negative_deductions needs keys '0'..'{LADDER_DEPTH}'",
                      _DEDUCTION_FLOOR, 0)
        if self.session_target_s <= 0:
            raise ConfigError("session_target_s must be positive")
        if self.session_target_s * 1000 > _MAX_CLOCK_MS:
            raise ConfigError(
                f"session_target_s must be at most {_MAX_CLOCK_MS / 1000:g} (2**53 ms)")


def _check_points(name: str, table: Any, keys: set[str], message: str,
                  low: int, high: Optional[int] = None) -> None:
    """Require a mapping from exactly ``keys`` to ints in ``[low, high]`` (no
    upper bound if ``high`` is None); ``message`` if the keys differ."""
    if not isinstance(table, Mapping) or set(table) != keys:
        raise ConfigError(message)
    for value in table.values():
        if not _is_int(value):
            raise ConfigError(f"{name} values must be integers, not {_quoted(value)}")
        if value < low or (high is not None and value > high):
            bounds = f"at least {low}" if high is None else f"in [{low}, {high}]"
            raise ConfigError(f"{name} values must be {bounds}, not {_quoted(int(value))}")


def config_to_dict(config: ScoringConfig) -> dict[str, Any]:
    """A JSON-native dict of the fields: it equals ``json.loads`` of its ``json.dumps``."""
    return _json_native(config)


def config_hash(config: ScoringConfig) -> str:
    """sha256 over the canonical JSON of the full effective config, the
    encoding the session log writes its lines in.

    The JSON is written straight from the fields, which gives the bytes of
    :func:`config_to_dict`'s JSON for a config that passes ``validate()``.
    """
    return hashlib.sha256(_canonical(vars(config)).encode("utf-8")).hexdigest()


def default_config() -> ScoringConfig:
    return ScoringConfig()  # the built-in defaults, which the test suite validates


def config_from_dict(data: Mapping[str, Any]) -> ScoringConfig:
    """Build a config from a (possibly partial) JSON mapping over defaults."""
    # the reader makes each list field's array a tuple, which validate() checks
    config = _record(ScoringConfig, data, "config", "keys")
    config.validate()
    return config


def load_config(path: str | Path) -> ScoringConfig:
    """Read a JSON config file, merging the given keys over the defaults; a
    fault in its content is a ConfigError that names ``path``."""
    return read_json(path, config_from_dict)


def save_config(config: ScoringConfig, path: str | Path) -> None:
    write_json(path, config_to_dict(config))


def __getattr__(name: str) -> Any:
    # the default mapping lives in vrnq, imported only when the name is read
    if name == "DEFAULT_DOMAIN_MAPPING":
        from .vrnq import DEFAULT_DOMAIN_MAPPING
        return DEFAULT_DOMAIN_MAPPING
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
