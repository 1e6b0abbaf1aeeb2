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
import json
import math
import sys
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Any, Callable, Mapping

from .scenario import (_MAX_CLOCK_MS, AUDITORY_STIMULUS_KINDS, LADDER_DEPTH,
                       SHOPPING_LIST_LENGTH, VISUAL_STIMULUS_KINDS, NpcChoice)


class ConfigError(Exception):
    """Raised for unknown, missing, or invalid configuration content."""


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

# Default questionnaire domain mapping: contiguous five-item blocks in domain
# order.  Studies with a different printed item order pass `vrnq --domains`.
DEFAULT_DOMAIN_MAPPING: dict[str, list[int]] = {
    "UserExperience": [1, 2, 3, 4, 5],
    "GameMechanics": [6, 7, 8, 9, 10],
    "InGameAssistance": [11, 12, 13, 14, 15],
    "VRISE": [16, 17, 18, 19, 20],
}

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
        for name in ("normative_route_mean_s", "normative_route_sd_s",
                     "session_target_s"):
            value = getattr(self, name)
            if not ((type(value) is int or isinstance(value, float))
                    and abs(value) <= sys.float_info.max):  # NaN fails too
                raise ConfigError(f"{name} must be a finite number")
        for name in (*_PER_SIDE_FIELDS["visual"].values(),
                     *_PER_SIDE_FIELDS["auditory"].values()):
            if type(getattr(self, name)) is not int:
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
        _check_points("band_points", self.band_points, set(BAND_NAMES),
                      f"band_points must cover exactly {BAND_NAMES}")
        # keyed by the prompt affirmed at, or 0 for none
        depths = [str(depth) for depth in range(LADDER_DEPTH + 1)]
        matrix = self.npc_positive_matrix
        if not isinstance(matrix, Mapping) or set(matrix) != set(depths[1:]):
            raise ConfigError("npc_positive_matrix needs rows " + ", ".join(map(repr, depths[1:])))
        for row in matrix.values():
            _check_points("npc_positive_matrix", row, {c.value for c in NpcChoice},
                          "npc_positive_matrix rows need all four item categories")
        _check_points("npc_negative_deductions", self.npc_negative_deductions, set(depths),
                      f"npc_negative_deductions needs keys '0'..'{LADDER_DEPTH}'")
        for value in self.npc_negative_deductions.values():
            if value > 0:
                raise ConfigError("negative deductions cannot be positive")
            if value < -3:
                raise ConfigError("a single deduction cannot exceed 3 points")
        if self.session_target_s <= 0:
            raise ConfigError("session_target_s must be positive")
        if self.session_target_s * 1000 > _MAX_CLOCK_MS:
            raise ConfigError(
                f"session_target_s must be at most {_MAX_CLOCK_MS / 1000:g} (2**53 ms)")


def _check_points(name: str, table: Any, keys: set[str], message: str) -> None:
    """Require a mapping from exactly ``keys`` to ints; ``message`` if the keys differ."""
    if not isinstance(table, Mapping) or set(table) != keys:
        raise ConfigError(message)
    for value in table.values():
        if type(value) is not int:
            raise ConfigError(f"{name} values must be integers, not {value!r}")


def config_to_dict(config: ScoringConfig) -> dict[str, Any]:
    """JSON-native dict, tuples rendered as lists."""
    raw = dataclasses.asdict(config)
    return json.loads(json.dumps(raw, sort_keys=True))


def _canonical_json(data: Any) -> str:
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def _float_text(value: float) -> str:
    if math.isfinite(value):
        return float.__repr__(value)
    return "NaN" if value != value else "Infinity" if value > 0 else "-Infinity"


# json's text of each leaf type.  A leaf is looked up by its exact type, and
# a subclass (numpy.float64, a str or int enum) by the first base json tests.
_LEAF_TEXT: dict[type, Callable[[Any], str]] = {
    str: encode_basestring_ascii, int: int.__repr__, float: _float_text,
    bool: lambda value: "true" if value else "false", type(None): lambda value: "null",
}


def _key_text(key: Any) -> str:
    # json sorts by the original key, then writes it as a quoted leaf
    for base in (str, float, bool, type(None), int):
        if isinstance(key, base):
            text = _LEAF_TEXT[base](key)
            return text if base is str else encode_basestring_ascii(text)
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")


def _write_json(value: Any, indent: str, out: list[str]) -> None:
    """Append ``value``'s JSON to ``out``, its closing bracket after ``indent``."""
    text = _LEAF_TEXT.get(type(value))
    if text is not None:
        out.append(text(value))
    elif not isinstance(value, (dict, list, tuple)):
        for base in (str, int, float):
            if isinstance(value, base):
                out.append(_LEAF_TEXT[base](value))
                return
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
    elif not value:
        out.append("{}" if isinstance(value, dict) else "[]")
    elif isinstance(value, dict):
        inner = indent + "  "
        sep = "{" + inner
        for key, item in sorted(value.items()):
            key = encode_basestring_ascii(key) if type(key) is str else _key_text(key)
            out.append(f"{sep}{key}: ")
            _write_json(item, inner, out)
            sep = "," + inner
        out.append(indent + "}")
    else:
        inner = indent + "  "
        sep = "[" + inner
        for item in value:
            out.append(sep)
            _write_json(item, inner, out)
            sep = "," + inner
        out.append(indent + "]")


def _json_text(value: Any) -> str:
    """``json.dumps(value, indent=2, sort_keys=True)`` for a tree of JSON
    values (a container inside itself recurses without end)."""
    # before 3.13 an indent sends json.dumps to its pure-Python encoder,
    # which the writer beats; json.dumps(value, indent=2, sort_keys=True)
    # replaces the writer once requires-python reaches 3.13
    out: list[str] = []
    _write_json(value, "\n", out)
    return "".join(out)


def config_hash(config: ScoringConfig) -> str:
    """sha256 over the canonical JSON of the full effective config.

    The JSON is written straight from the fields, which gives the bytes of
    :func:`config_to_dict`'s JSON for a config that passes ``validate()``.
    """
    fields = {f.name: getattr(config, f.name) for f in dataclasses.fields(config)}
    return hashlib.sha256(_canonical_json(fields).encode("utf-8")).hexdigest()


def default_config() -> ScoringConfig:
    return ScoringConfig()  # the built-in defaults, which the test suite validates


_TUPLE_FIELDS = {f.name for f in dataclasses.fields(ScoringConfig)
                 if isinstance(f.default, tuple)}


def config_from_dict(data: Mapping[str, Any]) -> ScoringConfig:
    """Build a config from a (possibly partial) JSON mapping over defaults."""
    if not isinstance(data, Mapping):
        raise ConfigError("config document must be a JSON object")
    known = {f.name for f in dataclasses.fields(ScoringConfig)}
    unknown = set(data) - known
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    kwargs: dict[str, Any] = {}
    for key, value in data.items():
        if key in _TUPLE_FIELDS:
            if not isinstance(value, (list, tuple)) or not all(
                    isinstance(v, str) for v in value):
                raise ConfigError(f"{key} must be a list of strings")
            kwargs[key] = tuple(value)
        else:
            kwargs[key] = value
    try:
        config = ScoringConfig(**kwargs)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc
    config.validate()
    return config


def read_json(path: str | Path) -> Any:
    """The JSON document in the UTF-8 file at ``path``; ConfigError naming
    ``path`` if the bytes are not UTF-8 JSON, nest past the recursion limit
    or hold an integer longer than Python converts from a string."""
    data = Path(path).read_bytes()
    try:
        return json.loads(data.decode("utf-8"))
    # UnicodeDecodeError and JSONDecodeError are ValueErrors too
    except (ValueError, RecursionError) as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from exc


def load_config(path: str | Path) -> ScoringConfig:
    """Read a JSON config file, merging the given keys over the defaults."""
    data = read_json(path)
    try:
        return config_from_dict(data)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def save_config(config: ScoringConfig, path: str | Path) -> None:
    Path(path).write_text(_json_text(config_to_dict(config)) + "\n", encoding="utf-8")
