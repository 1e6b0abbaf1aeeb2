"""Neuroscience questionnaire scoring and cohort aggregation.

Twenty items on a 1..7 agreement scale, five items per domain
(UserExperience, GameMechanics, InGameAssistance, VRISE), so each domain
sub-score spans 5..35 and the total spans 20..140.  Which printed item
belongs to which domain is an input of its own — a validated partition of
items 1..20 into four five-item groups, given to the CLI with ``--domains``
— because deployments order their questionnaires differently.

Cohort statistics are medians with median absolute deviations: the
questionnaire's scale is ordinal and cohorts are small, so rank-based
summaries are the honest choice.  Two cut-off tiers gate a build: the
minimum tier asks every domain median to reach 25 and the total median 100;
the parsimonious tier raises those bars to 30 and 120.  All cut-offs are
inclusive.

A cohort file is read into columns, not participants: the ids in file order
and the ratings one byte each, item after item.  Both ``vrnq`` commands sum
those item rows into a column per domain and a total column
(:func:`_score_columns`); ``vrnq score`` takes each column's median and MAD
(:func:`_aggregate_columns`) and ``vrnq compare`` pairs the columns by id.
Neither builds a :class:`VrnqResponseSet` or :class:`VrnqScores`.
:func:`score_vrnq` sums one participant's ratings with the same helper
(:func:`_score_sums`), and :func:`aggregate_cohort` aggregates their scores
with the other.
"""

from __future__ import annotations

import csv
import io
from contextlib import nullcontext
from dataclasses import dataclass
from itertools import repeat
from operator import itemgetter
from pathlib import Path
from typing import Any, Iterable, Iterator, Mapping, Optional, Sequence

from .jsonio import ConfigError, ErrandlabError, _is_int, _quoted

# Default domain mapping: contiguous five-item blocks in domain order.
# Studies with a different printed item order pass `vrnq --domains`.
DEFAULT_DOMAIN_MAPPING: dict[str, list[int]] = {
    "UserExperience": [1, 2, 3, 4, 5],
    "GameMechanics": [6, 7, 8, 9, 10],
    "InGameAssistance": [11, 12, 13, 14, 15],
    "VRISE": [16, 17, 18, 19, 20],
}
DOMAINS = tuple(DEFAULT_DOMAIN_MAPPING)
ITEM_COUNT = 20
DOMAIN_SIZE = ITEM_COUNT // len(DOMAINS)
SCALE_MIN, SCALE_MAX = 1, 7
# the ASCII digits that spell a rating as str() writes it, and the map from
# each one to the byte of its value
_RATING_DIGITS = "".join(map(str, range(SCALE_MIN, SCALE_MAX + 1))).encode()
_RATING_BYTES = bytes.maketrans(_RATING_DIGITS, bytes(range(SCALE_MIN, SCALE_MAX + 1)))

CUTOFFS = {
    "minimum": {"sub": 25, "total": 100},
    "parsimonious": {"sub": 30, "total": 120},
}


class VrnqError(ErrandlabError):
    """Raised for malformed questionnaire data."""
    exit_code = 5


@dataclass(frozen=True)
class VrnqResponseSet:
    """One participant's 20 item ratings, in printed-item order."""

    participant_id: str
    items: tuple[int, ...]
    feedback: Optional[str] = None  # stored verbatim, never analyzed

    def __post_init__(self) -> None:
        _check_items(self.participant_id, self.items)


def _check_items(participant_id: str, items: tuple) -> None:
    """Raise a :class:`VrnqError` that names the first fault of a
    participant's ratings, if they have one."""
    if len(items) != ITEM_COUNT:
        raise VrnqError(
            f"{participant_id}: expected {ITEM_COUNT} items, got {len(items)}")
    for index, value in enumerate(items, start=1):
        if not _is_int(value):
            raise VrnqError(f"{participant_id}: item {index} must be an integer")
        if not SCALE_MIN <= value <= SCALE_MAX:
            raise VrnqError(f"{participant_id}: item {index} value {_quoted(int(value))} "
                            f"outside {SCALE_MIN}..{SCALE_MAX}")


@dataclass(frozen=True)
class VrnqScores:
    participant_id: str
    sub_scores: dict[str, int]  # domain -> 5..35
    total: int  # 20..140


def validate_domain_mapping(mapping: Mapping[str, Any]) -> None:
    """Require a partition of items 1..ITEM_COUNT into the named DOMAINS,
    DOMAIN_SIZE items each."""
    if not isinstance(mapping, Mapping) or set(mapping) != set(DOMAINS):
        raise ConfigError(f"domain_mapping must name exactly {sorted(DOMAINS)}")
    seen: list[int] = []
    for domain, items in mapping.items():
        if not isinstance(items, (list, tuple)):
            raise ConfigError(f"domain {domain} items must be a list")
        if len(items) != DOMAIN_SIZE:
            raise ConfigError(f"domain {domain} must map exactly {DOMAIN_SIZE} items")
        for item in items:
            if not (_is_int(item) and 1 <= item <= ITEM_COUNT):
                raise ConfigError(f"domain {domain} has invalid item {_quoted(item)}")
        seen.extend(items)
    if sorted(seen) != list(range(1, ITEM_COUNT + 1)):
        raise ConfigError(f"domain_mapping must partition items 1..{ITEM_COUNT}")


class DomainMapping(Mapping[str, tuple[int, ...]]):
    """A domain mapping that passed :func:`validate_domain_mapping` when it
    was made, with its item lists copied to tuples in ``DOMAINS`` order.
    :func:`score_vrnq` trusts it, so a cohort scored under it is checked
    once."""

    def __init__(self, mapping: Mapping[str, Sequence[int]]) -> None:
        validate_domain_mapping(mapping)
        self._items = {domain: tuple(mapping[domain]) for domain in DOMAINS}

    def __getitem__(self, domain: str) -> tuple[int, ...]:
        return self._items[domain]

    def __iter__(self) -> Iterator[str]:
        return iter(self._items)

    def __len__(self) -> int:
        return len(self._items)


_DEFAULT_MAPPING = DomainMapping(DEFAULT_DOMAIN_MAPPING)


def _score_sums(rows: Sequence[int], mapping: DomainMapping) -> dict[str, int]:
    """``Total`` and then each domain in ``DOMAINS`` order, mapped to the sum
    of its item rows: ``rows[i]`` is item i + 1's row, one participant's
    rating or the packed row of a cohort (:func:`_score_columns`)."""
    sums = {domain: sum([rows[item - 1] for item in items])
            for domain, items in mapping._items.items()}
    return {"Total": sum(sums.values()), **sums}


def score_vrnq(responses: VrnqResponseSet,
               domain_mapping: Optional[Mapping[str, Sequence[int]]] = None) -> VrnqScores:
    """Sum items into the domain sub-scores and the total; checks a passed
    mapping unless it is a :class:`DomainMapping`."""
    mapping = _DEFAULT_MAPPING if domain_mapping is None else domain_mapping
    if not isinstance(mapping, DomainMapping):
        mapping = DomainMapping(mapping)
    subs = _score_sums(responses.items, mapping)
    total = subs.pop("Total")
    return VrnqScores(participant_id=responses.participant_id,
                      sub_scores=subs, total=total)


# a cohort as the reader returns it: the participant ids in file order, their
# ratings one byte each, item after item (n bytes per item, in the ids'
# order), and the feedback column, or None for a file without one
_Cohort = tuple[list[str], bytes, Optional[Sequence[str]]]

# no participant's total reaches 256, so packed rows add without a carry
assert SCALE_MAX * ITEM_COUNT < 256


def _score_columns(ratings: bytes, n: int, mapping: DomainMapping) -> dict[str, bytes]:
    """The columns of ``Total`` and of each domain, as :func:`score_vrnq`
    sums them, for the n participants of a cohort's item-major ``ratings``:
    one byte per participant, in the ratings' order.  Each item row is read
    as one big-endian integer, so one addition sums a whole row."""
    rows = [int.from_bytes(ratings[start:start + n], "big")
            for start in range(0, len(ratings), n)]
    return {label: packed.to_bytes(n, "big")
            for label, packed in _score_sums(rows, mapping).items()}


def _score_cohort(source: str | Path | io.TextIOBase, mapping: DomainMapping,
                  ) -> tuple[list[tuple[Any, ...]], CohortAggregate]:
    """``vrnq score`` of a cohort CSV, with no per-participant object: each
    participant's (id, total, sub-score of each domain in ``DOMAINS``
    order), in file order, and the cohort's aggregate."""
    ids, ratings, _ = _read_cohort_items(source)
    columns = _score_columns(ratings, len(ids), mapping)
    return list(zip(ids, *columns.values())), _aggregate_columns(columns)


def _paired_columns(baseline: _Cohort, revised: _Cohort,
                    mapping: DomainMapping) -> dict[str, tuple[tuple[int, ...], ...]]:
    """Pair two cohorts as the reader returns them: the (baseline, revised)
    columns of :func:`_score_columns`, each a tuple of ints with the
    cohort's participants in id order."""
    ids, revised_ids = baseline[0], revised[0]
    if set(ids) != set(revised_ids):
        missing = sorted(set(ids) ^ set(revised_ids))
        raise VrnqError(f"cohorts do not pair up; unmatched ids: {_quoted(missing)}")
    n = len(ids)
    if n < 2:  # checked first: itemgetter of one index returns no tuple
        raise VrnqError(f"a paired comparison needs at least two participants, got {n}")
    baseline_sums, revised_sums = (
        map(itemgetter(*sorted(range(n), key=cohort_ids.__getitem__)),
            _score_columns(ratings, n, mapping).values())
        for cohort_ids, ratings, _ in (baseline, revised))
    return dict(zip(["Total", *DOMAINS], zip(baseline_sums, revised_sums)))


def _median(values: Sequence[float]) -> float:
    # even-length medians are the mean of the two middle values
    ordered = sorted(values)
    middle = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[middle])
    return (ordered[middle - 1] + ordered[middle]) / 2


def median_absolute_deviation(values: Sequence[float]) -> float:
    """Median of absolute deviations from the median (no scaling constant)."""
    if not values:
        raise VrnqError("cannot aggregate an empty cohort")
    return _score_stats(values).mad


@dataclass(frozen=True)
class ScoreStats:
    median: float
    mad: float
    n: int


@dataclass(frozen=True)
class CohortAggregate:
    """Median/MAD summary per domain and for the total."""

    sub_stats: dict[str, ScoreStats]
    total_stats: ScoreStats


def aggregate_cohort(cohort: Iterable[VrnqScores]) -> CohortAggregate:
    scored = list(cohort)
    if not scored:
        raise VrnqError("cannot aggregate an empty cohort")
    columns = {domain: [s.sub_scores[domain] for s in scored] for domain in DOMAINS}
    columns["Total"] = [s.total for s in scored]
    return _aggregate_columns(columns)


def _aggregate_columns(columns: Mapping[str, Sequence[int]]) -> CohortAggregate:
    """:func:`aggregate_cohort` of the non-empty columns of ``Total`` and of
    each domain, as :func:`_score_sums` labels them."""
    return CohortAggregate(
        sub_stats={domain: _score_stats(columns[domain]) for domain in DOMAINS},
        total_stats=_score_stats(columns["Total"]))


def _score_stats(values: Sequence[float]) -> ScoreStats:
    center = _median(values)
    return ScoreStats(median=center, mad=_median([abs(v - center) for v in values]),
                      n=len(values))


@dataclass(frozen=True)
class CutoffVerdict:
    tier: str
    passes: dict[str, bool]  # four domains plus "total"
    overall: bool


def check_cutoffs(aggregate: CohortAggregate, tier: str = "parsimonious") -> CutoffVerdict:
    """Gate a cohort summary against a cut-off tier (inclusive thresholds)."""
    if tier not in CUTOFFS:
        raise VrnqError(f"unknown cut-off tier {tier!r}")
    bars = CUTOFFS[tier]
    passes = {
        domain: aggregate.sub_stats[domain].median >= bars["sub"]
        for domain in DOMAINS
    }
    passes["total"] = aggregate.total_stats.median >= bars["total"]
    return CutoffVerdict(tier=tier, passes=passes, overall=all(passes.values()))


# ---------------------------------------------------------------------------
# CSV interchange


CSV_COLUMNS = ["participant_id"] + [f"q{i}" for i in range(1, ITEM_COUNT + 1)]


def read_cohort_csv(source: str | Path | io.TextIOBase) -> list[VrnqResponseSet]:
    """Read a cohort CSV: header ``participant_id,q1,...,q20``.

    An optional trailing ``feedback`` column is stored verbatim.  Any other
    deviation raises :class:`VrnqError`, whose message starts with the path
    if one was given.  A path is read as UTF-8 with or without a leading
    byte-order mark; a handle is read as its caller opened it.
    """
    ids, ratings, feedback = _read_cohort_items(source)
    # a bytes slice yields ints, so zipping the item rows gives each
    # participant's tuple
    n = len(ids)
    items = zip(*[ratings[start:start + n] for start in range(0, len(ratings), n)])
    return [VrnqResponseSet(participant_id=participant_id, items=row, feedback=note)
            for participant_id, row, note in zip(ids, items, feedback or repeat(None))]


def _read_cohort_items(source: str | Path | io.TextIOBase) -> _Cohort:
    """The one cohort reader, under :func:`read_cohort_csv`'s rules: every
    fault a VrnqError, prefixed with the path if one was given (an OSError
    from open propagates as it is)."""
    where = f"{source}: " if isinstance(source, (str, Path)) else ""
    try:
        # utf-8-sig drops the byte-order mark of a spreadsheet's "CSV UTF-8"
        with (open(source, "r", encoding="utf-8-sig", newline="") if where
              else nullcontext(source)) as handle:
            reader = csv.reader(handle)
            header = next(reader, None)
            if header is None:
                raise VrnqError("CSV is empty")
            if header != CSV_COLUMNS and header != CSV_COLUMNS + ["feedback"]:
                raise VrnqError(
                    "CSV header must be participant_id,q1,...,q20 "
                    "(optionally plus feedback)")
            width = len(header)
            rows: list[list[str]] = []
            try:
                rows.extend(reader)  # on a fault, rows keeps the rows read before it
            except (csv.Error, UnicodeDecodeError):
                _checked_rows(rows, width)  # a faulty row before it is named first
                raise
            cohort = (_cohort_at_once(rows, width)
                      or _cohort_at_once(_checked_rows(rows, width), width))
            if cohort is None:  # every row was blank
                raise VrnqError("CSV contains no responses")
            return cohort
    except UnicodeDecodeError as exc:
        raise VrnqError(f"{where}invalid UTF-8 ({exc})") from exc
    except csv.Error as exc:
        raise VrnqError(f"{where}invalid CSV ({exc})") from exc
    except VrnqError as exc:
        raise VrnqError(f"{where}{exc}") from exc


def _cohort_at_once(rows: list[list[str]], width: int) -> Optional[_Cohort]:
    """The one builder of a cohort: every row checked and converted at
    once; None if any row is blank, has the wrong width, an empty or
    repeated id, or a rating that is not one of the strings ``"1"``..``"7"``."""
    if not rows or set(map(len, rows)) != {width}:
        return None
    columns = list(zip(*rows))
    ids = list(map(str.strip, columns[0]))
    # The rating fields, item column after item column, joined by commas as
    # bytes: every field is one digit 1..7 exactly when the text is two
    # bytes per field less one long and every even position holds such a
    # digit.  A longer field would have to be offset by an empty one, and
    # the first field that is empty or of even length puts a comma at an
    # even position
    joined = ",".join(map(",".join, columns[1:ITEM_COUNT + 1])).encode()
    digits = joined[::2]
    if (not all(ids) or len(set(ids)) < len(ids)
            or len(joined) != 2 * ITEM_COUNT * len(ids) - 1
            or digits.translate(None, _RATING_DIGITS)):
        return None
    feedback = columns[ITEM_COUNT + 1] if width > len(CSV_COLUMNS) else None
    return ids, digits.translate(_RATING_BYTES), feedback


def _checked_rows(rows: list[list[str]], width: int) -> list[list[str]]:
    """Raise a :class:`VrnqError` for the first faulty row in file order;
    else the rows that are not blank, each with its id stripped and its
    ratings spelled as ``str()`` writes them, which
    :func:`_cohort_at_once` accepts."""
    checked: dict[str, list[str]] = {}  # by id, in file order
    for line_no, row in enumerate(rows, start=2):
        if not row:
            continue
        if len(row) != width:
            raise VrnqError(f"line {line_no}: expected {width} fields")
        participant_id = row[0].strip()
        if not participant_id:
            raise VrnqError(f"line {line_no}: empty participant_id")
        if participant_id in checked:
            raise VrnqError(f"line {line_no}: duplicate participant {participant_id!r}")
        try:  # int() reads " 3", "+3" and "03" as 3
            items = tuple(map(int, row[1:ITEM_COUNT + 1]))
        except ValueError as exc:
            raise VrnqError(f"line {line_no}: non-integer item value") from exc
        _check_items(participant_id, items)
        checked[participant_id] = [participant_id, *map(str, items), *row[ITEM_COUNT + 1:]]
    return list(checked.values())


def write_cohort_csv(cohort: Sequence[VrnqResponseSet], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        any_feedback = any(r.feedback is not None for r in cohort)
        writer.writerow(CSV_COLUMNS + (["feedback"] if any_feedback else []))
        for response in cohort:
            row = [response.participant_id, *map(str, response.items)]
            if any_feedback:
                row.append(response.feedback or "")
            writer.writerow(row)
