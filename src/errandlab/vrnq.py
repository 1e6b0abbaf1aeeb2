"""Neuroscience questionnaire scoring and cohort aggregation.

Twenty items on a 1..7 agreement scale, five items per domain
(UserExperience, GameMechanics, InGameAssistance, VRISE), so each domain
sub-score spans 5..35 and the total spans 20..140.  Which printed item
belongs to which domain is a config input — a validated partition of items
1..20 into four five-item groups — because deployments order their
questionnaires differently.

Cohort statistics are medians with median absolute deviations: the
questionnaire's scale is ordinal and cohorts are small, so rank-based
summaries are the honest choice.  Two cut-off tiers gate a build: the
minimum tier asks every domain median to reach 25 and the total median 100;
the parsimonious tier raises those bars to 30 and 120.  All cut-offs are
inclusive.
"""

from __future__ import annotations

import csv
import io
import statistics
from dataclasses import dataclass
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Optional, Sequence

from .config import DEFAULT_DOMAIN_MAPPING, validate_domain_mapping

DOMAINS = tuple(DEFAULT_DOMAIN_MAPPING)
ITEM_COUNT = 20
SCALE_MIN, SCALE_MAX = 1, 7
_INT_ONLY = frozenset({int})
_SCALE = frozenset(range(SCALE_MIN, SCALE_MAX + 1))
# A CSV field that spells a rating as str() writes it -> the rating, else None
_RATING = {str(value): value for value in _SCALE}.get

CUTOFFS = {
    "minimum": {"sub": 25, "total": 100},
    "parsimonious": {"sub": 30, "total": 120},
}


class VrnqError(Exception):
    """Raised for malformed questionnaire data."""


@dataclass(frozen=True)
class VrnqResponseSet:
    """One participant's 20 item ratings, in printed-item order."""

    participant_id: str
    items: tuple[int, ...]
    feedback: Optional[str] = None  # stored verbatim, never analyzed

    def __post_init__(self) -> None:
        items = self.items
        # One test accepts a row of 20 plain ints on the scale; the loop
        # below words the first fault, or accepts an int subclass.
        if (len(items) == ITEM_COUNT and _INT_ONLY.issuperset(map(type, items))
                and _SCALE.issuperset(items)):
            return
        if len(items) != ITEM_COUNT:
            raise VrnqError(
                f"{self.participant_id}: expected {ITEM_COUNT} items, "
                f"got {len(items)}")
        for index, value in enumerate(items, start=1):
            if isinstance(value, bool) or not isinstance(value, int):
                raise VrnqError(
                    f"{self.participant_id}: item {index} must be an integer")
            if not SCALE_MIN <= value <= SCALE_MAX:
                raise VrnqError(
                    f"{self.participant_id}: item {index} value {value} "
                    f"outside {SCALE_MIN}..{SCALE_MAX}")


@dataclass(frozen=True)
class VrnqScores:
    participant_id: str
    sub_scores: dict[str, int]  # domain -> 5..35
    total: int  # 20..140


class DomainMapping(Mapping[str, tuple[int, ...]]):
    """A domain mapping that passed :func:`validate_domain_mapping` when it
    was made, with its item lists copied to tuples.  :func:`score_vrnq`
    trusts it, so a cohort scored under it is checked once, and sums each
    domain through one :func:`operator.itemgetter` made here."""

    def __init__(self, mapping: Mapping[str, Sequence[int]]) -> None:
        validate_domain_mapping(mapping)
        self._items = {domain: tuple(mapping[domain]) for domain in DOMAINS}
        # every domain holds five items, so each getter returns a tuple
        self._getters = tuple(
            (domain, itemgetter(*(item - 1 for item in items)))
            for domain, items in self._items.items())

    def __getitem__(self, domain: str) -> tuple[int, ...]:
        return self._items[domain]

    def __iter__(self) -> Iterator[str]:
        return iter(self._items)

    def __len__(self) -> int:
        return len(self._items)


_DEFAULT_MAPPING = DomainMapping(DEFAULT_DOMAIN_MAPPING)


def score_vrnq(responses: VrnqResponseSet,
               domain_mapping: Optional[Mapping[str, Sequence[int]]] = None) -> VrnqScores:
    """Sum items into the domain sub-scores and the total; checks a passed
    mapping unless it is a :class:`DomainMapping`."""
    mapping = domain_mapping
    if not isinstance(mapping, DomainMapping):
        mapping = _DEFAULT_MAPPING if mapping is None else DomainMapping(mapping)
    items = responses.items
    subs = {domain: sum(get(items)) for domain, get in mapping._getters}
    return VrnqScores(participant_id=responses.participant_id,
                      sub_scores=subs, total=sum(subs.values()))


def _paired_columns(baseline: Sequence[VrnqResponseSet], revised: Sequence[VrnqResponseSet],
                    mapping: Optional[DomainMapping]) -> dict[str, tuple[list[int], ...]]:
    """Pair two cohorts by participant id: the (baseline, revised) columns of
    ``Total`` and of each domain, in id order, as :func:`score_vrnq` sums them."""
    items_a = {r.participant_id: r.items for r in baseline}
    items_b = {r.participant_id: r.items for r in revised}
    if items_a.keys() != items_b.keys():
        missing = sorted(items_a.keys() ^ items_b.keys())
        raise VrnqError(f"cohorts do not pair up; unmatched ids: {missing}")
    if len(items_a) < 2:
        raise VrnqError("a paired comparison needs at least two participants, "
                        f"got {len(items_a)}")
    ids = sorted(items_a)
    sides = ([items_a[pid] for pid in ids], [items_b[pid] for pid in ids])
    columns = {"Total": tuple([sum(items) for items in side] for side in sides)}
    for domain, get in (_DEFAULT_MAPPING if mapping is None else mapping)._getters:
        columns[domain] = tuple([sum(get(items)) for items in side] for side in sides)
    return columns


def _median(values: Sequence[float]) -> float:
    # even-length medians are the mean of the two middle values
    return float(statistics.median(values))


def median_absolute_deviation(values: Sequence[float]) -> float:
    """Median of absolute deviations from the median (no scaling constant)."""
    if not values:
        raise VrnqError("cannot aggregate an empty cohort")
    center = _median(values)
    return _median([abs(v - center) for v in values])


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
    sub_stats = {}
    for domain in DOMAINS:
        values = [s.sub_scores[domain] for s in scored]
        sub_stats[domain] = ScoreStats(
            median=_median(values), mad=median_absolute_deviation(values),
            n=len(values))
    totals = [s.total for s in scored]
    total_stats = ScoreStats(
        median=_median(totals), mad=median_absolute_deviation(totals),
        n=len(totals))
    return CohortAggregate(sub_stats=sub_stats, total_stats=total_stats)


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
    deviation raises :class:`VrnqError`.
    """
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8", newline="") as handle:
            return _read_cohort_or_fail(handle, f"{source}: ")
    return _read_cohort_or_fail(source, "")


def _read_cohort_or_fail(handle, where: str) -> list[VrnqResponseSet]:
    # the reader's own errors as VrnqError, prefixed with the path if any
    try:
        return _read_cohort(handle)
    except UnicodeDecodeError as exc:
        raise VrnqError(f"{where}invalid UTF-8 ({exc})") from exc
    except csv.Error as exc:
        raise VrnqError(f"{where}invalid CSV ({exc})") from exc


def _read_cohort(handle) -> list[VrnqResponseSet]:
    reader = csv.reader(handle)
    try:
        header = next(reader)
    except StopIteration:
        raise VrnqError("CSV is empty") from None
    has_feedback = header == CSV_COLUMNS + ["feedback"]
    if not has_feedback and header != CSV_COLUMNS:
        raise VrnqError(
            "CSV header must be participant_id,q1,...,q20 "
            "(optionally plus feedback)")
    expected_len = len(CSV_COLUMNS) + (1 if has_feedback else 0)
    rows: list[VrnqResponseSet] = []
    seen_ids: set[str] = set()
    for line_no, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != expected_len:
            raise VrnqError(f"line {line_no}: expected {expected_len} fields")
        participant_id = row[0].strip()
        if not participant_id:
            raise VrnqError(f"line {line_no}: empty participant_id")
        if participant_id in seen_ids:
            raise VrnqError(f"line {line_no}: duplicate participant {participant_id!r}")
        seen_ids.add(participant_id)
        fields = row[1:ITEM_COUNT + 1]
        items = tuple(map(_RATING, fields))
        if None in items:  # " 3", "+3", "03" or a fault: int() words it
            try:
                items = tuple(map(int, fields))
            except ValueError as exc:
                raise VrnqError(f"line {line_no}: non-integer item value") from exc
        feedback = row[ITEM_COUNT + 1] if has_feedback else None
        rows.append(VrnqResponseSet(participant_id=participant_id,
                                    items=items, feedback=feedback))
    if not rows:
        raise VrnqError("CSV contains no responses")
    return rows


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
