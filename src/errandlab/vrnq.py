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
"""

from __future__ import annotations

import csv
import io
import statistics
from dataclasses import dataclass
from itertools import chain, repeat
from operator import itemgetter
from pathlib import Path
from typing import Any, Iterable, Iterator, Mapping, Optional, Sequence

from .config import DEFAULT_DOMAIN_MAPPING, ConfigError

DOMAINS = tuple(DEFAULT_DOMAIN_MAPPING)
ITEM_COUNT = 20
DOMAIN_SIZE = ITEM_COUNT // len(DOMAINS)
SCALE_MIN, SCALE_MAX = 1, 7
_INT_ONLY = frozenset({int})
_SCALE = frozenset(range(SCALE_MIN, SCALE_MAX + 1))
# the CSV fields that spell a rating as str() writes it
_RATING_TEXTS = frozenset(map(str, _SCALE))
# the ASCII digit of a rating -> the byte of its value
_RATING_BYTES = bytes.maketrans(
    "".join(map(str, range(SCALE_MIN, SCALE_MAX + 1))).encode(),
    bytes(range(SCALE_MIN, SCALE_MAX + 1)))

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
        _check_items(self.participant_id, self.items)


def _check_items(participant_id: str, items: tuple) -> None:
    """Raise a :class:`VrnqError` that names the first fault of a
    participant's ratings, if they have one."""
    # One test accepts a row of 20 plain ints on the scale; the loop
    # below words the first fault, or accepts an int subclass.
    if (len(items) == ITEM_COUNT and _INT_ONLY.issuperset(map(type, items))
            and _SCALE.issuperset(items)):
        return
    if len(items) != ITEM_COUNT:
        raise VrnqError(
            f"{participant_id}: expected {ITEM_COUNT} items, got {len(items)}")
    for index, value in enumerate(items, start=1):
        if isinstance(value, bool) or not isinstance(value, int):
            raise VrnqError(f"{participant_id}: item {index} must be an integer")
        if not SCALE_MIN <= value <= SCALE_MAX:
            raise VrnqError(
                f"{participant_id}: item {index} value {value} "
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
            if (not isinstance(item, int) or isinstance(item, bool)
                    or not 1 <= item <= ITEM_COUNT):
                raise ConfigError(f"domain {domain} has invalid item {item!r}")
        seen.extend(items)
    if sorted(seen) != list(range(1, ITEM_COUNT + 1)):
        raise ConfigError(f"domain_mapping must partition items 1..{ITEM_COUNT}")


class DomainMapping(Mapping[str, tuple[int, ...]]):
    """A domain mapping that passed :func:`validate_domain_mapping` when it
    was made, with its item lists copied to tuples.  :func:`score_vrnq`
    trusts it, so a cohort scored under it is checked once, and sums each
    domain through one :func:`operator.itemgetter` made here."""

    def __init__(self, mapping: Mapping[str, Sequence[int]]) -> None:
        validate_domain_mapping(mapping)
        self._items = {domain: tuple(mapping[domain]) for domain in DOMAINS}
        # every domain holds DOMAIN_SIZE > 1 items, so each getter returns a tuple
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


def _paired_columns(baseline: Mapping[str, tuple[int, ...]],
                    revised: Mapping[str, tuple[int, ...]],
                    mapping: Optional[DomainMapping]) -> dict[str, tuple[list[int], ...]]:
    """Pair two cohorts, each a map of participant id to item ratings: the
    (baseline, revised) columns of ``Total`` and of each domain, in id
    order, as :func:`score_vrnq` sums them."""
    if baseline.keys() != revised.keys():
        missing = sorted(baseline.keys() ^ revised.keys())
        raise VrnqError(f"cohorts do not pair up; unmatched ids: {missing}")
    if len(baseline) < 2:
        raise VrnqError("a paired comparison needs at least two participants, "
                        f"got {len(baseline)}")
    ids = sorted(baseline)
    getters = (_DEFAULT_MAPPING if mapping is None else mapping)._getters
    sides = []
    for items_by_id in (baseline, revised):
        item_columns = list(zip(*map(items_by_id.__getitem__, ids)))
        domains = [list(map(sum, zip(*get(item_columns)))) for _, get in getters]
        # the domains partition the items, so their sums add up to the total
        sides.append([list(map(sum, zip(*domains))), *domains])
    return dict(zip(["Total", *(domain for domain, _ in getters)], zip(*sides)))


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
# each participant's item ratings by id, in file order, and the feedback
# column, or None for a file without one
_Cohort = tuple[dict[str, tuple[int, ...]], Optional[Sequence[str]]]


def read_cohort_csv(source: str | Path | io.TextIOBase) -> list[VrnqResponseSet]:
    """Read a cohort CSV: header ``participant_id,q1,...,q20``.

    An optional trailing ``feedback`` column is stored verbatim.  Any other
    deviation raises :class:`VrnqError`.  A path is read as UTF-8 with or
    without a leading byte-order mark; a handle is read as its caller
    opened it.
    """
    items_by_id, feedback = _read_cohort_items(source)
    return [VrnqResponseSet(participant_id=participant_id, items=items, feedback=note)
            for (participant_id, items), note
            in zip(items_by_id.items(), feedback or repeat(None))]


def _read_cohort_items(source: str | Path | io.TextIOBase) -> _Cohort:
    """The one cohort reader, under :func:`read_cohort_csv`'s rules."""
    if isinstance(source, (str, Path)):
        # utf-8-sig drops the byte-order mark of a spreadsheet's "CSV UTF-8"
        with open(source, "r", encoding="utf-8-sig", newline="") as handle:
            return _read_cohort_or_fail(handle, f"{source}: ")
    return _read_cohort_or_fail(source, "")


def _read_cohort_or_fail(handle, where: str) -> _Cohort:
    # the reader's own errors as VrnqError, prefixed with the path if any
    try:
        return _read_cohort(handle)
    except UnicodeDecodeError as exc:
        raise VrnqError(f"{where}invalid UTF-8 ({exc})") from exc
    except csv.Error as exc:
        raise VrnqError(f"{where}invalid CSV ({exc})") from exc


def _read_cohort(handle) -> _Cohort:
    reader = csv.reader(handle)
    try:
        header = next(reader)
    except StopIteration:
        raise VrnqError("CSV is empty") from None
    if header != CSV_COLUMNS and header != CSV_COLUMNS + ["feedback"]:
        raise VrnqError(
            "CSV header must be participant_id,q1,...,q20 "
            "(optionally plus feedback)")
    width = len(header)
    rows: list[list[str]] = []
    try:
        rows.extend(reader)  # on a fault, rows keeps the rows read before it
    except (csv.Error, UnicodeDecodeError):
        _cohort_row_by_row(rows, width)  # a faulty row before it is named first
        raise
    cohort = _cohort_at_once(rows, width) or _cohort_row_by_row(rows, width)
    if not cohort[0]:
        raise VrnqError("CSV contains no responses")
    return cohort


def _cohort_at_once(rows: list[list[str]], width: int) -> Optional[_Cohort]:
    """Check and convert every row at once; None if any row is blank, has
    the wrong width, an empty or repeated id, or a rating that is not one
    of the strings ``"1"``..``"7"``."""
    if not rows or set(map(len, rows)) != {width}:
        return None
    columns = list(zip(*rows))
    ids = list(map(str.strip, columns[0]))
    item_columns = columns[1:ITEM_COUNT + 1]
    if (not all(ids) or len(set(ids)) < len(ids)
            or not _RATING_TEXTS.issuperset(chain.from_iterable(item_columns))):
        return None
    # one byte per rating, item column after item column; a bytes slice
    # yields ints, so zipping the columns gives each participant's tuple
    ratings = "".join(chain.from_iterable(item_columns)).encode().translate(_RATING_BYTES)
    n = len(ids)
    items = zip(*[ratings[start:start + n] for start in range(0, len(ratings), n)])
    feedback = columns[ITEM_COUNT + 1] if width > len(CSV_COLUMNS) else None
    return dict(zip(ids, items)), feedback


def _cohort_row_by_row(rows: list[list[str]], width: int) -> _Cohort:
    """Read the rows one by one, raising a :class:`VrnqError` for the
    first faulty row in file order."""
    items_by_id: dict[str, tuple[int, ...]] = {}
    feedback: Optional[list[str]] = [] if width > len(CSV_COLUMNS) else None
    for line_no, row in enumerate(rows, start=2):
        if not row:
            continue
        if len(row) != width:
            raise VrnqError(f"line {line_no}: expected {width} fields")
        participant_id = row[0].strip()
        if not participant_id:
            raise VrnqError(f"line {line_no}: empty participant_id")
        if participant_id in items_by_id:
            raise VrnqError(f"line {line_no}: duplicate participant {participant_id!r}")
        try:  # int() reads " 3", "+3" and "03" as 3
            items = tuple(map(int, row[1:ITEM_COUNT + 1]))
        except ValueError as exc:
            raise VrnqError(f"line {line_no}: non-integer item value") from exc
        _check_items(participant_id, items)
        items_by_id[participant_id] = items
        if feedback is not None:
            feedback.append(row[ITEM_COUNT + 1])
    return items_by_id, feedback


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
