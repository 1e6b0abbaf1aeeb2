from __future__ import annotations

import csv
import enum
import io
import random
import statistics

import numpy
import pytest
from hypothesis import example, given, settings, strategies as st

import errandlab.vrnq
from errandlab.jsonio import ConfigError
from errandlab.vrnq import (
    CohortAggregate,
    CUTOFFS,
    CSV_COLUMNS,
    DEFAULT_DOMAIN_MAPPING,
    DOMAINS,
    ITEM_COUNT,
    DomainMapping,
    ScoreStats,
    VrnqError,
    VrnqResponseSet,
    _DEFAULT_MAPPING,
    _median,
    _paired_columns,
    aggregate_cohort,
    check_cutoffs,
    median_absolute_deviation,
    read_cohort_csv,
    score_vrnq,
    validate_domain_mapping,
    write_cohort_csv,
)


def _responses(participant_id="p1", items=None, feedback=""):
    return VrnqResponseSet(participant_id=participant_id,
                           items=tuple(items or [4] * 20), feedback=feedback)


class TestScoring:
    def test_ceiling(self):
        scores = score_vrnq(_responses(items=[7] * 20))
        assert scores.total == 140
        assert set(scores.sub_scores.values()) == {35}

    def test_floor(self):
        scores = score_vrnq(_responses(items=[1] * 20))
        assert scores.total == 20
        assert set(scores.sub_scores.values()) == {5}

    def test_domains_sum_consecutive_blocks_of_five(self):
        items = list(range(1, 8)) + list(range(7, 0, -1)) + [3, 5, 2, 6, 4, 1]
        scores = score_vrnq(_responses(items=items))
        assert scores.sub_scores["UserExperience"] == sum(items[0:5])
        assert scores.sub_scores["GameMechanics"] == sum(items[5:10])
        assert scores.sub_scores["InGameAssistance"] == sum(items[10:15])
        assert scores.sub_scores["VRISE"] == sum(items[15:20])
        assert scores.total == sum(items)

    def test_item_out_of_range(self):
        with pytest.raises(VrnqError, match="outside 1..7"):
            _responses(items=[4] * 19 + [0])
        with pytest.raises(VrnqError, match="outside 1..7"):
            _responses(items=[8] + [4] * 19)

    def test_wrong_item_count(self):
        with pytest.raises(VrnqError, match="20 items"):
            _responses(items=[4] * 21)

    def test_custom_domain_mapping(self):
        mapping = {"UserExperience": list(range(16, 21)),
                   "GameMechanics": list(range(11, 16)),
                   "InGameAssistance": list(range(6, 11)),
                   "VRISE": list(range(1, 6))}
        items = [7] * 5 + [4] * 15
        scores = score_vrnq(_responses(items=items), domain_mapping=mapping)
        assert scores.sub_scores["VRISE"] == 35
        assert scores.sub_scores["UserExperience"] == 20


class TestDomainMappingValidation:
    def test_default_mapping_is_valid(self):
        # score_vrnq trusts the default mapping and validates only a passed one
        validate_domain_mapping(DEFAULT_DOMAIN_MAPPING)

    def test_only_a_passed_mapping_is_validated(self, monkeypatch):
        checked = []
        monkeypatch.setattr(errandlab.vrnq, "validate_domain_mapping", checked.append)
        score_vrnq(_responses(items=[4] * 20))
        assert checked == []
        score_vrnq(_responses(items=[4] * 20), domain_mapping=DEFAULT_DOMAIN_MAPPING)
        assert checked == [DEFAULT_DOMAIN_MAPPING]

    def test_score_vrnq_rejects_a_passed_mapping(self):
        mapping = {"UserExperience": [1, 2, 3, 4, 5],
                   "GameMechanics": [5, 6, 7, 8, 9],
                   "InGameAssistance": [10, 11, 12, 13, 14],
                   "VRISE": [15, 16, 17, 18, 19]}
        with pytest.raises(ConfigError):
            score_vrnq(_responses(items=[4] * 20), domain_mapping=mapping)

    def test_a_domain_mapping_is_checked_once_when_made(self, monkeypatch):
        checked = []
        monkeypatch.setattr(errandlab.vrnq, "validate_domain_mapping", checked.append)
        source = {domain: list(items) for domain, items in DEFAULT_DOMAIN_MAPPING.items()}
        mapping = DomainMapping(source)
        source["VRISE"].append(21)  # the copy made at the check is what scores
        items = list(range(1, 8)) * 2 + [1, 2, 3, 4, 5, 6]
        for _ in range(3):
            scores = score_vrnq(_responses(items=items), domain_mapping=mapping)
        assert checked == [source]
        assert scores == score_vrnq(_responses(items=items))

    def test_a_domain_mapping_reads_as_its_source_in_domains_order(self):
        source = dict(reversed(DEFAULT_DOMAIN_MAPPING.items()))
        mapping = DomainMapping(source)
        assert list(mapping) == list(DOMAINS)
        assert len(mapping) == len(DOMAINS)
        assert dict(mapping) == {domain: tuple(items) for domain, items in source.items()}

    def test_domain_mapping_rejects_a_bad_mapping(self):
        with pytest.raises(ConfigError):
            DomainMapping({**DEFAULT_DOMAIN_MAPPING, "VRISE": [1, 2, 3, 4, 5]})

    def test_default_domains_required(self):
        with pytest.raises(ConfigError):
            validate_domain_mapping({"UserExperience": list(range(1, 21))})

    def test_items_must_partition(self):
        mapping = {"UserExperience": [1, 2, 3, 4, 5],
                   "GameMechanics": [5, 6, 7, 8, 9],
                   "InGameAssistance": [10, 11, 12, 13, 14],
                   "VRISE": [15, 16, 17, 18, 19]}
        with pytest.raises(ConfigError):
            validate_domain_mapping(mapping)

    def test_item_numbers_in_range(self):
        mapping = {"UserExperience": [0, 1, 2, 3, 4],
                   "GameMechanics": [5, 6, 7, 8, 9],
                   "InGameAssistance": [10, 11, 12, 13, 14],
                   "VRISE": [15, 16, 17, 18, 19]}
        with pytest.raises(ConfigError):
            validate_domain_mapping(mapping)

    @pytest.mark.parametrize("mapping, message", [
        ({"UserExperience": list(range(1, 21))}, "domain_mapping must name exactly "
         "['GameMechanics', 'InGameAssistance', 'UserExperience', 'VRISE']"),
        ({**DEFAULT_DOMAIN_MAPPING, "VRISE": 5}, "domain VRISE items must be a list"),
        ({**DEFAULT_DOMAIN_MAPPING, "VRISE": [16, 17, 18, 19]},
         "domain VRISE must map exactly 5 items"),
        ({**DEFAULT_DOMAIN_MAPPING, "VRISE": [16, 17, 18, 19, 21]},
         "domain VRISE has invalid item 21"),
        ({**DEFAULT_DOMAIN_MAPPING, "VRISE": [16, 17, 18, 19, True]},
         "domain VRISE has invalid item True"),
        ({**DEFAULT_DOMAIN_MAPPING, "VRISE": [1, 2, 3, 4, 5]},
         "domain_mapping must partition items 1..20"),
    ])
    def test_each_fault_has_its_message(self, mapping, message):
        with pytest.raises(ConfigError) as raised:
            validate_domain_mapping(mapping)
        assert str(raised.value) == message


class _Rating(int):
    """An int subclass, as a caller's own item type might be."""


def _with(index, value, rest=4):
    """Twenty items of ``rest`` with ``value`` at 1-based ``index``."""
    items = [rest] * 20
    items[index - 1] = value
    return items


# (items, the error message, or None where the row is accepted)
_RESPONSE_ROWS = [
    pytest.param([4] * 19, "p1: expected 20 items, got 19", id="19-items"),
    pytest.param([4] * 21, "p1: expected 20 items, got 21", id="21-items"),
    pytest.param(_with(5, True), "p1: item 5 must be an integer", id="bool"),
    pytest.param(_with(7, 3.0), "p1: item 7 must be an integer", id="float"),
    pytest.param(_with(9, numpy.int64(3)), "p1: item 9 must be an integer",
                 id="numpy-int64"),
    pytest.param(_with(20, 0), "p1: item 20 value 0 outside 1..7", id="zero"),
    pytest.param(_with(1, 8), "p1: item 1 value 8 outside 1..7", id="eight"),
    pytest.param([4, True, 4, 0] + [4] * 16, "p1: item 2 must be an integer",
                 id="type-fault-first"),
    pytest.param([4, 9, 4, "x"] + [4] * 16, "p1: item 2 value 9 outside 1..7",
                 id="range-fault-first"),
    pytest.param(_with(3, _Rating(9)), "p1: item 3 value 9 outside 1..7",
                 id="int-subclass-out-of-range"),
    pytest.param(_with(1, 10**400),
                 f"p1: item 1 value 1{'0' * 59}... (401 characters) outside 1..7",
                 id="long-value-quoted-short"),
    pytest.param(_with(3, enum.IntEnum("Level", {"TOO_HIGH": 9}).TOO_HIGH),
                 "p1: item 3 value 9 outside 1..7", id="int-enum-out-of-range"),
    pytest.param(_with(3, _Rating(6)), None, id="int-subclass-accepted"),
    pytest.param([_Rating(7)] * 20, None, id="all-int-subclass-accepted"),
]


class TestResponseSetChecks:
    @pytest.mark.parametrize("items, message", _RESPONSE_ROWS)
    def test_first_fault_is_named(self, items, message):
        if message is None:
            accepted = VrnqResponseSet(participant_id="p1", items=tuple(items))
            plain = [int(v) for v in items]
            assert score_vrnq(accepted).total == sum(plain)
            return
        with pytest.raises(VrnqError) as excinfo:
            VrnqResponseSet(participant_id="p1", items=tuple(items))
        assert str(excinfo.value) == message

    @given(st.permutations(range(1, 21)),
           st.lists(st.integers(min_value=1, max_value=7), min_size=20, max_size=20))
    def test_every_mapping_form_is_a_per_item_sum(self, order, items):
        mapping = {domain: order[5 * i:5 * i + 5] for i, domain in enumerate(DOMAINS)}
        responses = _responses(items=items)

        def plain(partition):
            subs = {d: sum(items[item - 1] for item in partition[d]) for d in DOMAINS}
            return subs, sum(items)

        expected = plain(mapping)
        for form in (mapping, DomainMapping(mapping)):
            scores = score_vrnq(responses, form)
            assert (scores.sub_scores, scores.total) == expected
            assert list(scores.sub_scores) == list(DOMAINS)
        scores = score_vrnq(responses)
        assert (scores.sub_scores, scores.total) == plain(DEFAULT_DOMAIN_MAPPING)


def _paired_columns_per_participant(baseline, revised, mapping):
    """The pairing as it was done before the columns: score_vrnq on each
    participant of both cohorts, in id order."""
    by_id_b = {r.participant_id: r for r in revised}
    columns = {"Total": ([], []), **{d: ([], []) for d in DOMAINS}}
    for resp_a in sorted(baseline, key=lambda r: r.participant_id):
        score_a = score_vrnq(resp_a, mapping)
        score_b = score_vrnq(by_id_b[resp_a.participant_id], mapping)
        columns["Total"][0].append(score_a.total)
        columns["Total"][1].append(score_b.total)
        for domain in DOMAINS:
            columns[domain][0].append(score_a.sub_scores[domain])
            columns[domain][1].append(score_b.sub_scores[domain])
    return columns


_ITEM_ROWS = st.lists(st.integers(min_value=1, max_value=7), min_size=20, max_size=20)
_MAPPINGS = st.just(_DEFAULT_MAPPING) | st.permutations(range(1, 21)).map(
    lambda order: DomainMapping({domain: order[5 * i:5 * i + 5]
                                 for i, domain in enumerate(DOMAINS)}))
# ids that the reader keeps as they are: no padding to strip, no NUL
_IDS = st.text(st.characters(codec="utf-8", exclude_characters="\x00"),
               min_size=1, max_size=3).filter(lambda pid: pid == pid.strip())
# spellings that int() reads as the rating, but the at-once check does not
_ODD_SPELLINGS = ("0{}", " {}", "+{}")


def _write_cohort(path, cohort, odd, bom, rng):
    """Write VrnqResponseSets as a cohort CSV, with a feedback column when
    they carry feedback, a byte-order mark if ``bom``, and, if ``odd``, one
    rating of the first row and of about half the others spelled as int()
    reads it but str() does not write it."""
    with_feedback = cohort[0].feedback is not None
    handle = io.StringIO()
    writer = csv.writer(handle, lineterminator=rng.choice(("\n", "\r\n")))
    writer.writerow(CSV_COLUMNS + ["feedback"] * with_feedback)
    for index, response in enumerate(cohort):
        row = [response.participant_id, *map(str, response.items)]
        if odd and (index == 0 or rng.random() < 0.5):
            item = rng.randint(1, ITEM_COUNT)
            row[item] = rng.choice(_ODD_SPELLINGS).format(row[item])
        if with_feedback:
            row.append(response.feedback)
        writer.writerow(row)
    path.write_bytes(b"\xef\xbb\xbf" * bom + handle.getvalue().encode("utf-8"))


class TestPairedColumns:
    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.tuples(_IDS, _ITEM_ROWS, _ITEM_ROWS),
                    min_size=2, max_size=30, unique_by=lambda row: row[0]),
           _MAPPINGS, st.booleans(), st.booleans(), st.booleans(),
           st.randoms(use_true_random=False))
    # a domain's items scattered over the questionnaire, read row by row
    @example(rows=[("b", [1, 2, 3, 4, 5, 6, 7] * 2 + [7] * 6, [4] * 20),
                   ("a", [7] * 20, list(range(7, 0, -1)) * 2 + [1] * 6),
                   ("c", [2] * 20, [6] * 20)],
             mapping=DomainMapping({domain: list(range(1 + i, 21, 4))
                                    for i, domain in enumerate(DOMAINS)}),
             odd=True, bom=True, with_feedback=True, rng=random.Random(0))
    def test_columns_equal_per_participant_scores(self, tmp_path_factory, rows, mapping,
                                                  odd, bom, with_feedback, rng):
        # the cohorts go through the reader from files, as `vrnq compare`
        # reads them: canonical ratings take the at-once route, odd
        # spellings the row-by-row one, and both must pair the same way
        def note():
            return rng.choice(("", "fine", 'said "wow", twice\nthen left')) if with_feedback else None

        baseline = [VrnqResponseSet(pid, tuple(items_a), note()) for pid, items_a, _ in rows]
        revised = [VrnqResponseSet(pid, tuple(items_b), note()) for pid, _, items_b in rows]
        folder = tmp_path_factory.mktemp("cohorts")
        cohorts = []
        for name, cohort in (("baseline.csv", baseline), ("revised.csv", revised)):
            shuffled = list(cohort)
            rng.shuffle(shuffled)
            _write_cohort(folder / name, shuffled, odd, bom, rng)
            with open(folder / name, encoding="utf-8-sig", newline="") as handle:
                data_rows = list(csv.reader(handle))[1:]
            at_once = errandlab.vrnq._cohort_at_once(data_rows, len(CSV_COLUMNS) + with_feedback)
            assert (at_once is None) == odd
            cohorts.append(errandlab.vrnq._read_cohort_items(folder / name))
        columns = _paired_columns(*cohorts, mapping)
        expected = _paired_columns_per_participant(baseline, revised, mapping)
        assert list(columns) == list(expected) == ["Total", *DOMAINS]
        assert {label: tuple(map(list, pair)) for label, pair in columns.items()} == expected

    @pytest.mark.parametrize("ids_a, ids_b, message", [
        (["p1", "p2", "p3"], ["p1", "p2", "p4"],
         "cohorts do not pair up; unmatched ids: ['p3', 'p4']"),
        # two disjoint cohorts: the unmatched ids are quoted, not listed whole
        ([f"a{i:03}" for i in range(1000)], [f"b{i:03}" for i in range(1000)],
         "cohorts do not pair up; unmatched ids: ['a000', 'a001', 'a002', 'a003', "
         "'a004', 'a005', 'a006', 'a0... (16000 characters)"),
        (["p1"], ["p1"], "a paired comparison needs at least two participants, got 1"),
        ([], [], "a paired comparison needs at least two participants, got 0"),
    ])
    def test_pairing_faults(self, ids_a, ids_b, message):
        with pytest.raises(VrnqError) as excinfo:
            _paired_columns((ids_a, bytes([4]) * (20 * len(ids_a)), None),
                            (ids_b, bytes([4]) * (20 * len(ids_b)), None),
                            _DEFAULT_MAPPING)
        assert str(excinfo.value) == message


class TestRobustStats:
    def test_median_and_mad_small(self):
        assert median_absolute_deviation([1, 2, 3]) == 1.0

    def test_mad_of_no_values_is_refused(self):
        with pytest.raises(VrnqError) as excinfo:
            median_absolute_deviation([])
        assert str(excinfo.value) == "cannot aggregate an empty cohort"

    def test_reference_cohort_shape(self):
        values = [84, 88, 94, 94, 98, 100, 100, 102, 106, 106, 112, 116]
        cohort = [score_vrnq(_responses(participant_id=f"p{i}",
                                        items=_items_for_total(total)))
                  for i, total in enumerate(values)]
        aggregate = aggregate_cohort(cohort)
        assert aggregate.total_stats.median == 100.0
        assert aggregate.total_stats.mad == 6.0
        assert aggregate.total_stats.n == 12

    def test_empty_cohort(self):
        with pytest.raises(VrnqError):
            aggregate_cohort([])

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6,
                              allow_nan=False), min_size=1, max_size=40),
           st.floats(min_value=-100, max_value=100, allow_nan=False))
    def test_mad_translation_invariant(self, values, shift):
        shifted = [v + shift for v in values]
        assert median_absolute_deviation(shifted) == pytest.approx(
            median_absolute_deviation(values), abs=1e-6)

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6,
                              allow_nan=False), min_size=1, max_size=40),
           st.randoms())
    def test_mad_permutation_invariant(self, values, rng):
        shuffled = list(values)
        rng.shuffle(shuffled)
        assert median_absolute_deviation(shuffled) == median_absolute_deviation(values)

    @pytest.mark.parametrize("parity", [0, 1], ids=["even", "odd"])
    @given(st.one_of(
        st.lists(st.integers(min_value=-10**9, max_value=10**9), min_size=2, max_size=41),
        st.lists(st.floats(allow_nan=False, allow_infinity=False),
                 min_size=2, max_size=41)))
    def test_median_equals_statistics_median(self, parity, values):
        values = values[len(values) % 2 != parity:]
        median = _median(values)
        assert type(median) is float
        assert median == float(statistics.median(values))


def _items_for_total(total):
    """Distribute ``total`` across 20 items, each clamped to 1..7."""
    base, extra = divmod(total - 20, 20)
    items = [1 + base + (1 if i < extra else 0) for i in range(20)]
    assert sum(items) == total and all(1 <= x <= 7 for x in items)
    return items


class TestCutoffs:
    @staticmethod
    def _aggregate(sub, total, n=12):
        return CohortAggregate(
            sub_stats={d: ScoreStats(median=sub, mad=1.0, n=n) for d in DOMAINS},
            total_stats=ScoreStats(median=total, mad=1.0, n=n))

    def test_inclusive_at_thresholds(self):
        verdict = check_cutoffs(self._aggregate(30, 120), tier="parsimonious")
        assert verdict.overall
        assert all(verdict.passes.values())
        verdict = check_cutoffs(self._aggregate(25, 100), tier="minimum")
        assert verdict.overall

    def test_one_point_below_fails(self):
        verdict = check_cutoffs(self._aggregate(29, 120), tier="parsimonious")
        assert not verdict.overall
        assert not verdict.passes["UserExperience"]
        assert verdict.passes["total"]

    def test_total_gate_independent(self):
        verdict = check_cutoffs(self._aggregate(31, 119), tier="parsimonious")
        assert not verdict.overall
        assert verdict.passes["VRISE"]
        assert not verdict.passes["total"]

    def test_unknown_tier(self):
        with pytest.raises(VrnqError):
            check_cutoffs(self._aggregate(30, 120), tier="strict")

    def test_tier_values(self):
        assert CUTOFFS["minimum"] == {"sub": 25, "total": 100}
        assert CUTOFFS["parsimonious"] == {"sub": 30, "total": 120}


class TestCsv:
    def test_round_trip(self, tmp_path):
        cohort = [
            _responses("alpha", [4] * 20, "fine"),
            _responses("beta", list(range(1, 8)) + [4] * 13,
                       'said "wow", twice\nthen left'),
            _responses("gamma", [7] * 20, ""),
        ]
        path = tmp_path / "cohort.csv"
        write_cohort_csv(cohort, path)
        loaded = read_cohort_csv(path)
        assert loaded == cohort

    def test_feedback_preserved_verbatim(self, tmp_path):
        tricky = "comma, \"quote\", newline\nand trailing space "
        path = tmp_path / "one.csv"
        write_cohort_csv([_responses("p1", feedback=tricky)], path)
        assert read_cohort_csv(path)[0].feedback == tricky

    def test_reads_from_handle(self, tmp_path):
        path = tmp_path / "cohort.csv"
        write_cohort_csv([_responses("p1")], path)
        with open(path, newline="") as handle:
            assert read_cohort_csv(handle)[0].participant_id == "p1"

    def test_duplicate_participant(self, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text(self._csv_text([("p1", [4] * 20), ("p1", [5] * 20)]))
        with pytest.raises(VrnqError, match="p1"):
            read_cohort_csv(path)

    def test_non_integer_item(self, tmp_path):
        path = tmp_path / "bad.csv"
        rows = self._csv_text([("p1", [4] * 20)]).replace(",4,", ",four,", 1)
        path.write_text(rows)
        with pytest.raises(VrnqError):
            read_cohort_csv(path)

    @staticmethod
    def _read_fields(fields):
        # one row, p1, whose first items are the given CSV fields, then 4s
        row = ",".join(["p1", *fields, *["4"] * (20 - len(fields))])
        return read_cohort_csv(io.StringIO(",".join(CSV_COLUMNS) + "\n" + row + "\n"))

    def test_int_spellings_of_a_rating_are_read(self):
        for field in ("3", " 3", "3 ", "+3", "03", "\u0663"):
            assert self._read_fields([field])[0].items == (3,) + (4,) * 19

    @pytest.mark.parametrize("fields, message", [
        (["4", "8"], "p1: item 2 value 8 outside 1..7"),
        (["0"], "p1: item 1 value 0 outside 1..7"),
        (["x"], "line 2: non-integer item value"),
        ([""], "line 2: non-integer item value"),
        (["3.0"], "line 2: non-integer item value"),
        (["8", "x"], "line 2: non-integer item value"),
    ])
    def test_item_faults_are_worded(self, fields, message):
        with pytest.raises(VrnqError) as excinfo:
            self._read_fields(fields)
        assert str(excinfo.value) == message

    def test_wrong_header(self, tmp_path):
        path = tmp_path / "hdr.csv"
        text = self._csv_text([("p1", [4] * 20)])
        path.write_text(text.replace("participant_id", "subject", 1))
        with pytest.raises(VrnqError, match="header"):
            read_cohort_csv(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(VrnqError):
            read_cohort_csv(path)

    def test_header_only_is_rejected(self, tmp_path):
        path = tmp_path / "none.csv"
        path.write_text(",".join(CSV_COLUMNS + ["feedback"]) + "\r\n")
        with pytest.raises(VrnqError, match="no responses"):
            read_cohort_csv(path)

    def test_oversized_field_from_a_handle(self):
        # past the csv module's 131,072-character field limit
        text = ",".join(CSV_COLUMNS) + "\n" + "p" * 140_000 + ",4" * 20 + "\n"
        with pytest.raises(VrnqError, match=r"^invalid CSV \(field larger than"):
            read_cohort_csv(io.StringIO(text))

    def test_undecodable_bytes_from_a_handle(self):
        data = (",".join(CSV_COLUMNS) + "\n").encode() + b"p\xff1" + b",4" * 20 + b"\n"
        handle = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", newline="")
        with pytest.raises(VrnqError, match=r"^invalid UTF-8 \("):
            read_cohort_csv(handle)

    def test_a_row_fault_before_a_csv_error_is_named_first(self):
        good = "4," * 19 + "4"
        text = "\n".join([",".join(CSV_COLUMNS), f"p1,{good}", f"p1,{good}",
                          f"p2,{good}", "p" * 140_000 + f",{good}"]) + "\n"
        for reader in (read_cohort_csv, _read_cohort_per_row):
            with pytest.raises(VrnqError) as excinfo:
                reader(io.StringIO(text))
            assert str(excinfo.value) == "line 3: duplicate participant 'p1'"

    def test_a_byte_order_mark_is_dropped_from_a_path_only(self, tmp_path):
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        write_cohort_csv([_responses("p1"), _responses("p2", [5] * 20)], plain)
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        assert read_cohort_csv(marked) == read_cohort_csv(plain)
        # a handle keeps its caller's encoding, and utf-8 keeps the mark
        with open(marked, encoding="utf-8", newline="") as handle:
            with pytest.raises(VrnqError, match="header"):
                read_cohort_csv(handle)

    @staticmethod
    def _csv_text(rows):
        lines = [",".join(CSV_COLUMNS + ["feedback"])]
        for pid, items in rows:
            lines.append(",".join([pid] + [str(x) for x in items] + [""]))
        return "\r\n".join(lines) + "\r\n"


def _read_cohort_per_row(handle):
    """The cohort reader as it was before the per-file check: every row
    checked and turned into a VrnqResponseSet in file order."""
    try:
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
        rows = []
        seen_ids = set()
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
            try:
                items = tuple(int(field) for field in row[1:21])
            except ValueError as exc:
                raise VrnqError(f"line {line_no}: non-integer item value") from exc
            feedback = row[21] if has_feedback else None
            rows.append(VrnqResponseSet(participant_id=participant_id,
                                        items=items, feedback=feedback))
        if not rows:
            raise VrnqError("CSV contains no responses")
        return rows
    except UnicodeDecodeError as exc:
        raise VrnqError(f"invalid UTF-8 ({exc})") from exc
    except csv.Error as exc:
        raise VrnqError(f"invalid CSV ({exc})") from exc


# fields that int() reads as a rating, fields it reads as an off-scale
# number, and fields it cannot read
_ODD_FIELDS = (" 3", "3 ", "+3", "03", "\u0663", "0", "8", "-1", "x", "", "3.0")
_ROW_FAULTS = (None, "field", "field", "blank", "empty id", "duplicate id",
               "padded id", "short", "long")


@st.composite
def _cohort_texts(draw):
    """A cohort CSV: canonical, or with some rows that carry one of the
    faults or odd spellings the per-row loop words or reads.  A drawn seed
    picks the canonical ratings, which cost too much to draw one by one."""
    with_feedback = draw(st.booleans())
    faulty = draw(st.booleans())
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32)))
    handle = io.StringIO()
    writer = csv.writer(handle, lineterminator=draw(st.sampled_from(("\n", "\r\n"))))
    writer.writerow(CSV_COLUMNS + ["feedback"] * with_feedback)
    for index in range(draw(st.integers(min_value=1, max_value=8))):
        row = [f"p{index}", *rng.choices("1234567", k=20)]
        if with_feedback:
            row.append(rng.choice(("", "fine", 'said "wow", twice\nthen left')))
        fault = draw(st.sampled_from(_ROW_FAULTS)) if faulty else None
        if fault == "field":
            row[draw(st.integers(min_value=1, max_value=20))] = draw(st.sampled_from(_ODD_FIELDS))
        elif fault == "blank":
            row = []
        elif fault == "empty id":
            row[0] = draw(st.sampled_from(("", "  ")))
        elif fault == "duplicate id":
            row[0] = draw(st.sampled_from(("p0", " p0", "p0 ")))
        elif fault == "padded id":
            row[0] = f" {row[0]} "
        elif fault == "short":
            row = row[:draw(st.integers(min_value=1, max_value=len(row) - 1))]
        elif fault == "long":
            row.append("4")
        writer.writerow(row)
    return handle.getvalue()


def _outcome(reader, text):
    try:
        return reader(io.StringIO(text))
    except VrnqError as exc:
        return str(exc)


@settings(max_examples=100)
@given(_cohort_texts())
@example(",".join(CSV_COLUMNS) + "\n\n")
# fields whose lengths make up for each other: an empty one beside one of
# two digits, of three characters with a comma inside, or of two characters
# in three bytes
@example(",".join(CSV_COLUMNS) + "\np0,,33" + ",4" * 18 + "\n")
@example(",".join(CSV_COLUMNS) + "\np0,4" + ",4" * 17 + ',"3,3",\n')
@example(",".join(CSV_COLUMNS) + "\np0,4" + ",4" * 17 + ',3\u0663,\n')
def test_the_per_file_check_reads_as_the_per_row_loop(text):
    assert _outcome(read_cohort_csv, text) == _outcome(_read_cohort_per_row, text)


@settings(max_examples=100)
@given(_cohort_texts())
def test_both_routes_read_a_canonical_file_alike(text):
    header, *rows = csv.reader(io.StringIO(text))
    at_once = errandlab.vrnq._cohort_at_once(rows, len(header))
    if at_once is not None:
        ids, ratings, feedback = errandlab.vrnq._cohort_at_once(
            errandlab.vrnq._checked_rows(rows, len(header)), len(header))
        assert (at_once[0], at_once[1]) == (ids, ratings)
        assert (at_once[2] is None) == (feedback is None)
        assert list(at_once[2] or ()) == list(feedback or ())
