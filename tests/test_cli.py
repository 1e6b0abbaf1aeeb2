from __future__ import annotations

import argparse
import ast
import collections
import contextlib
import csv
import dataclasses
import errno
import functools
import gc
import importlib
import inspect
import io
import json
import os
import pkgutil
import random
import re
import shutil
import statistics
import subprocess
import sys
import types
import warnings
import weakref
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import errandlab
import errandlab.bayes
import errandlab.config
import errandlab.jsonio
import errandlab.scenario
import errandlab.scoring
import errandlab.sessionlog
import errandlab.vrnq
from errandlab.bayes import Direction, EvidenceBand, IntegrationFailure
from errandlab.cli import build_parser, main
from errandlab.jsonio import _json_text
from errandlab.config import config_hash, default_config
from errandlab.scenario import EventKind, SessionEvent
from errandlab.scoring import aggregate_scorecard, scorecard_to_dict
from errandlab.sessionlog import deserialize_log, log_from_events, serialize_log
from errandlab.simulate import PROFILE_PRESETS, default_profile, simulate_session
from errandlab.vrnq import (CSV_COLUMNS, CUTOFFS, DOMAINS, DomainMapping, VrnqResponseSet,
                            aggregate_cohort, check_cutoffs, read_cohort_csv, score_vrnq,
                            write_cohort_csv)
from golden_logs import GOLDEN_SESSIONS, golden_bytes, golden_path


def _cohort_csv(path, totals_by_id, base=None):
    """Write a questionnaire CSV where each participant's total is pinned."""
    rows = []
    for pid, total in totals_by_id.items():
        level, extra = divmod(total - 20, 20)
        items = [1 + level + (1 if i < extra else 0) for i in range(20)]
        rows.append(VrnqResponseSet(participant_id=pid, items=tuple(items),
                                    feedback=""))
    write_cohort_csv(rows, path)
    return path


class TestSimulateCommand:
    def test_writes_three_files(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["simulate", "--seed", "3", "--out", str(out)]) == 0
        assert (out / "session.ndjson").exists()
        assert (out / "report.txt").exists()
        assert (out / "manifest.json").exists()
        stdout = capsys.readouterr().out
        assert "session.ndjson" in stdout

    def test_reruns_are_byte_identical(self, tmp_path):
        first, second = tmp_path / "a", tmp_path / "b"
        main(["simulate", "--seed", "11", "--out", str(first)])
        main(["simulate", "--seed", "11", "--out", str(second)])
        for name in ("session.ndjson", "report.txt"):
            assert (first / name).read_bytes() == (second / name).read_bytes()
        first_manifest = json.loads((first / "manifest.json").read_text())
        second_manifest = json.loads((second / "manifest.json").read_text())
        # identical apart from the user-chosen output directory
        for manifest in (first_manifest, second_manifest):
            manifest.pop("outputs")
        assert first_manifest == second_manifest

    def test_log_matches_library_call(self, tmp_path):
        out = tmp_path / "run"
        main(["simulate", "--seed", "21", "--out", str(out)])
        log = deserialize_log((out / "session.ndjson").read_bytes())
        direct = simulate_session(default_profile(), seed=21,
                                  config=default_config())
        assert log == direct

    def test_cohort_numbering(self, tmp_path):
        out = tmp_path / "run"
        main(["simulate", "--seed", "5", "--cohort", "3", "--out", str(out)])
        names = sorted(p.name for p in out.iterdir())
        assert names == ["manifest.json",
                         "report_000.txt", "report_001.txt", "report_002.txt",
                         "session_000.ndjson", "session_001.ndjson",
                         "session_002.ndjson"]
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seeds"] == [5, 6, 7]

    @pytest.mark.parametrize("cohort", ["0", "-2"])
    def test_cohort_below_one_is_a_usage_error(self, tmp_path, capsys, cohort):
        out = tmp_path / "run"
        with pytest.raises(SystemExit) as excinfo:
            main(["simulate", "--seed", "1", "--cohort", cohort, "--out", str(out)])
        assert excinfo.value.code == 2
        assert "--cohort" in capsys.readouterr().err
        assert not out.exists()

    def test_profile_preset_and_json_format(self, tmp_path, capsys):
        out = tmp_path / "run"
        code = main(["simulate", "--seed", "2", "--profile", "perfect",
                     "--out", str(out), "--format", "json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["manifest"]["parameters"]["profile"] == "perfect"
        assert len(payload["sessions"]) == 1
        session = payload["sessions"][0]
        assert session["log"] == str(out / "session.ndjson")
        assert session["scorecard"]["visual"]["points"] == 16

    def test_missing_profile_file_exits_3(self, tmp_path, capsys):
        missing = tmp_path / "nope.json"
        code = main(["simulate", "--seed", "1", "--profile", str(missing),
                     "--out", str(tmp_path / "run")])
        assert code == 3
        assert str(missing) in capsys.readouterr().err

    def test_bad_config_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "config.json"
        bad.write_text(json.dumps({"band_points": {"OnTime": 3}}))
        code = main(["simulate", "--seed", "1", "--config", str(bad),
                     "--out", str(tmp_path / "run")])
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("document, message", [
        ({"band_points": {band: points - 4 for band, points
                          in errandlab.config.DEFAULT_BAND_POINTS.items()}},
         "band_points values must be at least 0, not -1"),
        ({"npc_positive_matrix": {
            depth: {**row, "correct": -5}
            for depth, row in errandlab.config.DEFAULT_NPC_POSITIVE_MATRIX.items()}},
         "npc_positive_matrix values must be at least 0, not -5"),
    ])
    def test_a_negative_award_table_exits_2(self, tmp_path, capsys, document, message):
        # the report would print it as a negative "score/maximum"
        config = tmp_path / "config.json"
        config.write_text(json.dumps(document))
        code = main(["simulate", "--seed", "1", "--config", str(config),
                     "--out", str(tmp_path / "run")])
        assert code == 2
        assert capsys.readouterr().err == f"error: {config}: {message}\n"
        assert not (tmp_path / "run").exists()

    def test_profile_help_names_the_presets(self):
        # the parser spells the preset names out so that ``import
        # errandlab.cli`` loads no simulate; keep the copy equal to its source
        parser = build_parser()
        action = next(a for a in parser._actions
                      if isinstance(a, argparse._SubParsersAction))
        profile = next(a for a in action.choices["simulate"]._actions
                       if a.dest == "profile")
        names = re.fullmatch(r"preset name \((.*)\) or JSON path", profile.help)[1]
        assert tuple(names.split("/")) == tuple(PROFILE_PRESETS)

    def test_a_config_domain_mapping_is_an_unknown_key(self, tmp_path, capsys):
        # the questionnaire partition comes only from vrnq --domains
        config = tmp_path / "config.json"
        config.write_text(json.dumps(
            {"domain_mapping": errandlab.vrnq.DEFAULT_DOMAIN_MAPPING}))
        code = main(["simulate", "--seed", "1", "--config", str(config),
                     "--out", str(tmp_path / "run")])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: {config}: unknown config keys: ['domain_mapping']\n")
        assert not (tmp_path / "run").exists()

    def test_a_distractor_that_is_a_target_exits_2(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        distractors = errandlab.config.ScoringConfig.collection_distractors
        config.write_text(json.dumps({"collection_distractors": ["red_book", *distractors[1:]]}))
        code = main(["simulate", "--seed", "1", "--config", str(config),
                     "--out", str(tmp_path / "run")])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: {config}: collection targets and distractors overlap\n")
        assert not (tmp_path / "run").exists()


class TestScoreCommand:
    @pytest.fixture
    def session_dir(self, tmp_path):
        out = tmp_path / "run"
        main(["simulate", "--seed", "9", "--out", str(out)])
        return out

    def test_report_matches_simulation(self, session_dir, capsys):
        code = main(["score", "--log", str(session_dir / "session.ndjson")])
        assert code == 0
        printed = capsys.readouterr().out
        assert printed.rstrip("\n") == (
            (session_dir / "report.txt").read_text().rstrip("\n"))

    def test_json_scorecard_matches_library(self, session_dir, capsys):
        code = main(["score", "--log", str(session_dir / "session.ndjson"),
                     "--format", "json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        log = deserialize_log((session_dir / "session.ndjson").read_bytes())
        expected = scorecard_to_dict(aggregate_scorecard(log, default_config()))
        assert payload["scorecard"] == json.loads(json.dumps(expected))

    def test_an_engine_error_from_a_command_exits_4(self, session_dir, capsys,
                                                    monkeypatch):
        # main catches the engine's errors once a command has loaded it
        def reject(log, config):
            raise errandlab.scenario.EngineError("rejected")
        monkeypatch.setattr(errandlab.scoring, "aggregate_scorecard", reject)
        assert main(["score", "--log", str(session_dir / "session.ndjson")]) == 4
        assert capsys.readouterr().err == "error: rejected\n"

    def test_out_directory(self, session_dir, tmp_path):
        dest = tmp_path / "scored"
        code = main(["score", "--log", str(session_dir / "session.ndjson"),
                     "--out", str(dest)])
        assert code == 0
        assert (dest / "report.txt").read_text() == (
            (session_dir / "report.txt").read_text())
        assert (dest / "manifest.json").exists()

    def test_truncated_log_exits_4(self, session_dir, tmp_path, capsys):
        crippled = tmp_path / "short.ndjson"
        crippled.write_bytes(
            (session_dir / "session.ndjson").read_bytes()[:-30])
        assert main(["score", "--log", str(crippled)]) == 4
        assert capsys.readouterr().err.startswith("error:")

    def test_incomplete_log_exits_4(self, session_dir, tmp_path, capsys):
        data = (session_dir / "session.ndjson").read_bytes()
        partial = b"\n".join(data.split(b"\n")[:40]) + b"\n"
        incomplete = tmp_path / "partial.ndjson"
        incomplete.write_bytes(partial)
        assert main(["score", "--log", str(incomplete)]) == 4

    @pytest.mark.parametrize("kind", [["SceneEntered"], {"SceneEntered": 1}])
    def test_array_or_object_kind_exits_4(self, session_dir, tmp_path, capsys, kind):
        head, line, rest = (session_dir / "session.ndjson").read_bytes().split(b"\n", 2)
        record = json.loads(line)
        record["kind"] = kind
        bad = tmp_path / "kind.ndjson"
        bad.write_bytes(head + b"\n" + json.dumps(record).encode() + b"\n" + rest)
        assert main(["score", "--log", str(bad)]) == 4
        assert capsys.readouterr().err == f"error: line 2: unknown event kind {kind!r}\n"

    @pytest.mark.parametrize("padding", ["", " "])
    def test_deeply_nested_line_exits_4(self, session_dir, tmp_path, capsys, padding):
        # Both decoders (raw_decode, and json.loads for a padded line) raise
        # RecursionError on this line.
        head, _, rest = (session_dir / "session.ndjson").read_bytes().split(b"\n", 2)
        depth = 100_000
        nested = padding.encode() + b"[" * depth + b"]" * depth
        bad = tmp_path / "nested.ndjson"
        bad.write_bytes(head + b"\n" + nested + b"\n" + rest)
        assert main(["score", "--log", str(bad)]) == 4
        assert capsys.readouterr().err == "error: line 2: JSON nested too deeply\n"

    @pytest.mark.parametrize("value", ["", "tru", "-", "[1,"])
    def test_payload_value_missing_exits_4(self, session_dir, tmp_path, capsys, value):
        # a canonical line whose payload holds a value with nothing (or a
        # cut-off word, number or array) where the value should be
        head, *lines = (session_dir / "session.ndjson").read_text().splitlines()
        at = next(i for i, line in enumerate(lines) if '"payload":{}' not in line)
        lines[at] = re.sub(r'"payload":\{[^{}]*\}', f'"payload":{{"a":{value}}}',
                           lines[at])
        bad = tmp_path / "missing.ndjson"
        bad.write_text("\n".join([head, *lines]) + "\n")
        assert main(["score", "--log", str(bad)]) == 4
        assert capsys.readouterr().err == (
            f"error: line {at + 2}: invalid JSON (Expecting value)\n")

    @pytest.mark.parametrize("version, shown", [("1.0", "1.0"), ("true", "True")])
    def test_non_integer_version_exits_4(self, session_dir, tmp_path, capsys,
                                         version, shown):
        data = (session_dir / "session.ndjson").read_bytes()
        bad = tmp_path / "version.ndjson"
        bad.write_bytes(data.replace(b'"version":1', b'"version":' + version.encode(), 1))
        assert main(["score", "--log", str(bad)]) == 4
        assert capsys.readouterr().err == (
            f"error: schema version {shown} unsupported (expected 1)\n")

    @staticmethod
    def _edited(session_dir, tmp_path, kind, edit):
        """The session log with ``edit`` applied to the first ``kind`` record."""
        head, *lines = (session_dir / "session.ndjson").read_text().splitlines()
        at = next(i for i, line in enumerate(lines) if json.loads(line)["kind"] == kind)
        record = json.loads(lines[at])
        edit(record)
        lines[at] = json.dumps(record, separators=(",", ":"))
        path = tmp_path / "edited.ndjson"
        path.write_text("\n".join([head, *lines]) + "\n")
        return at + 2, path  # the file line, after the header

    @pytest.mark.parametrize("cook_time_s", [1e308, 10**400], ids=["1e308", "400-digits"])
    def test_huge_cook_time_is_very_late(self, session_dir, tmp_path, capsys, cook_time_s):
        _, path = self._edited(session_dir, tmp_path, "CookingItemPlaced",
                               lambda r: r["payload"].update(cook_time_s=cook_time_s))
        assert main(["score", "--log", str(path), "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        json.dumps(payload, allow_nan=False)
        assert payload["scorecard"]["cooking"]["omelette"]["band"] == "VeryLate"

    def test_clock_past_2_53_ms_exits_4(self, session_dir, tmp_path, capsys):
        line, path = self._edited(session_dir, tmp_path, "SceneExited",
                                  lambda r: r.update(sim_time_ms=10**400))
        assert main(["score", "--log", str(path), "--format", "json"]) == 4
        assert capsys.readouterr().err == (
            f"error: line {line}: sim_time_ms must be at most 2**53\n")

    @pytest.mark.parametrize("line, field", [(1, "seed"), (3, "seq")])
    def test_integer_past_the_digit_limit_exits_4(self, session_dir, tmp_path, capsys,
                                                  line, field):
        lines = (session_dir / "session.ndjson").read_text().split("\n")
        lines[line - 1] = re.sub(rf'"{field}":\d+', f'"{field}":{_LONG_INT}',
                                 lines[line - 1])
        bad = tmp_path / "long_int.ndjson"
        bad.write_text("\n".join(lines))
        assert main(["score", "--log", str(bad)]) == 4
        [error] = capsys.readouterr().err.splitlines()
        assert error.startswith(f"error: line {line}: invalid JSON (")

    def test_missing_log_exits_3(self, tmp_path, capsys):
        missing = tmp_path / "absent.ndjson"
        assert main(["score", "--log", str(missing)]) == 3
        assert str(missing) in capsys.readouterr().err


def _first(records, scene, kind):
    return next(i for i, r in enumerate(records) if (r["scene"], r["kind"]) == (scene, kind))


def _unstocked_item(records):
    records[_first(records, 3, "ItemSelected")]["payload"]["item"] = "not_stocked"


def _target_grabbed_twice(records):
    at = _first(records, 8, "ItemSelected")
    records.insert(at + 1, records[at])


def _extra_target_poster(records):
    at = _first(records, 12, "PosterSpotted")
    records.insert(at + 1, dict(records[at], payload={
        **records[at]["payload"], "stimulus_id": "poster_99"}))


# (edit of the perfect golden session at seed 1, the scorers' message): the
# engine accepts each edit, and only the config shows it is wrong
_SCORING_FAULTS = [
    pytest.param(_unstocked_item, "item 'not_stocked' is not in the recognition catalog",
                 id="scene-3-item-outside-catalog"),
    pytest.param(_target_grabbed_twice, "target 'red_book' grabbed twice",
                 id="scene-8-target-grabbed-twice"),
    pytest.param(_extra_target_poster, "more target responses on the right than stimuli exist",
                 id="scene-12-more-targets-than-the-side-shows"),
]


@pytest.mark.parametrize("edit, message", _SCORING_FAULTS)
def test_a_scoring_fault_exits_4_with_one_error_line(tmp_path, capsys, edit, message):
    header, *lines = golden_bytes("perfect", 1).decode("utf-8").splitlines()
    records = [json.loads(line) for line in lines]
    edit(records)
    log = tmp_path / "fault.ndjson"
    log.write_text("\n".join([header, *(
        json.dumps(dict(record, seq=seq), sort_keys=True, separators=(",", ":"))
        for seq, record in enumerate(records))]) + "\n")
    assert main(["score", "--log", str(log)]) == 4
    captured = capsys.readouterr()
    assert captured.err == f"error: log content failed scoring validation: {message}\n"
    assert captured.out == ""


def test_readme_simulate_example_prints_what_readme_shows(tmp_path, monkeypatch, capsys):
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    assert main(["simulate", "--seed", "42", "--out", "runs/s42"]) == 0
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == 2
    for line in printed:
        assert f"\n{line}\n" in readme, line


class TestVrnqScoreCommand:
    def test_text_output_shows_medians_and_verdict(self, tmp_path, capsys):
        csv_path = _cohort_csv(tmp_path / "cohort.csv",
                               {f"p{i}": total for i, total in
                                enumerate([128, 124, 132, 126, 130])})
        code = main(["vrnq", "score", "--responses", str(csv_path)])
        assert code == 0
        text = capsys.readouterr().out
        assert "parsimonious" in text
        assert "overall: pass" in text

    def test_json_output(self, tmp_path, capsys):
        csv_path = _cohort_csv(tmp_path / "cohort.csv",
                               {"p1": 100, "p2": 104, "p3": 96})
        code = main(["vrnq", "score", "--responses", str(csv_path),
                     "--tier", "minimum", "--format", "json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["verdict"]["tier"] == "minimum"
        assert payload["aggregate"]["total"]["median"] == 100.0
        assert payload["verdict"]["overall"] is True

    def test_malformed_csv_exits_5(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("participant_id,q1\np1,4\n")
        assert main(["vrnq", "score", "--responses", str(bad)]) == 5
        assert capsys.readouterr().err.startswith("error:")

    def test_missing_csv_exits_3(self, tmp_path):
        assert main(["vrnq", "score",
                     "--responses", str(tmp_path / "gone.csv")]) == 3

    def test_bad_domains_json_exits_2(self, tmp_path):
        csv_path = _cohort_csv(tmp_path / "cohort.csv", {"p1": 100, "p2": 90})
        bad = tmp_path / "domains.json"
        bad.write_text("{not json")
        assert main(["vrnq", "score", "--responses", str(csv_path),
                     "--domains", str(bad)]) == 2

    def test_invalid_domain_mapping_exits_2(self, tmp_path):
        csv_path = _cohort_csv(tmp_path / "cohort.csv", {"p1": 100, "p2": 90})
        bad = tmp_path / "domains.json"
        bad.write_text(json.dumps({"UserExperience": list(range(1, 21))}))
        assert main(["vrnq", "score", "--responses", str(csv_path),
                     "--domains", str(bad)]) == 2


def _vrnq_score_per_participant(responses, domains, tier, fmt, manifest):
    """What `vrnq score` printed when it scored each participant on its own:
    check_cutoffs(aggregate_cohort([score_vrnq(r) ...])) over read_cohort_csv."""
    mapping = None if domains is None else DomainMapping(json.loads(domains.read_text()))
    cohort = read_cohort_csv(responses)
    scored = [score_vrnq(r, mapping) for r in cohort]
    aggregate = aggregate_cohort(scored)
    verdict = check_cutoffs(aggregate, tier)
    if fmt == "json":
        return _json_text({
            "participants": [{"participant_id": r.participant_id,
                              "sub_scores": dict(s.sub_scores), "total": s.total}
                             for r, s in zip(cohort, scored)],
            "aggregate": {
                "n": aggregate.total_stats.n,
                "sub_scores": {d: {"median": st.median, "mad": st.mad}
                               for d, st in aggregate.sub_stats.items()},
                "total": {"median": aggregate.total_stats.median,
                          "mad": aggregate.total_stats.mad},
            },
            "verdict": {"tier": verdict.tier, "passes": dict(verdict.passes),
                        "overall": verdict.overall},
            "manifest": manifest,
        }) + "\n"
    lines = [f"participants: {aggregate.total_stats.n}"]
    for r, s in zip(cohort, scored):
        subs = "  ".join(f"{d}={s.sub_scores[d]}" for d in DOMAINS)
        lines.append(f"  {r.participant_id}: {subs}  total={s.total}")
    lines.append("cohort medians (MAD):")
    for domain in DOMAINS:
        st = aggregate.sub_stats[domain]
        lines.append(f"  {domain}: {st.median:g} ({st.mad:g})")
    lines.append(f"  Total: {aggregate.total_stats.median:g} ({aggregate.total_stats.mad:g})")
    bars = CUTOFFS[tier]
    lines.append(f"cut-off tier {tier} (sub>={bars['sub']}, total>={bars['total']}):")
    lines += [f"  {name}: {'pass' if ok else 'FAIL'}" for name, ok in verdict.passes.items()]
    lines.append(f"overall: {'pass' if verdict.overall else 'FAIL'}")
    return "\n".join(lines) + "\n"


class TestVrnqScoreColumns:
    """`vrnq score` sums the reader's columns and builds no per-participant
    object; what it prints is what scoring each participant prints."""

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(min_value=1, max_value=120),
           seed=st.integers(min_value=0, max_value=2**32),
           odd=st.booleans(), with_feedback=st.booleans(), bom=st.booleans(),
           order=st.none() | st.permutations(range(1, 21)),
           tier=st.sampled_from(sorted(CUTOFFS)))
    def test_output_equals_per_participant_scoring(self, tmp_path_factory, n, seed, odd,
                                                   with_feedback, bom, order, tier):
        # canonical one-digit ratings take the reader's at-once route; a
        # rating spelled " 3", "+3" or "03" sends the file row by row
        rng = random.Random(seed)
        folder = tmp_path_factory.mktemp("vrnq-score")
        handle = io.StringIO()
        writer = csv.writer(handle, lineterminator=rng.choice(("\n", "\r\n")))
        writer.writerow(CSV_COLUMNS + ["feedback"] * with_feedback)
        for pid in rng.sample(range(10 * n), n):
            row = [f"p{pid}", *(str(rng.randint(1, 7)) for _ in range(20))]
            if odd and rng.random() < 0.3:
                item = rng.randint(1, 20)
                row[item] = rng.choice((" {}", "+{}", "0{}")).format(row[item])
            writer.writerow(row + [rng.choice(("", "fine", "a,\nb"))] * with_feedback)
        responses = folder / "cohort.csv"
        responses.write_bytes(b"\xef\xbb\xbf" * bom + handle.getvalue().encode("utf-8"))
        argv = ["vrnq", "score", "--responses", str(responses), "--tier", tier]
        domains = None
        if order is not None:
            domains = folder / "domains.json"
            domains.write_text(json.dumps(
                {domain: order[5 * i:5 * i + 5] for i, domain in enumerate(DOMAINS)}))
            argv += ["--domains", str(domains)]
        printed = {}
        for fmt in ("json", "text"):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert main([*argv, "--format", fmt]) == 0
            printed[fmt] = out.getvalue()
        payload = json.loads(printed["json"])
        for fmt, text in printed.items():
            assert text == _vrnq_score_per_participant(
                responses, domains, tier, fmt, payload["manifest"])
        # the reference shares the sums and the aggregate with the command,
        # so check them against plain item sums and statistics.median too
        mapping = {domain: order[5 * i:5 * i + 5] if order else range(5 * i + 1, 5 * i + 6)
                   for i, domain in enumerate(DOMAINS)}
        columns = {"total": [], **{domain: [] for domain in DOMAINS}}
        for response, row in zip(read_cohort_csv(responses), payload["participants"]):
            expected = {d: sum(response.items[item - 1] for item in mapping[d]) for d in DOMAINS}
            assert (row["sub_scores"], row["total"]) == (expected, sum(response.items))
            for label, column in columns.items():
                column.append(expected.get(label, row["total"]))
        stats = {**payload["aggregate"]["sub_scores"], "total": payload["aggregate"]["total"]}
        for label, values in columns.items():
            center = statistics.median(values)
            assert stats[label] == {"median": center,
                                    "mad": statistics.median(abs(v - center) for v in values)}


class TestByteOrderMark:
    """A spreadsheet's "CSV UTF-8" export starts with a byte-order mark; a
    cohort file with one reads as the same file without it."""

    @pytest.mark.parametrize("argv", [
        ["vrnq", "score", "--responses", "a.csv", "--format", "json"],
        ["vrnq", "compare", "--baseline", "a.csv", "--revised", "b.csv",
         "--format", "json"],
    ], ids=["score", "compare"])
    def test_marked_files_read_as_plain_ones(self, tmp_path, monkeypatch, capsys, argv):
        ids = [f"p{i}" for i in range(8)]
        outputs = []
        for mark in (b"", b"\xef\xbb\xbf"):
            directory = tmp_path / ("marked" if mark else "plain")
            directory.mkdir()
            for name, shift in (("a.csv", 0), ("b.csv", 6)):
                path = _cohort_csv(directory / name,
                                   {p: 80 + shift + 3 * i + i % 3 for i, p in enumerate(ids)})
                path.write_bytes(mark + path.read_bytes())
            monkeypatch.chdir(directory)
            assert main(argv) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]


class TestVrnqCompareCommand:
    @staticmethod
    def _paired_csvs(tmp_path, shift):
        ids = [f"p{i}" for i in range(10)]
        baseline_totals = {pid: 96 + 2 * (i % 5)
                           for i, pid in enumerate(ids)}
        revised_totals = {pid: total + shift + (i % 3)
                          for i, (pid, total) in
                          enumerate(baseline_totals.items())}
        return (_cohort_csv(tmp_path / "baseline.csv", baseline_totals),
                _cohort_csv(tmp_path / "revised.csv", revised_totals))

    @staticmethod
    def _compare_argv(tmp_path, pairs):
        """`vrnq compare` of cohorts whose participant i rated the
        (baseline, revised) item lists ``pairs[i]``."""
        argv = ["vrnq", "compare"]
        for side, name in enumerate(("baseline", "revised")):
            write_cohort_csv([VrnqResponseSet(participant_id=f"p{i}", items=tuple(pair[side]),
                                              feedback="") for i, pair in enumerate(pairs)],
                             tmp_path / f"{name}.csv")
            argv += [f"--{name}", str(tmp_path / f"{name}.csv")]
        return argv

    def test_improvement_detected(self, tmp_path, capsys):
        baseline, revised = self._paired_csvs(tmp_path, shift=20)
        code = main(["vrnq", "compare", "--baseline", str(baseline),
                     "--revised", str(revised)])
        assert code == 0
        text = capsys.readouterr().out
        assert "Total" in text
        assert "Extreme" in text or "VeryStrong" in text

    def test_csv_artifact(self, tmp_path):
        baseline, revised = self._paired_csvs(tmp_path, shift=20)
        dest = tmp_path / "cmp"
        code = main(["vrnq", "compare", "--baseline", str(baseline),
                     "--revised", str(revised), "--out", str(dest)])
        assert code == 0
        lines = (dest / "comparison.csv").read_text().splitlines()
        assert lines[0] == "score,n,t,df,p,bf10,band,stars,bf10_rel_err"
        assert len(lines) == 6  # header + total + four domains
        rel_err = float(lines[1].split(",")[-1])
        assert 0.0 <= rel_err <= 1e-6

    def test_csv_is_the_json_rows_joined_with_a_degenerate_row_empty(self, tmp_path, capsys):
        # 12 pairs whose InGameAssistance ratings stay put: that column is
        # degenerate.  The CSV is each row's fields joined by commas, every
        # float as its repr, and on the degenerate row no statistic, df
        # included
        rng = random.Random(5)
        steady = set(errandlab.vrnq.DEFAULT_DOMAIN_MAPPING["InGameAssistance"])
        pairs = []
        for _ in range(12):
            items = [rng.randint(2, 6) for _ in range(20)]
            pairs.append((items, [v if item in steady else v + rng.randint(-1, 1)
                                  for item, v in enumerate(items, start=1)]))
        argv = self._compare_argv(tmp_path, pairs)
        assert main(argv + ["--out", str(tmp_path / "cmp"), "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)["rows"]
        assert [row["score"] for row in rows if row["degenerate"]] == ["InGameAssistance"]
        expected = ["score,n,t,df,p,bf10,band,stars,bf10_rel_err"]
        for row in rows:
            if row["degenerate"]:
                expected.append(f"{row['score']},{row['n']},,,,,,,")
            else:
                expected.append(
                    f"{row['score']},{row['n']},{row['t']!r},{row['df']},"
                    f"{row['p']!r},{row['bf10']!r},{row['band']},{row['stars']},"
                    f"{row['bf10_rel_err']!r}")
        assert (tmp_path / "cmp" / "comparison.csv").read_bytes() == (
            "\n".join(expected) + "\n").encode("utf-8")

    def test_json_rows(self, tmp_path, capsys):
        baseline, revised = self._paired_csvs(tmp_path, shift=20)
        code = main(["vrnq", "compare", "--baseline", str(baseline),
                     "--revised", str(revised), "--format", "json",
                     "--direction", "two-sided"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        rows = {row["score"]: row for row in payload["rows"]}
        assert set(rows) == {"Total", "UserExperience", "GameMechanics",
                             "InGameAssistance", "VRISE"}
        assert payload["manifest"]["parameters"]["direction"] == "two-sided"
        assert rows["Total"]["n"] == 10
        assert not rows["Total"]["degenerate"]
        for row in rows.values():
            if row["degenerate"]:
                assert row["bf10_rel_err"] is None
            else:
                assert 0.0 <= row["bf10_rel_err"] <= 1e-6

    def test_identical_cohorts_report_degenerate(self, tmp_path, capsys):
        baseline, _ = self._paired_csvs(tmp_path, shift=20)
        code = main(["vrnq", "compare", "--baseline", str(baseline),
                     "--revised", str(baseline)])
        assert code == 0
        assert "all differences equal; t undefined" in capsys.readouterr().out

    def test_a_cohort_shifted_by_one_is_not_called_identical(self, tmp_path, capsys):
        # every rating one point higher: every difference is equal, and none
        # of the samples is identical to its pair
        rng = random.Random(5)
        pairs = []
        for _ in range(12):
            items = [rng.randint(1, 6) for _ in range(20)]
            pairs.append((items, [v + 1 for v in items]))
        assert main(self._compare_argv(tmp_path, pairs)) == 0
        lines = capsys.readouterr().out.splitlines()[2:]
        assert len(lines) == 5
        for line in lines:
            assert line.endswith(" 12  " + f"{'all differences equal; t undefined':>46}")

    def test_identical_cohorts_make_no_integration_call(self, tmp_path, monkeypatch,
                                                        capsys):
        def integrate(*args):
            raise AssertionError("a degenerate column was integrated")

        monkeypatch.setattr(errandlab.bayes, "_bf10_columns", integrate)
        baseline, _ = self._paired_csvs(tmp_path, shift=20)
        # a prior scale whose square underflows fails any integration
        code = main(["vrnq", "compare", "--baseline", str(baseline),
                     "--revised", str(baseline), "--prior-scale", "1e-300"])
        assert code == 0
        assert capsys.readouterr().out.count("all differences equal; t undefined") == 5

    def test_unmatched_ids_exit_5(self, tmp_path, capsys):
        baseline = _cohort_csv(tmp_path / "baseline.csv",
                               {"p1": 100, "p2": 104, "p3": 96})
        revised = _cohort_csv(tmp_path / "revised.csv",
                              {"p1": 100, "p2": 104, "p4": 96})
        code = main(["vrnq", "compare", "--baseline", str(baseline),
                     "--revised", str(revised)])
        assert code == 5
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("faulty", ["baseline", "revised"])
    def test_a_faulty_cohort_is_named(self, tmp_path, capsys, faulty):
        paths = dict(zip(("baseline", "revised"), self._paired_csvs(tmp_path, shift=20)))
        paths[faulty].write_text(",".join(CSV_COLUMNS) + "\np9" + ",9" + ",4" * 19 + "\n")
        code = main(["vrnq", "compare", "--baseline", str(paths["baseline"]),
                     "--revised", str(paths["revised"])])
        assert code == 5
        captured = capsys.readouterr()
        assert captured.err == f"error: {paths[faulty]}: p9: item 1 value 9 outside 1..7\n"
        assert captured.out == ""

    def test_one_participant_cohorts_exit_5(self, tmp_path, capsys):
        baseline = _cohort_csv(tmp_path / "baseline.csv", {"p1": 100})
        revised = _cohort_csv(tmp_path / "revised.csv", {"p1": 110})
        code = main(["vrnq", "compare", "--baseline", str(baseline),
                     "--revised", str(revised), "--out", str(tmp_path / "cmp")])
        assert code == 5
        captured = capsys.readouterr()
        assert captured.err == ("error: a paired comparison needs at least two "
                                "participants, got 1\n")
        assert captured.out == ""
        assert not (tmp_path / "cmp").exists()

    def test_bad_direction_is_a_usage_error(self, tmp_path, capsys):
        baseline, revised = self._paired_csvs(tmp_path, shift=5)
        with pytest.raises(SystemExit) as excinfo:
            main(["vrnq", "compare", "--baseline", str(baseline),
                  "--revised", str(revised), "--direction", "sideways"])
        assert excinfo.value.code == 2

    @staticmethod
    def _vrnq_option(command, dest):
        """The action of ``dest`` in the parser of ``vrnq <command>``."""
        parser = build_parser()
        for name in ("vrnq", command):
            action = next(a for a in parser._actions
                          if isinstance(a, argparse._SubParsersAction))
            parser = action.choices[name]
        return next(a for a in parser._actions if a.dest == dest)

    # The parser spells out the values below so that ``import errandlab.cli``
    # loads neither bayes nor vrnq; these tests keep each copy equal to its
    # source.
    def test_direction_choices_are_the_direction_values(self):
        direction = self._vrnq_option("compare", "direction")
        assert tuple(direction.choices) == tuple(d.value for d in Direction)

    def test_prior_scale_default_is_the_bayes_default(self):
        prior_scale = self._vrnq_option("compare", "prior_scale")
        assert prior_scale.default == errandlab.bayes.DEFAULT_PRIOR_SCALE

    def test_tier_choices_are_the_cutoff_tiers(self):
        assert tuple(self._vrnq_option("score", "tier").choices) == tuple(CUTOFFS)

    def test_tier_default_is_the_check_cutoffs_default(self):
        default = inspect.signature(errandlab.vrnq.check_cutoffs).parameters["tier"].default
        assert self._vrnq_option("score", "tier").default == default

    def test_text_table_shows_bf10_rel_err(self, tmp_path, capsys):
        baseline, revised = self._paired_csvs(tmp_path, shift=20)
        argv = ["vrnq", "compare", "--baseline", str(baseline),
                "--revised", str(revised)]
        assert main(argv + ["--format", "json"]) == 0
        total = json.loads(capsys.readouterr().out)["rows"][0]
        assert main(argv) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1].split() == ["score", "n", "t", "p", "BF10",
                                    "bf10_rel_err", "evidence"]
        row = lines[2].split()
        assert row[0] == "Total"
        assert row[5] == f"{total['bf10_rel_err']:.1e}"

    def test_a_large_bf10_fits_its_column(self, tmp_path, capsys):
        # 300 pairs of ratings 2-5, each revised one point higher with
        # probability 0.3: the Total row's BF10 is about 1e148, which fixed
        # point prints in 152 characters
        rng = random.Random(3)
        pairs = []
        for _ in range(300):
            items = [rng.randint(2, 5) for _ in range(20)]
            pairs.append((items, [v + int(rng.random() < 0.3) for v in items]))
        argv = self._compare_argv(tmp_path, pairs)
        assert main(argv + ["--format", "json"]) == 0
        bf10s = [row["bf10"] for row in json.loads(capsys.readouterr().out)["rows"]]
        assert main(argv) == 0
        header, *lines = capsys.readouterr().out.splitlines()[1:]
        assert max(bf10s) > 1e100

        def layout(line):
            # where n, t, p, BF10 and bf10_rel_err end and the evidence
            # starts, from the start of the line: the header's places while
            # p and BF10 fit their columns (the Total row's p is 2.7e-151)
            fields = list(re.finditer(r"\S+", line))
            return [field.end() for field in fields[1:6]] + [fields[6].start()]

        for line, bf10 in zip(lines, bf10s, strict=True):
            assert layout(line) == layout(header) == [22, 32, 43, 57, 71, 73]
            assert float(line.split()[4]) == pytest.approx(bf10, rel=1e-4)

    def test_every_field_ends_under_its_header_at_a_thousand_pairs(self, tmp_path,
                                                                   capsys):
        # ratings 2-6, each revised one point down, kept or one point up,
        # but the InGameAssistance items (11-15) kept, so that its row is
        # degenerate
        rng = random.Random(4)
        pairs = []
        for _ in range(1000):
            items = [rng.randint(2, 6) for _ in range(20)]
            pairs.append((items, [v if 11 <= item <= 15 else v + rng.choice((-1, 0, 1))
                                  for item, v in enumerate(items, start=1)]))
        assert main(self._compare_argv(tmp_path, pairs) + ["--direction", "two-sided"]) == 0
        header, *lines = capsys.readouterr().out.splitlines()[1:]

        def ends(line):
            return [field.end() for field in re.finditer(r"\S+", line)]

        assert len(lines) == 5
        for line in lines:
            if line.startswith("InGameAssistance"):
                assert ends(line)[1] == ends(header)[1] == 23
                assert line.endswith(" 1000  " + f"{'all differences equal; t undefined':>46}")
            else:
                # n, t, p, BF10 and bf10_rel_err
                assert ends(line)[1:6] == ends(header)[1:6] == [23, 33, 44, 58, 72]

    @pytest.mark.parametrize("prior_scale, code", [
        ("0", 2), ("-1", 2), ("nan", 2), ("inf", 2), ("abc", 2),
        ("1e-300", 1), ("1.4e154", 1), ("1e154", 1)])
    def test_bad_prior_scale_ends_in_one_error_line(self, tmp_path, capsys,
                                                    prior_scale, code):
        baseline, revised = self._paired_csvs(tmp_path, shift=20)
        argv = ["vrnq", "compare", "--baseline", str(baseline),
                "--revised", str(revised), "--prior-scale", prior_scale]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                result = main(argv)
            except SystemExit as exc:
                result = exc.code
        assert result == code
        err = capsys.readouterr().err
        assert "Traceback" not in err
        [line] = [line for line in err.splitlines() if "error:" in line]
        if code == 2:
            assert "argument --prior-scale" in line
        else:
            assert line.startswith("error: ")

    def test_two_sided_prior_scale_past_overflow_exits_1(self, tmp_path, capsys):
        baseline, revised = self._paired_csvs(tmp_path, shift=20)
        code = main(["vrnq", "compare", "--baseline", str(baseline),
                     "--revised", str(revised), "--prior-scale", "1e154",
                     "--direction", "two-sided"])
        assert code == 1
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith("error: prior_scale = 1e+154 ")

    def test_integration_failure_exits_1(self, tmp_path, monkeypatch, capsys):
        def failing(*args, **kwargs):
            raise IntegrationFailure("quadrature did not converge")

        monkeypatch.setattr(errandlab.bayes, "compare_paired_columns", failing)
        baseline, revised = self._paired_csvs(tmp_path, shift=20)
        code = main(["vrnq", "compare", "--baseline", str(baseline),
                     "--revised", str(revised), "--out", str(tmp_path / "cmp")])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err == "error: quadrature did not converge\n"
        assert captured.out == ""
        assert not (tmp_path / "cmp").exists()

    def test_an_integral_fault_exits_1(self, tmp_path, capsys, integral_fault):
        baseline, revised = self._paired_csvs(tmp_path, shift=20)
        code = main(["vrnq", "compare", "--baseline", str(baseline),
                     "--revised", str(revised), "--out", str(tmp_path / "cmp")])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {integral_fault}\n"
        assert captured.out == ""
        assert not (tmp_path / "cmp").exists()


def _count_calls(monkeypatch, module, name):
    """Record a call of ``module.name`` through every errandlab module holding it."""
    original = getattr(module, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for module_name, holder in list(sys.modules.items()):
        if (module_name.partition(".")[0] == "errandlab"
                and getattr(holder, name, None) is original):
            monkeypatch.setattr(holder, name, counted)
    return calls


def _counted(cls, built):
    """A subclass of ``cls`` that counts each instance it builds in ``built``."""
    class Counted(cls):
        def __init__(self, *args):
            built[cls.__name__] += 1
            super().__init__(*args)
    return Counted


class TestCallCounts:
    def test_no_command_builds_an_effect(self, tmp_path, monkeypatch):
        # the engine only changes state; replay alone reads effects off it
        built = collections.Counter()
        for name in ("PromptShown", "SceneTransition", "PracticeRetry", "PracticePassed",
                     "SessionComplete"):
            monkeypatch.setattr(errandlab.scenario, name,
                                _counted(getattr(errandlab.scenario, name), built))
        assert main(["simulate", "--seed", "2", "--cohort", "2",
                     "--out", str(tmp_path / "run")]) == 0
        assert main(["score", "--log", str(golden_path("default", 3))]) == 0
        assert built == {}
        errandlab.scenario.replay(deserialize_log(golden_bytes("default", 3)).events)
        assert built == {"SceneTransition": 21, "PromptShown": 13, "PracticeRetry": 3,
                         "PracticePassed": 2, "SessionComplete": 1}

    @pytest.mark.parametrize("fmt, scorecards", [("text", 0), ("json", 4)])
    def test_cohort_hashes_once_and_never_replays(self, tmp_path, monkeypatch,
                                                  fmt, scorecards):
        hashes = _count_calls(monkeypatch, errandlab.config, "config_hash")
        replays = _count_calls(monkeypatch, errandlab.scenario, "replay")
        folds = _count_calls(monkeypatch, errandlab.scenario, "_final_state")
        dicts = _count_calls(monkeypatch, errandlab.scoring, "scorecard_to_dict")
        assert main(["simulate", "--seed", "2", "--cohort", "4", "--format", fmt,
                     "--out", str(tmp_path / "run")]) == 0
        assert (len(hashes), len(replays), len(folds), len(dicts)) == (
            1, 0, 0, scorecards)

    def test_score_replays_and_derives_telemetry_once(self, tmp_path, monkeypatch):
        # one engine pass: the trace-free fold, never replay
        out = tmp_path / "run"
        assert main(["simulate", "--seed", "2", "--out", str(out)]) == 0
        replays = _count_calls(monkeypatch, errandlab.scenario, "replay")
        folds = _count_calls(monkeypatch, errandlab.scenario, "_final_state")
        telemetry = _count_calls(monkeypatch, errandlab.sessionlog, "derive_telemetry")
        assert main(["score", "--log", str(out / "session.ndjson")]) == 0
        assert (len(folds), len(replays), len(telemetry)) == (1, 0, 1)

    def test_score_hashes_the_config_only_for_an_accepted_log(self, tmp_path, monkeypatch):
        out = tmp_path / "run"
        assert main(["simulate", "--seed", "2", "--out", str(out)]) == 0
        lines = (out / "session.ndjson").read_bytes().split(b"\n")
        rejected = tmp_path / "rejected.ndjson"
        rejected.write_bytes(b"\n".join(lines[:2] + lines[3:]))  # no TutorialCompleted
        hashes = _count_calls(monkeypatch, errandlab.config, "config_hash")
        assert main(["score", "--log", str(rejected)]) == 4
        assert hashes == []
        assert main(["score", "--log", str(out / "session.ndjson")]) == 0
        assert len(hashes) == 1

    # JSON output prints no report, so only --out or text output builds it;
    # the report written is the one simulate wrote for the same session.
    @pytest.mark.parametrize("fmt, out, reports", [
        ("json", False, 0), ("json", True, 1), ("text", False, 1), ("text", True, 1)])
    def test_score_builds_the_report_only_to_print_or_write_it(
            self, tmp_path, monkeypatch, capsys, fmt, out, reports):
        run = tmp_path / "run"
        assert main(["simulate", "--seed", "2", "--out", str(run)]) == 0
        capsys.readouterr()
        calls = _count_calls(monkeypatch, errandlab.sessionlog, "export_report")
        argv = ["score", "--log", str(run / "session.ndjson"), "--format", fmt]
        assert main(argv + (["--out", str(tmp_path / "scored")] if out else [])) == 0
        assert len(calls) == reports
        expected = (run / "report.txt").read_text(encoding="utf-8")
        if out:
            assert (tmp_path / "scored" / "report.txt").read_text(
                encoding="utf-8") == expected
        if fmt == "text":
            assert capsys.readouterr().out == expected

    @pytest.mark.parametrize("command", ["score", "compare"])
    def test_vrnq_validates_a_domains_mapping_once(self, tmp_path, monkeypatch,
                                                   command):
        domains = tmp_path / "domains.json"
        domains.write_text(json.dumps(errandlab.vrnq.DEFAULT_DOMAIN_MAPPING))
        ids = [f"p{i:02d}" for i in range(12)]
        baseline = _cohort_csv(tmp_path / "a.csv", {p: 60 + 3 * i for i, p in enumerate(ids)})
        revised = _cohort_csv(tmp_path / "b.csv",
                              {p: 70 + 3 * i + i % 4 for i, p in enumerate(ids)})
        argv = (["vrnq", "score", "--responses", str(baseline)] if command == "score"
                else ["vrnq", "compare", "--baseline", str(baseline),
                      "--revised", str(revised)])
        checks = _count_calls(monkeypatch, errandlab.vrnq, "validate_domain_mapping")
        assert main([*argv, "--domains", str(domains), "--format", "json"]) == 0
        assert len(checks) == 1

    def test_vrnq_compare_builds_no_response_set_and_opens_each_csv_once(
            self, tmp_path, monkeypatch):
        ids = [f"p{i:02d}" for i in range(12)]
        baseline = _cohort_csv(tmp_path / "a.csv", {p: 60 + 3 * i for i, p in enumerate(ids)})
        revised = _cohort_csv(tmp_path / "b.csv",
                              {p: 70 + 3 * i + i % 4 for i, p in enumerate(ids)})
        response_sets, opened = [], []
        check = VrnqResponseSet.__post_init__

        def counted_check(self):
            response_sets.append(self.participant_id)
            check(self)

        def counted_open(file, *args, **kwargs):
            opened.append(file)
            return open(file, *args, **kwargs)

        monkeypatch.setattr(VrnqResponseSet, "__post_init__", counted_check)
        monkeypatch.setattr(errandlab.vrnq, "open", counted_open, raising=False)
        assert main(["vrnq", "compare", "--baseline", str(baseline),
                     "--revised", str(revised), "--format", "json"]) == 0
        assert response_sets == []
        assert opened == [str(baseline), str(revised)]
        assert main(["vrnq", "score", "--responses", str(baseline),
                     "--format", "json"]) == 0
        assert response_sets == []
        assert opened[2:] == [str(baseline)]
        # the counters see what a caller that does build them builds
        assert len(errandlab.vrnq.read_cohort_csv(baseline)) == len(ids)
        assert len(response_sets) == len(ids)
        assert opened[3:] == [baseline]

    def test_score_parses_a_canonical_log_without_json_loads(self, tmp_path,
                                                             monkeypatch):
        # json.loads is the parser's slow path, for padded or invalid lines;
        # the config module's own call (config_to_dict) is not counted.
        out = tmp_path / "run"
        assert main(["simulate", "--seed", "2", "--out", str(out)]) == 0
        calls = []
        original = json.loads

        def counted(*args, **kwargs):
            if sys._getframe(1).f_globals["__name__"] == "errandlab.sessionlog":
                calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(json, "loads", counted)
        assert main(["score", "--log", str(out / "session.ndjson")]) == 0
        assert calls == []

    def test_each_command_makes_its_out_directory_once(self, tmp_path, monkeypatch):
        out = tmp_path / "run"
        calls = []
        original = os.makedirs

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(os, "makedirs", counted)
        assert main(["simulate", "--seed", "2", "--cohort", "3", "--out", str(out)]) == 0
        assert len(calls) == 1
        assert len(os.listdir(out)) == 7  # 3 logs, 3 reports and the manifest
        calls.clear()
        assert main(["score", "--log", str(out / "session_000.ndjson"),
                     "--out", str(tmp_path / "scored")]) == 0
        assert len(calls) == 1
        assert sorted(os.listdir(tmp_path / "scored")) == ["manifest.json", "report.txt"]
        argvs = _command_argvs(tmp_path)
        for command in ("vrnq score", "vrnq compare"):
            calls.clear()
            dest = tmp_path / command.replace(" ", "_")
            assert main([*argvs[command], "--out", str(dest)]) == 0
            assert len(calls) == 1
            assert sorted(os.listdir(dest)) == sorted(["manifest.json", *_WRITTEN[command]])

    @pytest.mark.parametrize("fmt, scorecards", [("text", 0), ("json", 1)])
    def test_score_builds_the_scorecard_dict_only_for_json(self, tmp_path, monkeypatch,
                                                           capsys, fmt, scorecards):
        run = tmp_path / "run"
        assert main(["simulate", "--seed", "2", "--out", str(run)]) == 0
        dicts = _count_calls(monkeypatch, errandlab.scoring, "scorecard_to_dict")
        assert main(["score", "--log", str(run / "session.ndjson"), "--format", fmt,
                     "--out", str(tmp_path / "scored")]) == 0
        assert len(dicts) == scorecards


def _command_argvs(directory):
    """Each command's argv, without --out, on inputs written to ``directory``."""
    log = directory / "session.ndjson"
    log.write_bytes(serialize_log(simulate_session(default_profile(), 1)))
    ids = [f"p{i:02d}" for i in range(12)]
    baseline = _cohort_csv(directory / "a.csv", {p: 60 + 3 * i for i, p in enumerate(ids)})
    revised = _cohort_csv(directory / "b.csv",
                          {p: 70 + 3 * i + i % 4 for i, p in enumerate(ids)})
    return {
        "simulate": ["simulate", "--seed", "1", "--cohort", "2"],
        "score": ["score", "--log", str(log)],
        "vrnq score": ["vrnq", "score", "--responses", str(baseline)],
        "vrnq compare": ["vrnq", "compare", "--baseline", str(baseline),
                         "--revised", str(revised)],
    }


# the files besides manifest.json that each command writes under --out
_WRITTEN = {
    "simulate": ["report_000.txt", "report_001.txt",
                 "session_000.ndjson", "session_001.ndjson"],
    "score": ["report.txt"],
    "vrnq score": [],
    "vrnq compare": ["comparison.csv"],
}


class TestOutContract:
    @pytest.mark.parametrize("command", sorted(_WRITTEN))
    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_the_manifest_lists_every_other_file_written(self, tmp_path, capsys,
                                                         command, fmt):
        (tmp_path / "in").mkdir()
        argv = _command_argvs(tmp_path / "in")[command]
        out = str(tmp_path / "out")
        assert main([*argv, "--out", out, "--format", fmt]) == 0
        written = sorted(os.listdir(out))
        assert written == sorted(["manifest.json", *_WRITTEN[command]])
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert sorted(manifest["outputs"].values()) == [
            os.path.join(out, name) for name in _WRITTEN[command]]
        if fmt == "json":
            assert json.loads(capsys.readouterr().out)["manifest"] == manifest

    @pytest.mark.parametrize("command", sorted(_WRITTEN))
    def test_an_empty_out_is_the_current_directory(self, tmp_path, monkeypatch,
                                                   command):
        (tmp_path / "in").mkdir()
        argv = _command_argvs(tmp_path / "in")[command]
        (tmp_path / "work").mkdir()
        monkeypatch.chdir(tmp_path / "work")
        assert main([*argv, "--out", ""]) == 0
        assert sorted(os.listdir()) == sorted(["manifest.json", *_WRITTEN[command]])
        with open("manifest.json", encoding="utf-8") as handle:
            manifest = json.load(handle)
        assert sorted(manifest["outputs"].values()) == _WRITTEN[command]

    @pytest.mark.parametrize("command", ["score", "vrnq score", "vrnq compare"])
    def test_no_out_writes_nothing_and_prints_the_manifest_only_in_json(
            self, tmp_path, monkeypatch, capsys, command):
        (tmp_path / "in").mkdir()
        argv = _command_argvs(tmp_path / "in")[command]
        (tmp_path / "work").mkdir()
        monkeypatch.chdir(tmp_path / "work")
        assert main(argv) == 0
        assert "manifest" not in capsys.readouterr().out
        assert main([*argv, "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["manifest"]["outputs"] == {}
        assert os.listdir() == []


class TestOutNamingAFile:
    @pytest.mark.parametrize("command", ["simulate", "score"])
    def test_exits_3_with_one_error_line(self, tmp_path, capsys, command):
        blocker = tmp_path / "taken"
        blocker.write_text("not a directory\n")
        if command == "simulate":
            argv = ["simulate", "--seed", "1", "--cohort", "2", "--out", str(blocker)]
        else:
            log = tmp_path / "session.ndjson"
            log.write_bytes(serialize_log(simulate_session(default_profile(), 1)))
            argv = ["score", "--log", str(log), "--out", str(blocker)]
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.err == f"error: {blocker}: {os.strerror(errno.EEXIST)}\n"
        assert captured.out == ""
        assert blocker.read_text() == "not a directory\n"


@contextlib.contextmanager
def _collector(enabled):
    """Run the block with the cyclic collector on or off, then put it back."""
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        yield
    finally:
        (gc.enable if was else gc.disable)()


def _long_log(path, target_events):
    """A simulated session padded to ``target_events`` with NoteOpened/NoteClosed
    pairs right after scene 3 is entered, at its entry timestamp, as the
    benchmark's long logs are: it still replays and scores."""
    log = simulate_session(default_profile(), 1)
    events = list(log.events)
    at = next(i for i, e in enumerate(events)
              if e.scene == 3 and e.kind is EventKind.SCENE_ENTERED)
    notes = [SessionEvent(seq=0, sim_time_ms=events[at].sim_time_ms, scene=3, kind=kind)
             for _ in range((target_events - len(events)) // 2)
             for kind in (EventKind.NOTE_OPENED, EventKind.NOTE_CLOSED)]
    merged = events[:at + 1] + notes + events[at + 1:]
    path.write_bytes(serialize_log(log_from_events(
        (dataclasses.replace(event, seq=seq) for seq, event in enumerate(merged)),
        seed=log.seed, config_hash=log.config_hash)))
    return path


class TestCollectorPause:
    """``main`` runs a command with the cyclic garbage collector paused."""

    @pytest.fixture
    def log(self, tmp_path):
        path = tmp_path / "session.ndjson"
        path.write_bytes(serialize_log(simulate_session(default_profile(), 1)))
        return path

    def test_a_command_runs_with_the_collector_off(self, log, monkeypatch, capsys):
        seen = []
        original = errandlab.scoring.aggregate_scorecard

        def recorded(*args, **kwargs):
            seen.append(gc.isenabled())
            return original(*args, **kwargs)

        monkeypatch.setattr(errandlab.scoring, "aggregate_scorecard", recorded)
        with _collector(True):
            assert main(["score", "--log", str(log)]) == 0
            assert gc.isenabled()
        assert seen == [False]

    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
    @pytest.mark.parametrize("outcome", ["exit 0", "exit 4", "exit 3", "crash"])
    def test_main_leaves_the_collector_as_the_caller_had_it(
            self, log, tmp_path, monkeypatch, capsys, enabled, outcome):
        if outcome == "exit 4":  # an ErrandlabError: a truncated log
            log.write_bytes(log.read_bytes()[:-200])
        elif outcome == "exit 3":  # an OSError: no such file
            log = tmp_path / "absent.ndjson"
        elif outcome == "crash":
            def crash(*args, **kwargs):
                raise RuntimeError("unexpected")
            monkeypatch.setattr(errandlab.scoring, "aggregate_scorecard", crash)
        with _collector(enabled):
            if outcome == "crash":
                with pytest.raises(RuntimeError, match="unexpected"):
                    main(["score", "--log", str(log)])
            else:
                assert main(["score", "--log", str(log)]) == int(outcome[-1])
            assert gc.isenabled() is enabled

    @staticmethod
    def _no_garbage_argvs(directory):
        """(argv, exit code) of every command and of its error exits."""
        argvs = _command_argvs(directory)
        out = ["--out", str(directory / "out")]
        rejected = directory / "rejected.ndjson"
        rejected.write_bytes((directory / "session.ndjson").read_bytes()[:-200])
        bad_config = directory / "config.json"
        bad_config.write_text("[]\n")
        malformed = directory / "malformed.csv"
        malformed.write_text("participant_id\np1\n")
        compare = [*argvs["vrnq compare"], *out, "--direction"]
        return {
            "simulate text": ([*argvs["simulate"][:-1], "3", *out], 0),
            "simulate json": ([*argvs["simulate"][:-1], "3", *out, "--format", "json"], 0),
            "score accepted": ([*argvs["score"], *out], 0),
            "score rejected": (["score", "--log", str(rejected)], 4),
            "vrnq score": ([*argvs["vrnq score"], *out], 0),
            "vrnq compare less": ([*compare, "less"], 0),
            "vrnq compare greater": ([*compare, "greater"], 0),
            "vrnq compare two-sided": ([*compare, "two-sided"], 0),
            "exit 2": ([*argvs["score"], "--config", str(bad_config)], 2),
            "exit 3": (["score", "--log", str(directory / "absent.ndjson")], 3),
            "exit 5": (["vrnq", "score", "--responses", str(malformed)], 5),
        }

    @pytest.mark.parametrize("case", [
        "simulate text", "simulate json", "score accepted", "score rejected",
        "vrnq score", "vrnq compare less", "vrnq compare greater",
        "vrnq compare two-sided", "exit 2", "exit 3", "exit 5"])
    def test_no_command_leaves_cyclic_garbage(self, tmp_path, capsys, case):
        """A command builds no reference cycle: all it allocates is freed by
        reference counting alone.  This is the premise of running commands
        with the collector paused.  It is what keeps a 100,000-session cohort
        from growing memory while the collector is paused; a change that makes
        a command build cycles fails here."""
        argv, code = self._no_garbage_argvs(tmp_path)[case]
        assert main(argv) == code  # loads the command's imports
        gc.collect()
        with _collector(False):
            assert main(argv) == code
            assert gc.collect() == 0

    def test_text_simulate_frees_each_scorecard_before_the_next_session(
            self, tmp_path, monkeypatch, capsys):
        # only --format json prints the scorecards; text output keeps none
        cards, alive = [], []
        original = errandlab.scoring.score_session

        def recorded(*args, **kwargs):
            alive.append([ref() is not None for ref in cards])
            card = original(*args, **kwargs)
            cards.append(weakref.ref(card))
            return card

        monkeypatch.setattr(errandlab.scoring, "score_session", recorded)
        assert main(["simulate", "--seed", "1", "--cohort", "3",
                     "--out", str(tmp_path / "run")]) == 0
        # the last card is still bound while the next session is simulated
        assert alive == [[], [True], [False, True]]

    def test_scoring_a_long_log_starts_no_collection(self, tmp_path, capsys):
        log = _long_log(tmp_path / "long.ndjson", 8_000)
        generations = []

        def counted(phase, info):
            if phase == "start":
                generations.append(info["generation"])

        gc.collect()  # every generation's count starts from zero
        gc.callbacks.append(counted)
        try:
            with _collector(True):
                assert main(["score", "--log", str(log), "--format", "json"]) == 0
        finally:
            gc.callbacks.remove(counted)
        # the restored collector may run one young collection on the way out
        assert generations in ([], [0]), generations


def _subprocess_env():
    """The environment with the tested errandlab first on PYTHONPATH."""
    src = os.path.dirname(os.path.dirname(errandlab.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def _modules_after(code):
    """Every module a fresh interpreter has loaded after running ``code``."""
    result = subprocess.run(
        [sys.executable, "-c", code + "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))"],
        capture_output=True, text=True, env=_subprocess_env())
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout)


def _heavy_modules_after(code):
    """The scipy, numpy and errandlab.bayes modules loaded after ``code``."""
    return [m for m in _modules_after(code)
            if m.partition(".")[0] in ("scipy", "numpy") or m == "errandlab.bayes"]


def _errandlab_modules_after(code):
    """The errandlab package and submodules loaded after ``code``."""
    return [m for m in _modules_after(code) if m.partition(".")[0] == "errandlab"]


# Runs one argv through errandlab.cli.main with its stdout discarded.
_MAIN = """
import contextlib, io
from errandlab.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    assert main({argv!r}) == 0
"""


@functools.cache
def _interpreters() -> dict[str, str]:
    """One working interpreter per version of python3.10 to 3.13, found on
    PATH or under pyenv's versions directory: version -> path."""
    versions = Path(os.environ.get("PYENV_ROOT", Path.home() / ".pyenv")) / "versions"
    found = {}
    for minor in range(10, 14):
        name = f"python3.{minor}"
        for path in filter(None, [shutil.which(name),
                                  *map(str, sorted(versions.glob(f"3.{minor}.*/bin/{name}")))]):
            probe = subprocess.run([path, "-c", "import sys; print(sys.version_info[:2])"],
                                   capture_output=True, text=True)
            if probe.returncode == 0 and probe.stdout.strip() == f"(3, {minor})":
                found[f"3.{minor}"] = path
                break
    return found


# Saves the default config and profile under o/, as test_golden pins them,
# and runs `vrnq score` of the CSV named on the command line through main:
# its text and --format json output go to o/, its --out manifest to o/vrnq/.
_SAVE_DEFAULTS = """
import contextlib, io, sys
from errandlab.cli import main
from errandlab.config import default_config, save_config
from errandlab.simulate import default_profile, save_profile
save_config(default_config(), "o/config.json")
save_profile(default_profile(), "o/profile.json")
for name, options in (("text", []), ("json", ["--format", "json", "--out", "o/vrnq"])):
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert main(["vrnq", "score", "--responses", sys.argv[1], *options]) == 0
    with open(f"o/vrnq_score.{name}", "wb") as handle:
        handle.write(out.getvalue().encode("utf-8"))
"""


def test_simulate_writes_the_same_bytes_on_every_interpreter(tmp_path):
    # the simulator draws from random.random() alone, whose stream Python
    # keeps across versions; none of these interpreters needs numpy.  The
    # saved default config and profile and `vrnq score`'s outputs are
    # compared too
    interpreters = _interpreters()
    if len(interpreters) < 2:
        pytest.skip(f"fewer than two of python3.10-3.13 found: {sorted(interpreters)}")
    responses = _cohort_csv(tmp_path / "cohort.csv", {"p1": 100, "p2": 90, "p3": 37})
    env = {**_subprocess_env(), "PYTHONDONTWRITEBYTECODE": "1"}
    outputs = {}
    for version, path in interpreters.items():
        run = tmp_path / version
        run.mkdir()
        result = subprocess.run(
            [path, "-m", "errandlab", "simulate", "--seed", "1", "--cohort", "2",
             "--format", "json", "--out", "o"],
            capture_output=True, cwd=run, env=env)
        assert result.returncode == 0, (version, result.stderr.decode())
        saved = subprocess.run([path, "-c", _SAVE_DEFAULTS, str(responses)],
                               capture_output=True, cwd=run, env=env)
        assert saved.returncode == 0, (version, saved.stderr.decode())
        outputs[version] = (result.stdout, {str(p.relative_to(run)): p.read_bytes()
                                            for p in sorted((run / "o").rglob("*"))
                                            if p.is_file()})
    first, *rest = interpreters
    assert {"o/config.json", "o/profile.json", "o/vrnq_score.text", "o/vrnq_score.json",
            "o/vrnq/manifest.json"} <= set(outputs[first][1])
    for version in rest:
        assert outputs[version] == outputs[first], f"{version} differs from {first}"
    print("ran under", ", ".join(f"{v} ({p})" for v, p in interpreters.items()))


# Scores each log named on the command line as `score --format json` does, in
# one process: exit code, stdout and the error: lines of each, as JSON.
_SCORE_EACH = """
import contextlib, io, json, sys
from errandlab.cli import main
results = []
for path in sys.argv[1:]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["score", "--log", path, "--format", "json"])
    errors = [line for line in err.getvalue().splitlines() if line.startswith("error:")]
    results.append([code, out.getvalue(), errors])
print(json.dumps(results))
"""


def _corrupt_logs() -> dict[str, bytes]:
    """One log per rejection family, each made from the seed-1 default log."""
    header, *events = golden_bytes("default", 1).decode("utf-8").split("\n")[:-1]
    first = json.loads(events[0])
    late = max(i for i, line in enumerate(events) if '"payload":{},' in line)
    assert sum(len(line) + 1 for line in events[:late]) > errandlab.sessionlog._BLOCK_CHARS

    def log(*lines: str) -> bytes:
        return "".join(line + "\n" for line in lines).encode("utf-8")

    return {
        "not_utf8": log(header, *events).replace(b"Scene", b"\xffcene", 1),
        "invalid_json": log(header, events[0][:-1], *events[1:]),
        "unknown_scene": log(header, events[0].replace(
            f'"scene":{first["scene"]},', '"scene":23,'), *events[1:]),
        # the last empty-payload line, in a later block than the first
        "late_unknown_scene": log(header, *events[:late], re.sub(
            r'"scene":[0-9]+,', '"scene":23,', events[late]), *events[late + 1:]),
        "schema_version": log(header.replace('"version":1', '"version":2'), *events),
        "out_of_order": log(header, events[1], events[0], *events[2:]),
        "engine": log(header, *events[1:]),
        "incomplete": log(header, *events[:len(events) // 2]),
    }


def test_score_reads_every_log_alike_on_every_interpreter(tmp_path):
    # the reader, replay and scoring give the same bytes and the same
    # error: lines under each interpreter, for accepted and refused logs
    interpreters = _interpreters()
    if len(interpreters) < 2:
        pytest.skip(f"fewer than two of python3.10-3.13 found: {sorted(interpreters)}")
    corrupt = _corrupt_logs()
    for name, data in corrupt.items():
        (tmp_path / f"{name}.ndjson").write_bytes(data)
    paths = [*(str(golden_path(*session)) for session in GOLDEN_SESSIONS),
             *(str(tmp_path / f"{name}.ndjson") for name in corrupt)]
    env = {**_subprocess_env(), "PYTHONDONTWRITEBYTECODE": "1"}
    outputs = {}
    for version, path in interpreters.items():
        result = subprocess.run([path, "-c", _SCORE_EACH, *paths],
                                capture_output=True, text=True, env=env)
        assert result.returncode == 0, (version, result.stderr)
        outputs[version] = json.loads(result.stdout)
    first, *rest = interpreters
    codes = [code for code, _, _ in outputs[first]]
    assert codes == [0] * len(GOLDEN_SESSIONS) + [4] * len(corrupt)
    assert all(len(errors) == (code != 0) for code, _, errors in outputs[first])
    for version in rest:
        assert outputs[version] == outputs[first], f"{version} differs from {first}"
    # the late fault is named by its own line, as the line loop counts it
    late = corrupt["late_unknown_scene"].split(b"\n")
    number = next(n for n, line in enumerate(late, start=1) if b'"scene":23,' in line)
    _, _, errors = outputs[first][len(GOLDEN_SESSIONS) + list(corrupt).index(
        "late_unknown_scene")]
    assert errors == [f"error: line {number}: unknown scene id 23"], errors
    print("ran under", ", ".join(f"{v} ({p})" for v, p in interpreters.items()))


_LONG = "x" * 100_000


class TestUsageErrors:
    """A usage error quotes the value it refuses as the package's other
    faults do: whole if short, else cut to jsonio._QUOTE_MAX characters."""

    @pytest.mark.parametrize("argv", [
        ["simulate", "--seed", _LONG, "--out", "o"],
        ["simulate", "--seed", "1", "--out", "o", "--cohort", _LONG],
        ["simulate", "--seed", "1", "--out", "o", "--cohort", "-" + "9" * 4000],
        ["score", "--log", "f", "--format", _LONG],
        ["vrnq", "score", "--responses", "f", "--tier", _LONG],
        ["vrnq", "compare", "--baseline", "a", "--revised", "b", "--prior-scale", _LONG],
        ["vrnq", "compare", "--baseline", "a", "--revised", "b", "--direction", _LONG],
        ["vrnq", _LONG],
        [_LONG],
    ], ids=["seed", "cohort", "cohort-negative", "format", "tier", "prior-scale",
            "direction", "vrnq-command", "command"])
    def test_a_long_value_gives_a_short_line(self, capsys, argv):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        last = capsys.readouterr().err.splitlines()[-1]
        assert " characters)" in last
        assert len(last.encode("utf-8")) < 200

    @pytest.mark.parametrize("argv, line", [
        (["simulate", "--seed", "abc", "--out", "o"],
         "errandlab simulate: error: argument --seed: invalid int value: 'abc'"),
        (["simulate", "--seed", "1", "--out", "o", "--cohort", "-2"],
         "errandlab simulate: error: argument --cohort: must be at least 1, not -2"),
        (["score", "--log", "f", "--format", "yaml"],
         "errandlab score: error: argument --format: invalid choice: 'yaml' "
         "(choose from 'text', 'json')"),
        (["vrnq", "compare", "--baseline", "a", "--revised", "b", "--prior-scale", "abc"],
         "errandlab vrnq compare: error: argument --prior-scale: invalid float value: 'abc'"),
        (["bogus"], "errandlab: error: argument command: invalid choice: 'bogus' "
                    "(choose from 'simulate', 'score', 'vrnq')"),
    ], ids=["seed", "cohort", "format", "prior-scale", "command"])
    def test_a_short_value_is_quoted_whole(self, capsys, argv, line):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1] == line


class TestEntryPoints:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert "errandlab" in capsys.readouterr().out

    def test_no_arguments_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 2

    def test_import_leaves_scipy_stats_unloaded(self):
        assert _heavy_modules_after("import errandlab.cli") == []

    def test_bayes_import_leaves_scipy_integrate_unloaded(self):
        # the noncentral t density too, on either side of its noncentrality
        loaded = _heavy_modules_after(
            "from errandlab.bayes import nct_logpdf\n"
            "nct_logpdf(-4.0, 10.0, 12.0)\nnct_logpdf(4.0, 10.0, 12.0)")
        assert "errandlab.bayes" in loaded
        assert [m for m in loaded if m.startswith("scipy.integrate")] == []

    def test_package_import_leaves_scipy_and_numpy_unloaded(self):
        assert _heavy_modules_after("import errandlab") == []

    def test_only_bayes_imports_numpy_or_scipy(self):
        # read from the source, so that an import inside a function counts;
        # of scipy, bayes imports stdtr alone
        importers = set()
        scipy_imports = []
        for path in Path(errandlab.__file__).parent.glob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and not node.level:
                    names = [node.module]
                else:
                    continue
                if any(name.partition(".")[0] in ("numpy", "scipy") for name in names):
                    importers.add(path.name)
                if any(name.partition(".")[0] == "scipy" for name in names):
                    scipy_imports.append(ast.unparse(node))
        assert importers == {"bayes.py"}
        assert scipy_imports == ["from scipy.special import stdtr"]

    def test_only_jsonio_builds_a_json_encoder(self):
        # read from the source: one encoder writes the canonical JSON of the
        # session log and config_hash, and a second could drift from it
        namers = set()
        for path in Path(errandlab.__file__).parent.glob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                name = (node.id if isinstance(node, ast.Name)
                        else node.attr if isinstance(node, ast.Attribute)
                        else node.name if isinstance(node, ast.alias) else None)
                if name in ("JSONEncoder", "c_make_encoder"):
                    namers.add(path.name)
        assert namers == {"jsonio.py"}

    def test_only_jsonio_tells_an_integer_from_a_bool(self):
        # read from the source: jsonio._is_int is the one integer test, so
        # no other module refuses a bool or compares a type with int itself
        # (a chain of several type() operands and a bool's own type test are
        # other rules)
        def is_name(node, name):
            return isinstance(node, ast.Name) and node.id == name

        tests = []
        for path in Path(errandlab.__file__).parent.glob("*.py"):
            if path.name == "jsonio.py":
                continue
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Call) and is_name(node.func, "isinstance"):
                    classes = node.args[1]
                    found = any(is_name(c, "bool") for c in getattr(classes, "elts", [classes]))
                elif isinstance(node, ast.Compare) and len(node.comparators) == 1:
                    pair = (node.left, node.comparators[0])
                    found = (any(isinstance(o, ast.Call) and is_name(o.func, "type") for o in pair)
                             and any(is_name(o, "int") for o in pair))
                else:
                    continue
                if found:
                    tests.append(f"{path.name}:{node.lineno}: {ast.unparse(node)}")
        assert tests == []

    def test_score_leaves_scipy_and_numpy_unloaded(self, tmp_path):
        log_path = tmp_path / "session.ndjson"
        log_path.write_bytes(serialize_log(simulate_session(default_profile(), 2)))
        assert _heavy_modules_after(
            _MAIN.format(argv=["score", "--log", str(log_path)])) == []

    def test_simulate_cohort_process_loads_no_numpy(self, tmp_path):
        # the process itself is under test: -X importtime names every module
        # that `python -m errandlab` imports, on stderr
        result = subprocess.run(
            [sys.executable, "-X", "importtime", "-m", "errandlab", "simulate",
             "--seed", "1", "--cohort", "5", "--out", str(tmp_path / "run")],
            capture_output=True, text=True, env=_subprocess_env())
        assert result.returncode == 0, result.stderr
        imported = {line.rpartition("|")[2].strip() for line in result.stderr.splitlines()
                    if line.startswith("import time:")}
        assert "errandlab.simulate" in imported
        assert {m for m in imported if m.partition(".")[0] in ("numpy", "scipy")} == set()
        assert len(list((tmp_path / "run").glob("*.ndjson"))) == 5

    def test_package_import_loads_no_submodule(self):
        assert _errandlab_modules_after("import errandlab") == ["errandlab"]

    def test_cli_import_loads_only_the_json_leaf(self):
        assert _errandlab_modules_after(
            "import errandlab.cli\nerrandlab.cli.build_parser()"
        ) == ["errandlab", "errandlab.cli", "errandlab.jsonio"]

    @pytest.mark.parametrize("command", ["score", "simulate"])
    def test_session_commands_load_config_and_scenario(self, tmp_path, command):
        log_path = tmp_path / "session.ndjson"
        log_path.write_bytes(serialize_log(simulate_session(default_profile(), 2)))
        argv = (["score", "--log", str(log_path)] if command == "score" else
                ["simulate", "--seed", "2", "--out", str(tmp_path / "run")])
        loaded = _modules_after(_MAIN.format(argv=argv))
        assert {"errandlab.config", "errandlab.scenario"} <= set(loaded)

    def test_score_loads_no_simulator_or_questionnaire_modules(self, tmp_path):
        log_path = tmp_path / "session.ndjson"
        log_path.write_bytes(serialize_log(simulate_session(default_profile(), 2)))
        loaded = _modules_after(_MAIN.format(argv=["score", "--log", str(log_path)]))
        assert "errandlab.scoring" in loaded
        assert set(loaded) & {"errandlab.simulate", "errandlab.vrnq",
                              "statistics", "csv"} == set()

    def test_vrnq_score_loads_no_session_modules(self, tmp_path):
        responses = _cohort_csv(tmp_path / "cohort.csv", {"p1": 100, "p2": 90})
        loaded = _modules_after(
            _MAIN.format(argv=["vrnq", "score", "--responses", str(responses)]))
        assert "errandlab.vrnq" in loaded
        assert set(loaded) & {"errandlab.config", "errandlab.scenario",
                              "errandlab.scoring", "errandlab.sessionlog",
                              "errandlab.simulate", "logging"} == set()
        # numpy and scipy are imported by bayes alone
        assert set(loaded) & {"numpy", "scipy", "errandlab.bayes"} == set()

    def test_vrnq_compare_loads_no_session_modules(self, tmp_path):
        ids = [f"p{i:02d}" for i in range(12)]
        baseline = _cohort_csv(tmp_path / "a.csv", {p: 60 + 3 * i for i, p in enumerate(ids)})
        revised = _cohort_csv(tmp_path / "b.csv",
                              {p: 70 + 3 * i + i % 4 for i, p in enumerate(ids)})
        loaded = _modules_after(_MAIN.format(argv=[
            "vrnq", "compare", "--baseline", str(baseline), "--revised", str(revised)]))
        assert {"errandlab.vrnq", "errandlab.bayes"} <= set(loaded)
        assert set(loaded) & {"errandlab.config", "errandlab.scenario",
                              "errandlab.scoring", "errandlab.sessionlog",
                              "errandlab.simulate"} == set()

    def test_module_invocation(self, tmp_path):
        result = subprocess.run(
            [sys.executable, "-m", "errandlab", "simulate", "--seed", "4",
             "--out", str(tmp_path / "run")],
            capture_output=True, text=True, env=_subprocess_env())
        assert result.returncode == 0
        assert (tmp_path / "run" / "session.ndjson").exists()

    def test_a_closed_output_pipe_exits_141_without_a_message(self):
        # the reader closes its end before the run writes anything
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            result = subprocess.run(
                [sys.executable, "-m", "errandlab", "score", "--log",
                 str(golden_path("default", 1))],
                stdout=write_end, stderr=subprocess.PIPE, text=True, env=_subprocess_env())
        finally:
            os.close(write_end)
        assert (result.returncode, result.stderr) == (141, "")



# Runs each argv of a JSON list through errandlab.cli.main, all in this one
# process, and prints [exit code, stdout, stderr, ArgumentParsers built] for
# each call.
_RUN_CALLS = """
import argparse, contextlib, io, json, sys
from errandlab.cli import main
built = []
init = argparse.ArgumentParser.__init__
def counted(self, *args, **kwargs):
    built.append(1)
    init(self, *args, **kwargs)
argparse.ArgumentParser.__init__ = counted
results = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    before = len(built)
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    results.append([code, out.getvalue(), err.getvalue(), len(built) - before])
print(json.dumps(results))
"""


def _run_calls(calls):
    result = subprocess.run([sys.executable, "-c", _RUN_CALLS, json.dumps(calls)],
                            capture_output=True, text=True, env=_subprocess_env())
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout)


class TestParserReuse:
    def test_main_builds_its_parser_once_per_process(self, tmp_path):
        score = ["score", "--log", str(tmp_path / "absent.ndjson")]
        results = _run_calls([score, score])
        assert [(code, built) for code, _, _, built in results] == [(3, 6), (3, 0)]

    def test_each_argv_runs_as_after_one_root_parse(self, tmp_path, capsys):
        # main hands what follows the command words to that command's own
        # parser; every argv must end as one root parse_args call ends it
        def root_main(argv):
            args = build_parser().parse_args(argv)
            return args.func(args)

        def outcome(run, argv):
            try:
                code = run(argv)
            except SystemExit as exc:
                code = exc.code
            captured = capsys.readouterr()
            return code, captured.out, captured.err

        run = str(tmp_path / "run")
        log = os.path.join(run, "session.ndjson")
        ids = [f"p{i:02d}" for i in range(12)]
        baseline = str(_cohort_csv(tmp_path / "a.csv",
                                   {p: 60 + 3 * i for i, p in enumerate(ids)}))
        revised = str(_cohort_csv(tmp_path / "b.csv",
                                  {p: 70 + 3 * i + i % 4 for i, p in enumerate(ids)}))
        compare = ["vrnq", "compare", "--baseline", baseline, "--revised", revised]
        simulate = ["simulate", "--seed", "7", "--out", run]
        corpus = [
            # a valid call of every command, with the --opt=value form
            [*simulate, "--cohort", "2"],
            ["simulate", "--seed=8", f"--out={run}", "--format=json"],
            ["score", "--log", log, "--format", "json"],
            ["score", f"--log={log}"],
            ["vrnq", "score", "--responses", baseline, "--tier", "minimum"],
            ["vrnq", "score", f"--responses={baseline}", "--format=json"],
            [*compare, "--direction=two-sided", "--prior-scale", "1.5"],
            [*compare, "--format", "json"],
            # abbreviations, one of them ambiguous
            ["vrnq", "score", "--resp", baseline],
            [*compare[:2], "--base", baseline, "--rev", revised, "--prior", "2"],
            ["simulate", "--co", "2", "--seed", "1", "--out", run],
            # help at the root and on each command
            ["-h"], ["simulate", "-h"], ["score", "--help"], ["vrnq", "-h"],
            ["vrnq", "score", "-h"], [*compare, "-h"],
            # --version before and after a command
            ["--version"], ["--version", "score", "--log", log],
            ["score", "--log", log, "--version"], ["vrnq", "score", "--version"],
            # an unknown option, a missing required option, a bad choice
            ["score", "--log", log, "--bogus"], ["score", "--bogus"],
            ["vrnq", "compare", "--baseline", baseline],
            [*compare, "--direction", "sideways"],
            # values their own types reject
            [*simulate, "--cohort", "0"], [*simulate, "--cohort", "x"],
            [*compare, "--prior-scale", "nan"],
            ["simulate", "--seed", "x", "--out", run],
            # stray positionals and separators
            ["score", "--log", log, "extra"], ["vrnq", "score", "stray"],
            ["vrnq", "score", "--responses", baseline, "--"],
            ["--", "score", "--log", log],
            # no command, an unknown one, and an empty argv
            ["vrnq"], ["vrnq", "bogus"], ["bogus"], ["scores", "--log", log], [],
        ]
        for argv in corpus:
            assert outcome(main, argv) == outcome(root_main, argv), argv

    def test_each_call_matches_the_same_call_alone(self, tmp_path):
        ids = [f"p{i:02d}" for i in range(12)]
        baseline = str(_cohort_csv(tmp_path / "a.csv",
                                   {p: 60 + 3 * i for i, p in enumerate(ids)}))
        revised = str(_cohort_csv(tmp_path / "b.csv",
                                  {p: 70 + 3 * i + i % 4 for i, p in enumerate(ids)}))
        run = str(tmp_path / "run")
        compare = ["vrnq", "compare", "--baseline", baseline, "--revised", revised]
        bad_header = tmp_path / "header.csv"
        bad_header.write_text("id,q1\n")
        calls = [
            ["score"],
            ["--version"],
            [*compare, "--direction", "sideways"],
            ["simulate", "--seed", "7", "--out", run],
            ["score", "--log", os.path.join(run, "session.ndjson"), "--format", "json"],
            ["vrnq", "score", "--responses", baseline],
            [*compare, "--direction", "two-sided", "--format", "json"],
            ["score", "--log", baseline],
            ["vrnq", "score", "--responses", str(bad_header)],
        ]
        in_sequence = [result[:3] for result in _run_calls(calls)]
        assert [code for code, _, _ in in_sequence] == [2, 0, 2, 0, 0, 0, 0, 4, 5]
        assert in_sequence == [_run_calls([argv])[0][:3] for argv in calls]


_DEEP = "[" * 100_000 + "]" * 100_000
# more digits than Python converts from a string by default (4,300)
_LONG_INT = "1" * 5_000

# (option, content of the file it names, exit code): every case reads one bad file
_BAD_INPUT_FILES = [
    pytest.param("--profile", "{not json", 2, id="profile-invalid-json"),
    pytest.param("--profile", '{"bogus": 1}', 2, id="profile-unknown-field"),
    pytest.param("--profile", '{"notes_use_prob": 2}', 2, id="profile-probability-2"),
    pytest.param("--profile", "[1, 2]", 2, id="profile-array"),
    pytest.param("--profile", '{"latency_mean_ms": "x"}', 2, id="profile-string-number"),
    pytest.param("--config", b'{"session_target_s": "\xff"}', 2, id="config-not-utf8"),
    pytest.param("--config", _DEEP, 2, id="config-nested-deep"),
    pytest.param("--domains", _DEEP, 2, id="domains-nested-deep"),
    pytest.param("--config", '{"normative_route_sd_s": NaN}', 2, id="config-nan"),
    pytest.param("--config", '{"visual_targets_per_side": "8"}', 2,
                 id="config-string-count"),
    pytest.param("--config", json.dumps({"band_points": {
        **errandlab.config.DEFAULT_BAND_POINTS, "OnTime": "x"}}), 2,
                 id="config-string-band-points"),
    pytest.param("--responses", (",".join(CSV_COLUMNS) + "\np\xff,").encode("latin-1")
                 + b",".join([b"4"] * 20) + b"\n", 5, id="responses-not-utf8"),
    pytest.param("--domains", json.dumps({
        **errandlab.vrnq.DEFAULT_DOMAIN_MAPPING, "UserExperience": 5}), 2,
                 id="domains-items-not-a-list"),
    pytest.param("--config", '{"normative_route_sd_s": 1e-320}', 2,
                 id="config-sd-overflows-time-z"),
    pytest.param("--config", json.dumps({"collection_targets": ["red_book"] * 6}), 2,
                 id="config-repeated-collection-target"),
    pytest.param("--config", '{"session_target_s": 1e308}', 2,
                 id="config-session-target-overflows-clock"),
    pytest.param("--profile", '{"latency_sd_ms": true}', 2, id="profile-bool-number"),
    pytest.param("--profile", '{"pm_hit_prob": ["short", "medium", "long"]}', 2,
                 id="profile-pm-hit-prob-not-a-mapping"),
    pytest.param("--profile", '{"latency_mean_ms": 1e308}', 2,
                 id="profile-latency-overflows-clock"),
    pytest.param("--profile", '{"cooking_timing_sd_s": 1e308}', 2,
                 id="profile-cooking-sd-overflows-cook-time"),
    pytest.param("--config", f'{{"visual_targets_per_side": {_LONG_INT}}}', 2,
                 id="config-int-past-digit-limit"),
    pytest.param("--profile", f'{{"planning_extra_units": {_LONG_INT}}}', 2,
                 id="profile-int-past-digit-limit"),
    pytest.param("--domains", f'{{"VRISE": [{_LONG_INT}]}}', 2,
                 id="domains-int-past-digit-limit"),
    pytest.param("--responses", ",".join(CSV_COLUMNS) + "\n" + "p" * 140_000
                 + ",4" * 20 + "\n", 5, id="responses-field-past-csv-limit"),
    pytest.param("--responses", ",".join(CSV_COLUMNS) + "\np9" + ",9" + ",4" * 19 + "\n", 5,
                 id="responses-rating-outside-scale"),
]


class TestBadInputFiles:
    @staticmethod
    def _argv(option, path, tmp_path):
        """A command whose one bad input is ``path``, passed as ``option``."""
        if option in ("--profile", "--config"):
            return ["simulate", "--seed", "1", option, path,
                    "--out", str(tmp_path / "run")]
        if option == "--responses":
            return ["vrnq", "score", "--responses", path]
        good = _cohort_csv(tmp_path / "cohort.csv", {"p1": 100, "p2": 90})
        return ["vrnq", "score", "--responses", str(good), option, path]

    @staticmethod
    def _bad_file(tmp_path, content):
        bad = tmp_path / "bad_input"
        bad.write_bytes(content if isinstance(content, bytes) else content.encode())
        return bad

    # in-process, an exception that escapes main fails the test, as a
    # traceback on stderr would
    @pytest.mark.parametrize("option, content, code", _BAD_INPUT_FILES)
    def test_one_error_line_naming_the_file(self, tmp_path, capsys, option, content, code):
        bad = self._bad_file(tmp_path, content)
        assert main(self._argv(option, str(bad), tmp_path)) == code
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith(f"error: {bad}: ")

    # a UTF-8 byte-order mark before a good document is skipped, as the
    # cohort reader skips one before a CSV
    @pytest.mark.parametrize("option, content", [
        ("--config", '{"session_target_s": 1800.5}'),
        ("--profile", '{"notes_use_prob": 0.5}'),
        ("--domains", json.dumps(errandlab.vrnq.DEFAULT_DOMAIN_MAPPING)),
    ], ids=["config-bom", "profile-bom", "domains-bom"])
    def test_a_leading_byte_order_mark_is_skipped(self, tmp_path, capsys, option, content):
        runs = []
        for data in (content.encode(), b"\xef\xbb\xbf" + content.encode()):
            path = self._bad_file(tmp_path, data)
            runs.append((main(self._argv(option, str(path), tmp_path)), capsys.readouterr()))
        assert runs[1] == runs[0] and runs[0][0] == 0

    def test_one_error_line_across_the_process_boundary(self, tmp_path):
        option, content, code = _BAD_INPUT_FILES[0].values
        bad = self._bad_file(tmp_path, content)
        result = subprocess.run(
            [sys.executable, "-m", "errandlab", *self._argv(option, str(bad), tmp_path)],
            capture_output=True, text=True, env=_subprocess_env())
        assert result.returncode == code, result.stderr
        assert "Traceback" not in result.stderr
        [line] = result.stderr.splitlines()
        assert line.startswith(f"error: {bad}: ")


# (error a command raises, exit code, error line): each family's exit_code,
# and an OSError's I/O code
_ERROR_EXITS = [
    pytest.param(errandlab.jsonio.ConfigError("bad dial"), 2, "error: bad dial",
                 id="ConfigError"),
    pytest.param(errandlab.scenario.OutOfOrderEvent("late event"), 4,
                 "error: late event", id="EngineError"),
    pytest.param(errandlab.sessionlog.ParseError("line 3: not JSON"), 4,
                 "error: line 3: not JSON", id="LogError"),
    pytest.param(errandlab.vrnq.VrnqError("p9: bad row"), 5, "error: p9: bad row",
                 id="VrnqError"),
    pytest.param(IntegrationFailure("no convergence"), 1, "error: no convergence",
                 id="IntegrationFailure"),
    pytest.param(FileNotFoundError(errno.ENOENT, "No such file or directory", "gone.csv"),
                 3, "error: gone.csv: No such file or directory", id="OSError"),
]


class TestExitCodeContract:
    @staticmethod
    def _run_raising(monkeypatch, tmp_path, error):
        def failing(*args, **kwargs):
            raise error

        monkeypatch.setattr(errandlab.vrnq, "_score_cohort", failing)
        return main(["vrnq", "score", "--responses", str(tmp_path / "cohort.csv")])

    @pytest.mark.parametrize("error, code, line", _ERROR_EXITS)
    def test_each_error_exits_with_its_code(self, monkeypatch, tmp_path, capsys,
                                            error, code, line):
        assert self._run_raising(monkeypatch, tmp_path, error) == code
        captured = capsys.readouterr()
        assert captured.err == line + "\n"
        assert captured.out == ""

    def test_a_plain_value_error_propagates(self, monkeypatch, tmp_path):
        with pytest.raises(ValueError, match="^not an errandlab error$"):
            self._run_raising(monkeypatch, tmp_path, ValueError("not an errandlab error"))

    def test_every_error_family_has_an_exit_code(self):
        for module in pkgutil.iter_modules(errandlab.__path__):
            if module.name != "__main__":
                importlib.import_module(f"errandlab.{module.name}")
        found = errandlab.jsonio.ErrandlabError.__subclasses__()
        for cls in found:  # the walk appends what it finds
            found += cls.__subclasses__()
        families = [cls for cls in found if cls.__module__.startswith("errandlab.")]
        assert {cls.__name__ for cls in families} >= {
            "ConfigError", "EngineError", "LogError", "VrnqError", "IntegrationFailure"}
        for cls in families:
            assert cls.exit_code in {1, 2, 4, 5}, cls


_BAYES_NAMES = (
    "BayesComparison", "DegenerateSample", "Direction", "EvidenceBand",
    "IntegrationFailure", "PairedSample", "TTestResult", "bf10_directional",
    "classify_evidence", "compare_paired", "compare_paired_columns",
    "evidence_stars", "nct_logpdf", "paired_t",
)


class TestLazyBayesExports:
    @pytest.mark.parametrize("name", _BAYES_NAMES)
    def test_name_resolves_to_the_bayes_object(self, name):
        assert getattr(errandlab, name) is getattr(errandlab.bayes, name)
        assert name in dir(errandlab)

    def test_first_use_imports_bayes(self):
        loaded = _heavy_modules_after(
            "import errandlab\n"
            "assert errandlab.bayes.Direction is errandlab.Direction\n")
        assert "errandlab.bayes" in loaded

    def test_unknown_attribute_raises(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            errandlab.no_such_name


# Every public name of the package.  A name added or removed here is a
# deliberate change to the API.
_PUBLIC_NAMES = (
    "BayesComparison", "CohortAggregate", "ConfigError", "CutoffVerdict",
    "DegenerateSample", "Direction", "DomainMapping", "EngineError", "EventKind",
    "EvidenceBand", "GateResult", "IncompleteSession", "IntegrationFailure",
    "InvalidEvent", "LengthMismatch", "LogError", "MalformedLog", "NotAGatedScene",
    "OutOfOrderEvent", "PairedSample", "ParseError", "ParticipantProfile",
    "PracticePassed", "PracticeRetry", "PromptShown", "SceneTransition",
    "ScoringConfig", "SessionComplete", "SessionEvent", "SessionLog",
    "SessionState", "TTestResult", "TaskScorecard", "Telemetry", "VrnqError",
    "VrnqResponseSet", "VrnqScores", "WrongSceneEvent", "advance",
    "aggregate_cohort", "aggregate_scorecard", "append_event", "bf10_directional",
    "check_cutoffs", "classify_evidence", "compare_paired",
    "compare_paired_columns", "config_from_dict", "config_hash", "config_to_dict",
    "default_config", "default_profile", "derive_telemetry", "deserialize_log",
    "evidence_stars", "export_report",
    "initial_state", "load_config", "load_profile", "log_from_events",
    "median_absolute_deviation", "nct_logpdf", "null_profile",
    "paired_t", "perfect_profile", "practice_gate", "read_cohort_csv", "replay",
    "save_config", "save_profile", "scene_sequence", "score_session", "score_vrnq",
    "scorecard_to_dict", "serialize_log", "simulate_cohort", "simulate_session",
    "write_cohort_csv",
)


def test_public_namespace_is_pinned():
    # submodules are attributes once imported, and are not names of the API
    public = tuple(name for name in dir(errandlab) if not name.startswith("_")
                   and not isinstance(vars(errandlab).get(name), types.ModuleType))
    assert public == _PUBLIC_NAMES


class TestLazyExports:
    @pytest.mark.parametrize("name", _PUBLIC_NAMES)
    def test_name_resolves_to_its_defining_modules_object(self, name):
        value = getattr(errandlab, name)
        home = sys.modules[value.__module__]
        assert home.__name__.startswith("errandlab.")
        assert getattr(home, name) is value

    def test_every_submodule_resolves_without_an_import(self):
        names = sorted(m.name for m in pkgutil.iter_modules(errandlab.__path__)
                       if m.name != "__main__")
        assert {"bayes", "cli", "scoring", "vrnq"} <= set(names)
        _modules_after(
            "import sys, errandlab\n"
            f"for name in {names!r}:\n"
            "    assert getattr(errandlab, name) is sys.modules['errandlab.' + name]\n")

    def test_a_name_loads_only_its_own_module(self):
        loaded = _errandlab_modules_after("from errandlab import score_vrnq")
        assert "errandlab.vrnq" in loaded
        assert "errandlab.scoring" not in loaded

    def test_config_error_loads_neither_config_nor_scenario(self):
        assert _errandlab_modules_after("from errandlab import ConfigError") == [
            "errandlab", "errandlab.jsonio"]

    def test_config_reexports_the_one_config_error(self, tmp_path, capsys):
        assert errandlab.config.ConfigError is errandlab.jsonio.ConfigError
        assert errandlab.ConfigError is errandlab.jsonio.ConfigError
        # raised in config, caught by cli through the leaf's name
        bad = tmp_path / "config.json"
        bad.write_text('{"bogus": 1}')
        log_path = tmp_path / "session.ndjson"
        log_path.write_bytes(serialize_log(simulate_session(default_profile(), 2)))
        assert main(["score", "--log", str(log_path), "--config", str(bad)]) == 2
        assert capsys.readouterr().err == f"error: {bad}: unknown config keys: ['bogus']\n"

    def test_config_reads_the_default_domain_mapping_from_vrnq(self):
        assert errandlab.config.DEFAULT_DOMAIN_MAPPING is errandlab.vrnq.DEFAULT_DOMAIN_MAPPING
        with pytest.raises(AttributeError, match="no_such_name"):
            errandlab.config.no_such_name

    def test_config_import_leaves_vrnq_unloaded(self):
        loaded = _errandlab_modules_after("import errandlab.config")
        assert "errandlab.config" in loaded
        assert "errandlab.vrnq" not in loaded


_BENCHMARKS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                           "benchmarks")


def _benchmark_names() -> list[tuple[str, str]]:
    """(module, name) of each package function that ``benchmarks/bench.py``
    traces or calls, and of each name that ``benchmarks/workloads.py``
    imports from the package, read from their source without importing it."""
    def tree(filename):
        with open(os.path.join(_BENCHMARKS, filename), encoding="utf-8") as handle:
            return ast.parse(handle.read())

    [traced] = [node.value for node in tree("bench.py").body if isinstance(node, ast.Assign)
                and [getattr(target, "id", None) for target in node.targets] == ["TRACED"]]
    names = [(f"errandlab.{module}", name) for module, name in ast.literal_eval(traced)]
    names += [("errandlab.cli", "main"), ("errandlab.cli", "build_parser")]
    names += [(node.module, alias.name) for node in ast.walk(tree("workloads.py"))
              if isinstance(node, ast.ImportFrom)
              and (node.module or "").split(".")[0] == "errandlab"
              for alias in node.names]
    return list(dict.fromkeys(names))  # each once, in the order found


@pytest.mark.parametrize("module, name", [pytest.param(module, name, id=f"{module}.{name}")
                                          for module, name in _benchmark_names()])
def test_every_name_the_benchmark_reaches_into_resolves(module, name):
    # The benchmark runs the package through these names, and
    # ``bench.py --trace 1`` wraps each TRACED one: a name that is gone
    # crashes it with AttributeError.  So a change that deletes a name
    # listed here (such as bayes.nct_logpdf and sessionlog.append_event,
    # which nothing in the package calls) waits until the benchmark stops
    # naming it.
    assert hasattr(importlib.import_module(module), name)
