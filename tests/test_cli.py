from __future__ import annotations

import argparse
import errno
import json
import os
import re
import subprocess
import sys
import types
import warnings

import pytest

import errandlab
import errandlab.bayes
import errandlab.config
import errandlab.scenario
import errandlab.scoring
import errandlab.sessionlog
import errandlab.vrnq
from errandlab.bayes import Direction, IntegrationFailure
from errandlab.cli import build_parser, main
from errandlab.config import config_hash, default_config
from errandlab.scoring import aggregate_scorecard, scorecard_to_dict
from errandlab.sessionlog import deserialize_log, serialize_log
from errandlab.simulate import default_profile, simulate_session
from errandlab.vrnq import CSV_COLUMNS, VrnqResponseSet, write_cohort_csv


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

    def test_a_config_domain_mapping_is_an_unknown_key(self, tmp_path, capsys):
        # the questionnaire partition comes only from vrnq --domains
        config = tmp_path / "config.json"
        config.write_text(json.dumps(
            {"domain_mapping": errandlab.config.DEFAULT_DOMAIN_MAPPING}))
        code = main(["simulate", "--seed", "1", "--config", str(config),
                     "--out", str(tmp_path / "run")])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: {config}: unknown config keys: ['domain_mapping']\n")
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
        assert "identical samples" in capsys.readouterr().out

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
        assert capsys.readouterr().out.count("identical samples") == 5

    def test_unmatched_ids_exit_5(self, tmp_path, capsys):
        baseline = _cohort_csv(tmp_path / "baseline.csv",
                               {"p1": 100, "p2": 104, "p3": 96})
        revised = _cohort_csv(tmp_path / "revised.csv",
                              {"p1": 100, "p2": 104, "p4": 96})
        code = main(["vrnq", "compare", "--baseline", str(baseline),
                     "--revised", str(revised)])
        assert code == 5
        assert capsys.readouterr().err.startswith("error:")

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

    def test_direction_choices_are_the_direction_values(self):
        # the parser spells the choices out so that it need not import bayes
        def subcommand(parser, name):
            action = next(a for a in parser._actions
                          if isinstance(a, argparse._SubParsersAction))
            return action.choices[name]

        compare = subcommand(subcommand(build_parser(), "vrnq"), "compare")
        direction = next(a for a in compare._actions if a.dest == "direction")
        assert tuple(direction.choices) == tuple(d.value for d in Direction)

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


class TestCallCounts:
    @pytest.mark.parametrize("fmt, scorecards", [("text", 0), ("json", 4)])
    def test_cohort_hashes_once_and_never_replays(self, tmp_path, monkeypatch,
                                                  fmt, scorecards):
        hashes = _count_calls(monkeypatch, errandlab.config, "config_hash")
        replays = _count_calls(monkeypatch, errandlab.scenario, "replay")
        dicts = _count_calls(monkeypatch, errandlab.scoring, "scorecard_to_dict")
        assert main(["simulate", "--seed", "2", "--cohort", "4", "--format", fmt,
                     "--out", str(tmp_path / "run")]) == 0
        assert (len(hashes), len(replays), len(dicts)) == (1, 0, scorecards)

    def test_score_replays_and_derives_telemetry_once(self, tmp_path, monkeypatch):
        out = tmp_path / "run"
        assert main(["simulate", "--seed", "2", "--out", str(out)]) == 0
        replays = _count_calls(monkeypatch, errandlab.scenario, "replay")
        telemetry = _count_calls(monkeypatch, errandlab.sessionlog, "derive_telemetry")
        assert main(["score", "--log", str(out / "session.ndjson")]) == 0
        assert (len(replays), len(telemetry)) == (1, 1)

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
        domains.write_text(json.dumps(errandlab.config.DEFAULT_DOMAIN_MAPPING))
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
        # the counters see what a command that does build them builds
        assert main(["vrnq", "score", "--responses", str(baseline)]) == 0
        assert len(response_sets) == len(ids)
        assert opened[2:] == [str(baseline)]

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


def _subprocess_env():
    """The environment with the tested errandlab first on PYTHONPATH."""
    src = os.path.dirname(os.path.dirname(errandlab.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def _heavy_modules_after(code):
    """The scipy, numpy and errandlab.bayes modules loaded after ``code``."""
    result = subprocess.run(
        [sys.executable, "-c", code + "\nimport json, sys\nprint(json.dumps(sorted("
         "m for m in sys.modules if m.partition('.')[0] in ('scipy', 'numpy')"
         " or m == 'errandlab.bayes')))"],
        capture_output=True, text=True, env=_subprocess_env())
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout)


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
        loaded = _heavy_modules_after("import errandlab.bayes")
        assert "errandlab.bayes" in loaded
        assert [m for m in loaded if m.startswith("scipy.integrate")] == []

    def test_package_import_leaves_scipy_and_numpy_unloaded(self):
        assert _heavy_modules_after("import errandlab") == []

    def test_score_leaves_scipy_and_numpy_unloaded(self, tmp_path):
        log_path = tmp_path / "session.ndjson"
        log_path.write_bytes(serialize_log(simulate_session(default_profile(), 2)))
        assert _heavy_modules_after(
            "import contextlib, io\n"
            "from errandlab.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert main(['score', '--log', {str(log_path)!r}]) == 0\n"
        ) == []

    def test_module_invocation(self, tmp_path):
        result = subprocess.run(
            [sys.executable, "-m", "errandlab", "simulate", "--seed", "4",
             "--out", str(tmp_path / "run")],
            capture_output=True, text=True, env=_subprocess_env())
        assert result.returncode == 0
        assert (tmp_path / "run" / "session.ndjson").exists()



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

    def test_each_call_matches_the_same_call_alone(self, tmp_path):
        ids = [f"p{i:02d}" for i in range(12)]
        baseline = str(_cohort_csv(tmp_path / "a.csv",
                                   {p: 60 + 3 * i for i, p in enumerate(ids)}))
        revised = str(_cohort_csv(tmp_path / "b.csv",
                                  {p: 70 + 3 * i + i % 4 for i, p in enumerate(ids)}))
        run = str(tmp_path / "run")
        compare = ["vrnq", "compare", "--baseline", baseline, "--revised", revised]
        calls = [
            ["score"],
            ["--version"],
            [*compare, "--direction", "sideways"],
            ["simulate", "--seed", "7", "--out", run],
            ["score", "--log", os.path.join(run, "session.ndjson"), "--format", "json"],
            ["vrnq", "score", "--responses", baseline],
            [*compare, "--direction", "two-sided", "--format", "json"],
        ]
        in_sequence = [result[:3] for result in _run_calls(calls)]
        assert [code for code, _, _ in in_sequence] == [2, 0, 2, 0, 0, 0, 0]
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
        **errandlab.config.DEFAULT_DOMAIN_MAPPING, "UserExperience": 5}), 2,
                 id="domains-items-not-a-list"),
    pytest.param("--config", '{"normative_route_sd_s": 1e-320}', 2,
                 id="config-sd-overflows-time-z"),
    pytest.param("--config", '{"session_target_s": 1e308}', 2,
                 id="config-session-target-overflows-clock"),
    pytest.param("--profile", '{"latency_sd_ms": true}', 2, id="profile-bool-number"),
    pytest.param("--profile", '{"latency_mean_ms": 1e308}', 2,
                 id="profile-latency-overflows-clock"),
    pytest.param("--profile", '{"cooking_timing_sd_s": 1e308}', 2,
                 id="profile-cooking-sd-overflows-cook-time"),
    pytest.param("--profile", '{"planning_extra_units": 1000000000000000000000}', 2,
                 id="profile-extra-units-past-poisson-limit"),
    pytest.param("--config", f'{{"visual_targets_per_side": {_LONG_INT}}}', 2,
                 id="config-int-past-digit-limit"),
    pytest.param("--profile", f'{{"planning_extra_units": {_LONG_INT}}}', 2,
                 id="profile-int-past-digit-limit"),
    pytest.param("--domains", f'{{"VRISE": [{_LONG_INT}]}}', 2,
                 id="domains-int-past-digit-limit"),
    pytest.param("--responses", ",".join(CSV_COLUMNS) + "\n" + "p" * 140_000
                 + ",4" * 20 + "\n", 5, id="responses-field-past-csv-limit"),
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

    @pytest.mark.parametrize("option, content, code", _BAD_INPUT_FILES)
    def test_one_error_line_naming_the_file(self, tmp_path, option, content, code):
        bad = tmp_path / "bad_input"
        bad.write_bytes(content if isinstance(content, bytes) else content.encode())
        result = subprocess.run(
            [sys.executable, "-m", "errandlab", *self._argv(option, str(bad), tmp_path)],
            capture_output=True, text=True, env=_subprocess_env())
        assert result.returncode == code, result.stderr
        assert "Traceback" not in result.stderr
        [line] = result.stderr.splitlines()
        assert line.startswith(f"error: {bad}: ")


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
