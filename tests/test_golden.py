"""Golden sha256 digests of the simulator's and the scorer's outputs.

A refactor of the engine, the scorers or the report that keeps behaviour
keeps every digest.  The digests over the scorers, the report, telemetry
and the CLI's ``score`` command read the nine golden sessions checked in
under ``tests/fixtures`` (see ``golden_logs``), whose own digests are pinned
here, so only the digests of the simulator's own output move when its
draws do.  The simulator draws from ``random.Random.random()`` alone, whose
sequence for a seed Python keeps across versions, so its digests hold on
every interpreter.  A change to the default config's fields moves only the
digests over bytes that carry its hash (log headers, reports, manifests,
the saved config); those are re-recorded once it is shown that nothing else
moved.  Covers the three profile presets at seeds 1-3 under the default
config, the telemetry of every 20th prefix of those logs, the telemetry and
warnings of every prefix, the scorecards of those logs with one note left
open until its scene exits, the bytes that the ``simulate --cohort`` command
prints and writes, the scores and t statistics that the ``vrnq score`` and
``vrnq compare`` commands print for one fixed pair of cohorts, the
indented JSON that the CLI prints and writes as manifests, configs and
profiles, the ``vrnq compare`` table and CSV with their last-bit fields
masked, and each command's ``--help`` text.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import logging
import random
import re

import pytest

from errandlab.cli import main
from errandlab.config import (
    DEFAULT_BAND_POINTS,
    config_hash,
    config_to_dict,
    default_config,
    save_config,
)
from errandlab.scenario import EventKind, _final_state, replay
from errandlab.scoring import aggregate_scorecard, scorecard_to_dict
from errandlab.sessionlog import (
    derive_telemetry,
    export_report,
    serialize_log,
)
from errandlab.simulate import (
    PROFILE_PRESETS,
    default_profile,
    save_profile,
    simulate_session,
)
from errandlab.vrnq import CSV_COLUMNS, DEFAULT_DOMAIN_MAPPING
from golden_logs import GOLDEN_SESSIONS, golden_bytes, golden_log

# (preset, seed) -> sha256 of the golden session's fixture file.
_GOLDEN_FIXTURES = {
    ("default", 1): "c810eb3948d190f3e4f8dc97fe1264af0c756aa10631f5d8fb7cc09c6f20a1da",
    ("default", 2): "98245b61aa5e63a3a20db0b5485c4f907977457a9865151ad0d6d04d96454e17",
    ("default", 3): "4186dd8adc3588343d249d5be7382c2aeba1417f8335a00b796a0573b01d910f",
    ("perfect", 1): "998e956361d990cb3052cea34cc9d8126f457cf661c691d4871f92a866393887",
    ("perfect", 2): "53b6aefb29e3a3dd98c8022844416c3d54f0309c37500cbb6ff383cebdfc33fc",
    ("perfect", 3): "c0aadd47e3aa979e8dca1248137b12eb963cc0024f4473f744f06c7df46373ad",
    ("null", 1): "c4f57c91299e524664ba65f3c4df920b22cdd9e3d6f43c72fe231d39a3523deb",
    ("null", 2): "72352199b15d12d77072178943ee4efd6f7cd119b8b3f63829aedcd62f344874",
    ("null", 3): "4f04d9bc924bf6b953162f46e50d2c2e96fb2bea7064a00fe0e9c8c293033ce3",
}
assert sorted(_GOLDEN_FIXTURES) == sorted(GOLDEN_SESSIONS)


@pytest.mark.parametrize("preset, seed", sorted(_GOLDEN_FIXTURES))
def test_fixtures_match_golden_digests(preset, seed):
    data = golden_bytes(preset, seed)
    assert _sha256(data) == _GOLDEN_FIXTURES[(preset, seed)]
    log = golden_log(preset, seed)
    assert serialize_log(log) == data
    assert log.seed == seed and log.config_hash == config_hash(default_config())


# (preset, seed) -> sha256 of (serialize_log of the simulated session, then
# export_report and the sorted-key JSON of scorecard_to_dict of the golden
# fixture log).
_GOLDEN = {
    ("default", 1): (
        "fb44703c2a4a8c6bf115fd8bfb53810a7029dc5f99759c127597322674ed635d",
        "a2c33281c5c40de7cb87aaf489038d2b40349a3a1dccb39bfd3a9eed036e9171",
        "2aaeddfb060bfedb92a5b7ee9da4c89fd7cfa177d697ccca87fe1f742b1114e9"),
    ("default", 2): (
        "4293bdf2ccc6e1f2b0d0a3030cf9e89c54c97e10ea51defcd50cfd213528bd60",
        "fe4daba309c81831757f59d5aa4ac6ccccb3058fcd377c7b3df2dac7d6dcf2c3",
        "648274bbbd85869fe78b8356b75f920be260e8aed4d84d3f23d763c48dc7af4d"),
    ("default", 3): (
        "08c632835461f07713547650a83075898bf7f25a9579cb306d3b4d8a31713136",
        "805e74d19bcdb88393594770fa192c3cb514e0e3c156f9076a6973a535ec123b",
        "7b53e86ebce33c632b8e03b693ac56ca8c6c87fbff0fca71c77fa3351226495c"),
    ("perfect", 1): (
        "389627bacb166fca9daefd9f5f0e736f4726b3c30962a1d5c0a03091764a50fe",
        "d8c40089f270940e414239ccd8075f340a8e71a783494d23dd393505baacbedd",
        "abf39204dba9fd8332643a2d1991bcfce7553ae6f280842ce06241e5c29bffc1"),
    ("perfect", 2): (
        "9967acb0277c2a2e61d5ff05d0c15584f6004fa7e734286e8fa23fc1a2f27a35",
        "0d323df0213516a8044d873fed245dbba4b7956a8a6149dadbd205fae288dcbe",
        "abf39204dba9fd8332643a2d1991bcfce7553ae6f280842ce06241e5c29bffc1"),
    ("perfect", 3): (
        "c148f10bc0c3f0101ed4027d5d14d7a1b600be17164ea3b61b55da67c6dcd900",
        "0a8a75634da15b739ef585021bf6723e6d432aca7febe316b7ef64e53438a3c9",
        "abf39204dba9fd8332643a2d1991bcfce7553ae6f280842ce06241e5c29bffc1"),
    ("null", 1): (
        "97dbb67b0bfce92186564a21e02c5f04b65a066b719b2b34e86d6d981eba4c34",
        "e13649ba6c6c8b5a7dc14a16025ff7bfd5c203871a78aac92c8efdaa5357b185",
        "e91639c4f94ddbcb748cf5b974aa9b6ed16a7b4096cd695c56162f51130e065b"),
    ("null", 2): (
        "5a3d273df8b6298afdec403d1ab971034a957f05702e450c7aa2e50ecba10bfc",
        "496c375f009fa8ecd4d3c1937658e610a92d1df03bb7437792c2c051b4303dcf",
        "e91639c4f94ddbcb748cf5b974aa9b6ed16a7b4096cd695c56162f51130e065b"),
    ("null", 3): (
        "45bdb41899d0c6bf22b63185768add08676b79be7d7f324e0a20309fae1be767",
        "78b91b7074827b5c1091610a403a7855b7cf35243e6521c82f15bcb5f2da091c",
        "e91639c4f94ddbcb748cf5b974aa9b6ed16a7b4096cd695c56162f51130e065b"),
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("preset, seed", sorted(_GOLDEN))
def test_outputs_match_golden_digests(preset, seed):
    config = default_config()
    simulated = simulate_session(PROFILE_PRESETS[preset](), seed, config)
    log = golden_log(preset, seed)
    card = aggregate_scorecard(log, config)
    report = export_report(card, config, seed, config_hash(config))
    scorecard_json = json.dumps(scorecard_to_dict(card), sort_keys=True)
    assert (_sha256(serialize_log(simulated)),
            _sha256(report.encode("utf-8")),
            _sha256(scorecard_json.encode("utf-8"))) == _GOLDEN[(preset, seed)]


# seed -> sha256 of serialize_log for the default preset, at seeds past one
# 32-bit word and below zero: the simulator masks a seed to 64 bits and draws
# each scene from random.Random(masked seed * 32 + scene id).
_GOLDEN_WIDE_SEEDS = {
    2**40 + 17: "79811bb3ab4daefb61f5462a6f4b9d102b9328006bd1f7719cfddafbbdc76fa0",
    -1: "00856afecaa6c4e44276e7b80a39bcf9993f361cd44652c57b1d9286db6d1abb",
}


@pytest.mark.parametrize("seed", sorted(_GOLDEN_WIDE_SEEDS))
def test_wide_seed_logs_match_golden_digests(seed):
    log = simulate_session(PROFILE_PRESETS["default"](), seed, default_config())
    assert _sha256(serialize_log(log)) == _GOLDEN_WIDE_SEEDS[seed]


# The config hash stamped into every log and manifest is the sha256 of the
# canonical JSON of config_to_dict, for the default config and for configs
# that override fields of each type (tuples, floats, ints, nested mappings).
@pytest.mark.parametrize("overrides", [
    {},
    {"recognition_targets": tuple(f"item_{i}" for i in range(10)),
     "normative_route_mean_s": 0.1, "visual_targets_per_side": 3},
    {"band_points": {**DEFAULT_BAND_POINTS, "OnTime": 5},
     "npc_negative_deductions": {"0": 0, "1": -1, "2": -1, "3": 0},
     "session_target_s": 1e-7},
])
def test_config_hash_is_the_hash_of_config_to_dict(overrides):
    config = dataclasses.replace(default_config(), **overrides)
    config.validate()
    canonical = json.dumps(config_to_dict(config), sort_keys=True, separators=(",", ":"))
    assert config_hash(config) == _sha256(canonical.encode("utf-8"))


# sha256 over the repr of replay's list of per-event effect lists for each
# golden fixture log, in GOLDEN_SESSIONS order.  It was recorded from an
# engine whose handlers appended each effect as they acted, so it pins that
# reading the effects off each state change keeps every one in its order.
# An effect holds no set, so the repr does not depend on the hash seed.
_GOLDEN_EFFECT_TRACE = "ed5c9abbd64fae32a4f505b4a2fc9c1217e19eb8eba1050d1f4ceb81fe43fc51"


def test_effect_trace_matches_golden_digest():
    digest = hashlib.sha256()
    for preset, seed in GOLDEN_SESSIONS:
        _, trace = replay(golden_log(preset, seed).events)
        digest.update(repr([effects for _, effects in trace]).encode("utf-8"))
    assert digest.hexdigest() == _GOLDEN_EFFECT_TRACE


# (preset, seed) -> sha256 over the prefixes events[:0], events[:20], ... of
# the golden fixture log: one line per prefix holding the sorted-key JSON of
# derive_telemetry of the state the engine ends in after it, with the int scene keys stringified first so that the
# keys sort as strings.
_GOLDEN_PREFIX_TELEMETRY = {
    ("default", 1): "bc8dcff111a20b11bb1c07a678fde32a36f636bc0cc709c7c154c9adb1c15daf",
    ("default", 2): "1fe5013bd4c7c79b2e267cfdf8a8b20a5987da77f5b3531a0f3c90885ff33d77",
    ("default", 3): "764f7e5dc45378d8dc44d7ba8a5e64c8aaa66e4b4eccd964ff91b8fd32c05203",
    ("perfect", 1): "c4d4f217581e1d25750427d862300158163ac69788cf2916ecfcbf11e739ffb2",
    ("perfect", 2): "c4d4f217581e1d25750427d862300158163ac69788cf2916ecfcbf11e739ffb2",
    ("perfect", 3): "c4d4f217581e1d25750427d862300158163ac69788cf2916ecfcbf11e739ffb2",
    ("null", 1): "fa3c4132db5805304fd29c6ae454932315dd78997678e0d1663fdf404b58f868",
    ("null", 2): "fa3c4132db5805304fd29c6ae454932315dd78997678e0d1663fdf404b58f868",
    ("null", 3): "fa3c4132db5805304fd29c6ae454932315dd78997678e0d1663fdf404b58f868",
}


def _stringify_keys(value):
    if isinstance(value, dict):
        return {str(key): _stringify_keys(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_stringify_keys(item) for item in value]
    return value


@pytest.mark.parametrize("preset, seed", sorted(_GOLDEN_PREFIX_TELEMETRY))
def test_prefix_telemetry_matches_golden_digests(preset, seed):
    log = golden_log(preset, seed)
    digest = hashlib.sha256()
    for end in range(0, len(log.events) + 1, 20):
        telemetry = derive_telemetry(_final_state(log.events[:end]))
        line = json.dumps(_stringify_keys(dataclasses.asdict(telemetry)),
                          sort_keys=True)
        digest.update(line.encode("utf-8") + b"\n")
    assert digest.hexdigest() == _GOLDEN_PREFIX_TELEMETRY[(preset, seed)]


# preset -> sha256 over the stdout of `simulate --seed 5 --cohort 3 --format
# json --out out` run from an empty directory, then over every file the run
# wrote: its path relative to that directory, a NUL, its bytes, in path order.
_GOLDEN_CLI = {
    "default": "151602219f4ecc777c9ed355160188be59f3974558a37f6f2265493f9b05cf8f",
    "perfect": "b610a1594f6698f39794aa402f6bc855b20acef33c7a6f2c1600c5a0f60cb59f",
    "null": "edf1429b6d179e8228454724fb091f74e731ca94ca57912c81c1e9716ec8f7d3",
}


@pytest.mark.parametrize("preset", sorted(_GOLDEN_CLI))
def test_simulate_cli_matches_golden_digests(preset, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["simulate", "--seed", "5", "--cohort", "3", "--profile", preset,
                 "--format", "json", "--out", "out"]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode("utf-8"))
    for path in sorted(p for p in tmp_path.rglob("*") if p.is_file()):
        digest.update(path.relative_to(tmp_path).as_posix().encode("utf-8") + b"\0")
        digest.update(path.read_bytes())
    assert digest.hexdigest() == _GOLDEN_CLI[preset]


def _warnings(caplog):
    return [record.getMessage() for record in caplog.records
            if record.name == "errandlab.sessionlog"]


def _every_prefix_digest(log, caplog):
    # One line per prefix events[:0], events[:1], ...: the sorted-key JSON of
    # derive_telemetry of the prefix's final state (int keys stringified), then one line per warning the
    # call logged.
    digest = hashlib.sha256()
    warnings = 0
    for end in range(len(log.events) + 1):
        caplog.clear()
        telemetry = derive_telemetry(_final_state(log.events[:end]))
        lines = [json.dumps(_stringify_keys(dataclasses.asdict(telemetry)),
                            sort_keys=True), *_warnings(caplog)]
        warnings += len(lines) - 1
        digest.update("\n".join(lines).encode("utf-8") + b"\n")
    return digest.hexdigest(), warnings


# (preset, seed) -> (sha256 over every prefix of the golden fixture log, the
# number of dangling-note warnings those prefixes log).  A prefix that ends
# while the notes are open closes them at its last event and warns so.
_GOLDEN_EVERY_PREFIX_TELEMETRY = {
    ("default", 1): (
        "a1e0fa9f9315392c3d1f5151b13f53396e609bb06cb99f5577dc474f2c58a3ce", 4),
    ("default", 2): (
        "b7b66deb8bc619c05b19f6435a3ee3cf3607af74ced0dcee2790724a44c8e8a8", 3),
    ("default", 3): (
        "5c5edfd6a900061fc8e5cbe87ea9b0748a08fd5fc797aa0bc0e4fe97a559f11c", 2),
    ("perfect", 1): (
        "d9b3e5a2b75eb9224aacd24ae464d1ddd4ccb7e9de1e85998c57c9bc787b371c", 4),
    ("perfect", 2): (
        "05a1a03fa1b63567aae12a4463375887c8d39472385a0e678a049270b708a9ba", 4),
    ("perfect", 3): (
        "803721edcf7487e8d8806b9907a473ab18d32396d9cdefd1a14c8d535718859e", 4),
    ("null", 1): (
        "76bc555dad17e4e8b490d12c0f152ca981aabc98dd6ba88847e9f7e7970fbeae", 0),
    ("null", 2): (
        "76bc555dad17e4e8b490d12c0f152ca981aabc98dd6ba88847e9f7e7970fbeae", 0),
    ("null", 3): (
        "76bc555dad17e4e8b490d12c0f152ca981aabc98dd6ba88847e9f7e7970fbeae", 0),
}


@pytest.mark.parametrize("preset, seed", sorted(_GOLDEN_EVERY_PREFIX_TELEMETRY))
def test_every_prefix_telemetry_matches_golden_digests(preset, seed, caplog):
    caplog.set_level(logging.WARNING, logger="errandlab.sessionlog")
    log = golden_log(preset, seed)
    assert (_every_prefix_digest(log, caplog)
            == _GOLDEN_EVERY_PREFIX_TELEMETRY[(preset, seed)])


# (preset, seed) -> (sha256, warnings, variants).  Each variant is the
# golden fixture log with one NoteClosed event dropped, so that the notes stay
# open until the scene exits; the digest runs over the sorted-key JSON of
# each variant's scorecard_to_dict, then its warning lines.  The null
# profile never opens the notes, so it has no variants.
_GOLDEN_DANGLING_NOTES = {
    ("default", 1): (
        "a012c52388cb9467f5c5c680458f0d7c4793951da89e13bd2edb68007a36a74a", 4, 4),
    ("default", 2): (
        "b7e58113ba63dba38d8fd01e5a388633a8dc89ef768342ffea38bc929dab74ba", 3, 3),
    ("default", 3): (
        "423a2e8b3c176adb0549ebaa69b4d9f0da60692197f9a7512fc0c01818d9f624", 2, 2),
    ("perfect", 1): (
        "8c46f69aabd6b6e0150186c119c6ff2240715f1fb45f96d181c1f2788d6ab6a7", 4, 4),
    ("perfect", 2): (
        "8c46f69aabd6b6e0150186c119c6ff2240715f1fb45f96d181c1f2788d6ab6a7", 4, 4),
    ("perfect", 3): (
        "8c46f69aabd6b6e0150186c119c6ff2240715f1fb45f96d181c1f2788d6ab6a7", 4, 4),
}
_DANGLING_WARNING = re.compile(
    r"notes left open in scene \d+; closed at scene exit")


@pytest.mark.parametrize("preset, seed", sorted(_GOLDEN_DANGLING_NOTES))
def test_dangling_note_scorecards_match_golden_digests(preset, seed, caplog):
    caplog.set_level(logging.WARNING, logger="errandlab.sessionlog")
    config = default_config()
    log = golden_log(preset, seed)
    digest = hashlib.sha256()
    warnings = []
    closes = [i for i, event in enumerate(log.events)
              if event.kind is EventKind.NOTE_CLOSED]
    for index in closes:
        caplog.clear()
        variant = dataclasses.replace(
            log, events=log.events[:index] + log.events[index + 1:])
        card = aggregate_scorecard(variant, config)
        lines = [json.dumps(scorecard_to_dict(card), sort_keys=True),
                 *_warnings(caplog)]
        warnings.extend(lines[1:])
        digest.update("\n".join(lines).encode("utf-8") + b"\n")
    assert len(warnings) == len(closes)
    assert all(_DANGLING_WARNING.fullmatch(text) for text in warnings)
    assert (digest.hexdigest(), len(warnings), len(closes)) == (
        _GOLDEN_DANGLING_NOTES[(preset, seed)])


def _vrnq_cohort_csvs(directory):
    """Write one fixed pair of 25-participant cohorts as baseline.csv and
    revised.csv.  The revised ratings move by -1..+2 per item, except
    InGameAssistance's, which stay put, so that column is degenerate; the
    revised file lists the participants in another order, and only the
    baseline file has a feedback column."""
    rng = random.Random(2019)
    header = ",".join(CSV_COLUMNS)
    baseline, revised = [header + ",feedback"], [header]
    steady = set(DEFAULT_DOMAIN_MAPPING["InGameAssistance"])
    for index in range(1, 26):
        items = [rng.randint(2, 6) for _ in range(20)]
        moved = [v if item in steady else min(7, max(1, v + rng.randint(-1, 2)))
                 for item, v in enumerate(items, start=1)]
        pid = f"p{index:02d}"
        baseline.append(",".join([pid, *map(str, items), f"note {index}"]))
        revised.append(",".join([pid, *map(str, moved)]))
    revised[1:] = rng.sample(revised[1:], len(revised) - 1)
    for name, lines in (("baseline.csv", baseline), ("revised.csv", revised)):
        (directory / name).write_text("\n".join(lines) + "\n", encoding="utf-8")


# sha256 over the stdout of `vrnq score --format json` on each cohort of
# _vrnq_cohort_csvs, run from their directory, then, for each direction of
# `vrnq compare --format json`, one sorted-key JSON line of every row's
# score, n, t, df and degenerate.  BF10 and p are left out: numpy's SIMD
# exp and log may differ in the last bit between CPUs.
_GOLDEN_VRNQ = "20b4face627ae1cad04b3f96c6c38055d3736f7e8f55cf7b52d90283a8b31262"


def test_vrnq_commands_match_golden_digest(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    _vrnq_cohort_csvs(tmp_path)
    digest = hashlib.sha256()
    for name in ("baseline.csv", "revised.csv"):
        assert main(["vrnq", "score", "--responses", name, "--format", "json"]) == 0
        digest.update(capsys.readouterr().out.encode("utf-8"))
    for direction in ("less", "greater", "two-sided"):
        assert main(["vrnq", "compare", "--baseline", "baseline.csv",
                     "--revised", "revised.csv", "--direction", direction,
                     "--format", "json"]) == 0
        rows = [{key: row[key] for key in ("score", "n", "t", "df", "degenerate")}
                for row in json.loads(capsys.readouterr().out)["rows"]]
        assert [row["degenerate"] for row in rows] == [False, False, False, True, False]
        digest.update(json.dumps(rows, sort_keys=True).encode("utf-8") + b"\n")
    assert digest.hexdigest() == _GOLDEN_VRNQ


# sha256 over the indented JSON the CLI writes, run from an empty directory:
# the stdout of `score --format json` on the seed 1-3 default fixture logs, then the
# manifest.json of `simulate --out`, `score --out` (with a saved config) and
# `vrnq score --out`, then the files save_config and save_profile write for
# the defaults.  `vrnq compare` is left out: its bf10 may differ in the last
# bit between CPUs.
_GOLDEN_CLI_JSON = "03b3b233289d815956ca5983ac77f9db939a53430be639e75e56d103bba09437"


def test_cli_json_matches_golden_digest(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    config = default_config()
    digest = hashlib.sha256()
    for seed in (1, 2, 3):
        name = f"default_{seed}.ndjson"
        (tmp_path / name).write_bytes(golden_bytes("default", seed))
        assert main(["score", "--log", name, "--format", "json"]) == 0
        digest.update(capsys.readouterr().out.encode("utf-8"))
    save_config(config, "config.json")
    save_profile(default_profile(), "profile.json")
    _vrnq_cohort_csvs(tmp_path)
    for argv in (["simulate", "--seed", "4", "--out", "simulate"],
                 ["score", "--log", "default_1.ndjson", "--config", "config.json",
                  "--out", "score"],
                 ["vrnq", "score", "--responses", "baseline.csv", "--out", "vrnq"]):
        assert main(argv) == 0
        digest.update((tmp_path / argv[-1] / "manifest.json").read_bytes())
    for name in ("config.json", "profile.json"):
        digest.update((tmp_path / name).read_bytes())
    assert digest.hexdigest() == _GOLDEN_CLI_JSON


# sha256 over the text the CLI prints, run from an empty directory: `score`
# on the seed 1-3 default fixture logs, `simulate --cohort 2 --out simulate`, and
# `vrnq score` on each cohort of _vrnq_cohort_csvs under both tiers.  The
# `vrnq compare` table is left out for the reason given above.
_GOLDEN_CLI_TEXT = "0aaf62c680573fce5e5931d1eeb3c03b2eec9c3bad94f20cdecbdc05813bb9a0"


def test_cli_text_matches_golden_digest(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    digest = hashlib.sha256()
    argvs = [["simulate", "--seed", "4", "--cohort", "2", "--out", "simulate"]]
    for seed in (1, 2, 3):
        name = f"default_{seed}.ndjson"
        (tmp_path / name).write_bytes(golden_bytes("default", seed))
        argvs.append(["score", "--log", name])
    _vrnq_cohort_csvs(tmp_path)
    argvs += [["vrnq", "score", "--responses", name, "--tier", tier]
              for name in ("baseline.csv", "revised.csv")
              for tier in ("minimum", "parsimonious")]
    for argv in argvs:
        assert main(argv) == 0
        digest.update(capsys.readouterr().out.encode("utf-8"))
    assert digest.hexdigest() == _GOLDEN_CLI_TEXT


# sha256 over the stdout of `simulate --seed 4 --cohort 2 --format json --out
# simulate`, run from an empty directory: the sessions' summaries with their
# scorecards, and the manifest.
_GOLDEN_SIMULATE_JSON = "f8d59a124dc37b8bf4b4387a43166ca9831fb16c96d03400aa35338327bbfab8"


def test_simulate_json_stdout_matches_golden_digest(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["simulate", "--seed", "4", "--cohort", "2", "--format", "json",
                 "--out", "simulate"]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode("utf-8"))
    assert digest.hexdigest() == _GOLDEN_SIMULATE_JSON


# sha256 over the manifest.json that `vrnq compare --out cmp` writes on the
# cohorts of _vrnq_cohort_csvs, run from their directory: once with the
# defaults, once two-sided with a --domains file and a --prior-scale.
_GOLDEN_COMPARE_MANIFEST = "95aa487699afecc1db16dee03333ff8603702120c8d8c4dd08216b022350da08"


def test_vrnq_compare_manifest_matches_golden_digest(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    _vrnq_cohort_csvs(tmp_path)
    (tmp_path / "domains.json").write_text(json.dumps(DEFAULT_DOMAIN_MAPPING),
                                           encoding="utf-8")
    compare = ["vrnq", "compare", "--baseline", "baseline.csv",
               "--revised", "revised.csv", "--out", "cmp"]
    digest = hashlib.sha256()
    for extra in ([], ["--direction", "two-sided", "--domains", "domains.json",
                       "--prior-scale", "1.5"]):
        assert main(compare + extra) == 0
        digest.update((tmp_path / "cmp" / "manifest.json").read_bytes())
    assert digest.hexdigest() == _GOLDEN_COMPARE_MANIFEST


def _masked_table_line(line):
    """A `vrnq compare` table line with its p, BF10 and bf10_rel_err columns,
    and the padding that right-aligns them, each made one ``#``."""
    fields = re.split(r"( +)", line)
    if not line.endswith("; t undefined"):  # not the degenerate row's message
        for index in (6, 8, 10):
            fields[index - 1:index + 1] = [" ", "#"]
    return "".join(fields)


def _masked_csv_line(line):
    """A comparison.csv line with its p, bf10 and bf10_rel_err fields, where
    set, made ``#``."""
    fields = line.split(",")
    for index in (4, 5, 8):
        fields[index] = "#" if fields[index] else ""
    return ",".join(fields)


# sha256, for each direction of `vrnq compare --out cmp` on the cohorts of
# _vrnq_cohort_csvs, over the text table it prints and the comparison.csv it
# writes, with the p, BF10 and bf10_rel_err fields masked for the reason
# given above (the degenerate InGameAssistance row has none).
_GOLDEN_COMPARE_TABLE = "b1c6a29746c9f2ff15b035ce4271c56408cc82adc58038b73a1d5fa2fda12059"


def test_vrnq_compare_table_and_csv_match_golden_digest(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    _vrnq_cohort_csvs(tmp_path)
    digest = hashlib.sha256()
    for direction in ("less", "greater", "two-sided"):
        assert main(["vrnq", "compare", "--baseline", "baseline.csv",
                     "--revised", "revised.csv", "--direction", direction,
                     "--out", "cmp"]) == 0
        table = capsys.readouterr().out.splitlines()
        rows = (tmp_path / "cmp" / "comparison.csv").read_text(encoding="utf-8").splitlines()
        assert [line.split()[0] for line in table[2:]] == [
            line.split(",")[0] for line in rows[1:]]
        assert "all differences equal; t undefined" in table[5]
        assert rows[4] == "InGameAssistance,25,,,,,,,"
        lines = [table[0], table[1], *map(_masked_table_line, table[2:]),
                 rows[0], *map(_masked_csv_line, rows[1:])]
        digest.update("\n".join(lines).encode("utf-8") + b"\n")
    assert digest.hexdigest() == _GOLDEN_COMPARE_TABLE


# command words -> sha256 of the `--help` text that command prints at 80
# columns: the argparse layout of CPython 3.10-3.12, whose help formatter
# these digests were recorded under.
_GOLDEN_HELP = {
    (): "ca1dc6c70a2cc88ed4045e033c9334bdad7c53cc4d9d560d213ab179c5e9cbac",
    ("simulate",): "fa373510a401497653be7f766ed25a658aea9c28775cf954cdf431b3d5bf5fff",
    ("score",): "361820c7fe06a0c45b6372b617ce8c3c9758f797524a02c23573524a13768624",
    ("vrnq",): "0c34a6bb53ade07ce22dfb14b0a18c5144bba9aae7ec314ff59d647a4362222f",
    ("vrnq", "score"): "09d5ca9bda392c3aac78598cae92d7a875e370ca0efd168608dbb3482b55d19b",
    ("vrnq", "compare"): "b4287b28934496c6b27e09f12d40d6e5e0b0905d5cdc22f7b633d4006a6e13f5",
}


@pytest.mark.parametrize("words", sorted(_GOLDEN_HELP), ids=" ".join)
def test_help_matches_golden_digest(words, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exit_info:
        main([*words, "--help"])
    assert exit_info.value.code == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode("utf-8"))
    assert digest.hexdigest() == _GOLDEN_HELP[words]
