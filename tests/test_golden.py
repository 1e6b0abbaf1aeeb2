"""Golden sha256 digests of the simulator's and the scorer's outputs.

A refactor of the engine, the scorers or the report that keeps behaviour
keeps every digest, and an upgrade of numpy that shifts the ``Generator``
streams the simulator draws from fails here instead of silently changing
the logs.  A change to the default config's fields moves only the digests
over bytes that carry its hash (log headers, reports, manifests, the saved
config); those are re-recorded once it is shown that nothing else moved.  Covers the
three profile presets at seeds 1-3 under the default config, the
telemetry of every 20th prefix of those logs, the telemetry and warnings of
every prefix, the scorecards of those logs with one note left open until
its scene exits, the bytes that the ``simulate --cohort`` command prints
and writes, the scores and t statistics that the ``vrnq score`` and
``vrnq compare`` commands print for one fixed pair of cohorts, and the
indented JSON that the CLI prints and writes as manifests, configs and
profiles.
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
    DEFAULT_DOMAIN_MAPPING,
    config_hash,
    config_to_dict,
    default_config,
    save_config,
)
from errandlab.scenario import EventKind
from errandlab.scoring import aggregate_scorecard, scorecard_to_dict
from errandlab.sessionlog import (
    SessionLog,
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
from errandlab.vrnq import CSV_COLUMNS

# (preset, seed) -> sha256 of (serialize_log, export_report, the sorted-key
# JSON of scorecard_to_dict).
_GOLDEN = {
    ("default", 1): (
        "c810eb3948d190f3e4f8dc97fe1264af0c756aa10631f5d8fb7cc09c6f20a1da",
        "a2c33281c5c40de7cb87aaf489038d2b40349a3a1dccb39bfd3a9eed036e9171",
        "2aaeddfb060bfedb92a5b7ee9da4c89fd7cfa177d697ccca87fe1f742b1114e9"),
    ("default", 2): (
        "98245b61aa5e63a3a20db0b5485c4f907977457a9865151ad0d6d04d96454e17",
        "fe4daba309c81831757f59d5aa4ac6ccccb3058fcd377c7b3df2dac7d6dcf2c3",
        "648274bbbd85869fe78b8356b75f920be260e8aed4d84d3f23d763c48dc7af4d"),
    ("default", 3): (
        "4186dd8adc3588343d249d5be7382c2aeba1417f8335a00b796a0573b01d910f",
        "805e74d19bcdb88393594770fa192c3cb514e0e3c156f9076a6973a535ec123b",
        "7b53e86ebce33c632b8e03b693ac56ca8c6c87fbff0fca71c77fa3351226495c"),
    ("perfect", 1): (
        "998e956361d990cb3052cea34cc9d8126f457cf661c691d4871f92a866393887",
        "d8c40089f270940e414239ccd8075f340a8e71a783494d23dd393505baacbedd",
        "abf39204dba9fd8332643a2d1991bcfce7553ae6f280842ce06241e5c29bffc1"),
    ("perfect", 2): (
        "53b6aefb29e3a3dd98c8022844416c3d54f0309c37500cbb6ff383cebdfc33fc",
        "0d323df0213516a8044d873fed245dbba4b7956a8a6149dadbd205fae288dcbe",
        "abf39204dba9fd8332643a2d1991bcfce7553ae6f280842ce06241e5c29bffc1"),
    ("perfect", 3): (
        "c0aadd47e3aa979e8dca1248137b12eb963cc0024f4473f744f06c7df46373ad",
        "0a8a75634da15b739ef585021bf6723e6d432aca7febe316b7ef64e53438a3c9",
        "abf39204dba9fd8332643a2d1991bcfce7553ae6f280842ce06241e5c29bffc1"),
    ("null", 1): (
        "c4f57c91299e524664ba65f3c4df920b22cdd9e3d6f43c72fe231d39a3523deb",
        "e13649ba6c6c8b5a7dc14a16025ff7bfd5c203871a78aac92c8efdaa5357b185",
        "e91639c4f94ddbcb748cf5b974aa9b6ed16a7b4096cd695c56162f51130e065b"),
    ("null", 2): (
        "72352199b15d12d77072178943ee4efd6f7cd119b8b3f63829aedcd62f344874",
        "496c375f009fa8ecd4d3c1937658e610a92d1df03bb7437792c2c051b4303dcf",
        "e91639c4f94ddbcb748cf5b974aa9b6ed16a7b4096cd695c56162f51130e065b"),
    ("null", 3): (
        "4f04d9bc924bf6b953162f46e50d2c2e96fb2bea7064a00fe0e9c8c293033ce3",
        "78b91b7074827b5c1091610a403a7855b7cf35243e6521c82f15bcb5f2da091c",
        "e91639c4f94ddbcb748cf5b974aa9b6ed16a7b4096cd695c56162f51130e065b"),
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("preset, seed", sorted(_GOLDEN))
def test_outputs_match_golden_digests(preset, seed):
    config = default_config()
    log = simulate_session(PROFILE_PRESETS[preset](), seed, config)
    card = aggregate_scorecard(log, config)
    report = export_report(card, config, seed, config_hash(config))
    scorecard_json = json.dumps(scorecard_to_dict(card), sort_keys=True)
    assert (_sha256(serialize_log(log)),
            _sha256(report.encode("utf-8")),
            _sha256(scorecard_json.encode("utf-8"))) == _GOLDEN[(preset, seed)]


# seed -> sha256 of serialize_log for the default preset, at seeds past one
# 32-bit word and below zero: the simulator masks a seed to 64 bits and draws
# each scene from default_rng([masked seed, scene id]).
_GOLDEN_WIDE_SEEDS = {
    2**40 + 17: "4ce46ae417857ba9315bb4acfacd16f64fd2940402d59e5b199be3cd1ce4c583",
    -1: "4d1f2c8c2f6992f9221e68a7e620f8dee8c67321232e9f8ffa1334d32044e877",
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


# (preset, seed) -> sha256 over the prefixes events[:0], events[:20], ... of
# the simulated log: one line per prefix holding the sorted-key JSON of
# derive_telemetry, with the int scene keys stringified first so that the
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
    log = simulate_session(PROFILE_PRESETS[preset](), seed, default_config())
    digest = hashlib.sha256()
    for end in range(0, len(log.events) + 1, 20):
        telemetry = derive_telemetry(SessionLog(
            seed=log.seed, config_hash=log.config_hash, events=log.events[:end]))
        line = json.dumps(_stringify_keys(dataclasses.asdict(telemetry)),
                          sort_keys=True)
        digest.update(line.encode("utf-8") + b"\n")
    assert digest.hexdigest() == _GOLDEN_PREFIX_TELEMETRY[(preset, seed)]


# preset -> sha256 over the stdout of `simulate --seed 5 --cohort 3 --format
# json --out out` run from an empty directory, then over every file the run
# wrote: its path relative to that directory, a NUL, its bytes, in path order.
_GOLDEN_CLI = {
    "default": "fb326b316221972699623bc83f0701368442c47f8b3d474cd288aed76ff13876",
    "perfect": "0784bbd802c13aad14dd3b6ba35221919161859220654efb19c1c2e79ec2adf2",
    "null": "0a042940e11e1d5980c33004c750801ad5f4227590161c052a751eed028737a5",
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
    # derive_telemetry (int keys stringified), then one line per warning the
    # call logged.
    digest = hashlib.sha256()
    warnings = 0
    for end in range(len(log.events) + 1):
        caplog.clear()
        telemetry = derive_telemetry(SessionLog(
            seed=log.seed, config_hash=log.config_hash, events=log.events[:end]))
        lines = [json.dumps(_stringify_keys(dataclasses.asdict(telemetry)),
                            sort_keys=True), *_warnings(caplog)]
        warnings += len(lines) - 1
        digest.update("\n".join(lines).encode("utf-8") + b"\n")
    return digest.hexdigest(), warnings


# (preset, seed) -> (sha256 over every prefix of the simulated log, the
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
    log = simulate_session(PROFILE_PRESETS[preset](), seed, default_config())
    assert (_every_prefix_digest(log, caplog)
            == _GOLDEN_EVERY_PREFIX_TELEMETRY[(preset, seed)])


# (preset, seed) -> (sha256, warnings, variants).  Each variant is the
# simulated log with one NoteClosed event dropped, so that the notes stay
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
    log = simulate_session(PROFILE_PRESETS[preset](), seed, config)
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
# the stdout of `score --format json` on the seed 1-3 default logs, then the
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
        (tmp_path / name).write_bytes(
            serialize_log(simulate_session(default_profile(), seed, config)))
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
# on the seed 1-3 default logs, `simulate --cohort 2 --out simulate`, and
# `vrnq score` on each cohort of _vrnq_cohort_csvs under both tiers.  The
# `vrnq compare` table is left out for the reason given above.
_GOLDEN_CLI_TEXT = "889f17569c5e82d4d16e7e3a982ee78f1398632529f28f2b032f84f525d1c363"


def test_cli_text_matches_golden_digest(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    config = default_config()
    digest = hashlib.sha256()
    argvs = [["simulate", "--seed", "4", "--cohort", "2", "--out", "simulate"]]
    for seed in (1, 2, 3):
        name = f"default_{seed}.ndjson"
        (tmp_path / name).write_bytes(
            serialize_log(simulate_session(default_profile(), seed, config)))
        argvs.append(["score", "--log", name])
    _vrnq_cohort_csvs(tmp_path)
    argvs += [["vrnq", "score", "--responses", name, "--tier", tier]
              for name in ("baseline.csv", "revised.csv")
              for tier in ("minimum", "parsimonious")]
    for argv in argvs:
        assert main(argv) == 0
        digest.update(capsys.readouterr().out.encode("utf-8"))
    assert digest.hexdigest() == _GOLDEN_CLI_TEXT
