"""Command-line entry point: simulate, score, and VRNQ analysis.

Each command's own subparser parses what follows its command words; argv
that names no command, or that it leaves unparsed, goes to the root parser.

Every command ends in one output contract.  Given ``--out`` (always, for
``simulate``), a run writes ``<out>/manifest.json``: the command, its
parameters, input and output paths, seeds, config hash and tool version, so
the run can be reproduced from the manifest alone.  ``--format json`` prints
the same manifest inside its output; text output carries none.  An empty
``--out`` is the current directory.  Manifests carry no timestamps: identical
invocations produce identical manifests.

A failed run prints one ``error:`` line (a usage error also prints usage).
Exit codes: 0 success, 2 usage error, 3 I/O error (``error: <path>:
<reason>``), else the ``exit_code`` of the error's family: 1 IntegrationFailure
(a Bayes factor could not be computed to the required accuracy, e.g. one
beyond double range), 2 ConfigError (a bad ``--config``, ``--profile`` or
``--domains`` file is named), 4 EngineError or LogError (a rejected or
incomplete session log), 5 VrnqError (a malformed response CSV).  A run whose
standard output its reader closes (``... | head -1``) prints nothing more and
exits 141, as a shell reports a process that SIGPIPE ends.
"""

from __future__ import annotations

import argparse
import functools
import gc
import os
import sys
from typing import TYPE_CHECKING, Any, Callable, Iterable, Optional, Sequence

from . import __version__
from .jsonio import ErrandlabError, _json_text, _quoted, read_json

if TYPE_CHECKING:  # pragma: no cover
    from .simulate import ParticipantProfile
    from .vrnq import DomainMapping


def _load_profile_arg(spec: Optional[str]) -> ParticipantProfile:
    from .simulate import PROFILE_PRESETS, load_profile

    preset = PROFILE_PRESETS.get(spec or "default")
    return preset() if preset is not None else load_profile(spec)


def _number(kind: Callable[[str], Any], text: str) -> Any:
    try:
        return kind(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid {kind.__name__} value: {_quoted(text)}") from None


def _positive_int(text: str) -> int:
    value = _number(int, text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, not {_quoted(value)}")
    return value


def _positive_float(text: str) -> float:
    value = _number(float, text)
    if not 0 < value <= sys.float_info.max:  # NaN fails too
        raise argparse.ArgumentTypeError(
            f"must be positive and finite, not {value:g}")
    return value


class _Parser(argparse.ArgumentParser):
    """argparse's parser, which quotes a refused choice, a command word
    included, in the short form of the package's other faults."""

    def _check_value(self, action: argparse.Action, value: Any) -> None:
        if action.choices is not None and value not in action.choices:
            choices = ", ".join(map(repr, action.choices))
            raise argparse.ArgumentError(
                action, f"invalid choice: {_quoted(value)} (choose from {choices})")


def _write_output(out: str, outputs: dict[str, str], name: str, file: str,
                  data: bytes) -> str:
    """Write ``data`` to ``file`` under ``out`` and record its path as
    ``outputs[name]``; the first file written makes the directory."""
    if not outputs:
        os.makedirs(out or ".", exist_ok=True)
    path = outputs[name] = os.path.join(out, file)
    with open(path, "wb") as handle:
        handle.write(data)
    return path


def _finish(args: argparse.Namespace, command: str, *, parameters: dict[str, Any],
            inputs: dict[str, Optional[str]], outputs: dict[str, str],
            payload: Callable[[], dict[str, Any]], text: Callable[[], Iterable[str]],
            **stamps: Any) -> int:
    """The last step of every command: build the manifest from the inputs
    given and the stamps set, write it to ``<out>/manifest.json`` if given
    (after copying ``outputs``, so it never lists itself), then print
    ``payload()`` with the manifest as JSON, or the lines of ``text()``."""
    manifest = {"command": command, "tool": "errandlab", "version": __version__,
                "parameters": parameters,
                "inputs": {key: path for key, path in inputs.items() if path},
                "outputs": dict(outputs),
                **{key: value for key, value in stamps.items() if value is not None}}
    if args.out is not None:
        _write_output(args.out, outputs, "manifest", "manifest.json",
                      (_json_text(manifest) + "\n").encode("utf-8"))
    if args.format == "json":
        print(_json_text({**payload(), "manifest": manifest}))
    else:
        for line in text():
            print(line)
    return 0


# ---------------------------------------------------------------------------
# simulate


def _cmd_simulate(args: argparse.Namespace) -> int:
    from .config import config_hash, default_config, load_config
    from .scoring import score_session, scorecard_to_dict
    from .sessionlog import export_report, serialize_log
    from .simulate import PROFILE_PRESETS, _simulate

    cfg = load_config(args.config) if args.config else default_config()
    profile = _load_profile_arg(args.profile)
    cfg_hash = config_hash(cfg)
    count = args.cohort
    seeds = [args.seed + i for i in range(count)]

    outputs: dict[str, str] = {}
    summaries: list[dict[str, Any]] = []
    cards: list[Any] = []
    for index, seed in enumerate(seeds):
        # score from the simulator's own final state: no second engine pass
        log, final_state = _simulate(profile, seed, cfg, cfg_hash)
        card = score_session(log, final_state, cfg)
        report = export_report(card, cfg, seed, cfg_hash).encode("utf-8")
        suffix = "" if count == 1 else f"_{index:03d}"
        summaries.append({
            "seed": seed, "events": len(log.events),
            "log": _write_output(args.out, outputs, f"log_{index:03d}",
                                 f"session{suffix}.ndjson", serialize_log(log)),
            "report": _write_output(args.out, outputs, f"report_{index:03d}",
                                    f"report{suffix}.txt", report)})
        if args.format == "json":  # text output prints no scorecard
            cards.append(card)

    return _finish(
        args, "simulate",
        parameters={"seed": args.seed, "cohort": count,
                    "profile": args.profile or "default",
                    "config": args.config or "default"},
        inputs={"profile": None if args.profile in PROFILE_PRESETS else args.profile,
                "config": args.config},
        outputs=outputs,
        payload=lambda: {"sessions": [{**summary, "scorecard": scorecard_to_dict(card)}
                                      for summary, card in zip(summaries, cards)]},
        text=lambda: [f"wrote {s['log']} ({s['events']} events) and {s['report']}"
                      for s in summaries] + [f"wrote {outputs['manifest']}"],
        config_hash=cfg_hash, seeds=seeds)


# ---------------------------------------------------------------------------
# score


def _cmd_score(args: argparse.Namespace) -> int:
    from .config import config_hash, default_config, load_config
    from .scoring import aggregate_scorecard, scorecard_to_dict
    from .sessionlog import deserialize_log, export_report

    cfg = load_config(args.config) if args.config else default_config()
    with open(args.log, "rb") as handle:
        log = deserialize_log(handle.read())
    card = aggregate_scorecard(log, cfg)
    # hashed once the log is accepted: a rejected log needs no hash
    cfg_hash = config_hash(cfg)
    # JSON output prints no report: build it only to print or write it
    report = (export_report(card, cfg, log.seed, cfg_hash)
              if args.format == "text" or args.out is not None else "")
    outputs: dict[str, str] = {}
    if args.out is not None:
        _write_output(args.out, outputs, "report", "report.txt", report.encode("utf-8"))

    return _finish(
        args, "score",
        parameters={"config": args.config or "default"},
        inputs={"log": args.log, "config": args.config},
        outputs=outputs,
        payload=lambda: {"scorecard": scorecard_to_dict(card)},
        text=report.splitlines,
        config_hash=cfg_hash)


# ---------------------------------------------------------------------------
# vrnq


def _load_domains_arg(path: Optional[str]) -> DomainMapping:
    from .vrnq import _DEFAULT_MAPPING, DomainMapping

    return read_json(path, DomainMapping) if path else _DEFAULT_MAPPING


def _cmd_vrnq_score(args: argparse.Namespace) -> int:
    from .vrnq import CUTOFFS, DOMAINS, _score_cohort, check_cutoffs

    mapping = _load_domains_arg(args.domains)
    scored, aggregate = _score_cohort(args.responses, mapping)
    verdict = check_cutoffs(aggregate, args.tier)

    def payload() -> dict[str, Any]:
        return {
            "participants": [{
                "participant_id": participant_id,
                "sub_scores": dict(zip(DOMAINS, subs)),
                "total": total,
            } for participant_id, total, *subs in scored],
            "aggregate": {
                "n": aggregate.total_stats.n,
                "sub_scores": {d: {"median": st.median, "mad": st.mad}
                               for d, st in aggregate.sub_stats.items()},
                "total": {"median": aggregate.total_stats.median,
                          "mad": aggregate.total_stats.mad},
            },
            "verdict": {
                "tier": verdict.tier,
                "passes": dict(verdict.passes),
                "overall": verdict.overall,
            },
        }

    def text() -> Iterable[str]:
        yield f"participants: {aggregate.total_stats.n}"
        for participant_id, total, *subs in scored:
            line = "  ".join(f"{d}={sub}" for d, sub in zip(DOMAINS, subs))
            yield f"  {participant_id}: {line}  total={total}"
        yield "cohort medians (MAD):"
        for domain in DOMAINS:
            st = aggregate.sub_stats[domain]
            yield f"  {domain}: {st.median:g} ({st.mad:g})"
        yield (f"  Total: {aggregate.total_stats.median:g} "
               f"({aggregate.total_stats.mad:g})")
        thresholds = CUTOFFS[args.tier]
        yield (f"cut-off tier {args.tier} "
               f"(sub>={thresholds['sub']}, total>={thresholds['total']}):")
        for name, passed in verdict.passes.items():
            yield f"  {name}: {'pass' if passed else 'FAIL'}"
        yield f"overall: {'pass' if verdict.overall else 'FAIL'}"

    return _finish(
        args, "vrnq score",
        parameters={"tier": args.tier, "domains": args.domains or "default"},
        inputs={"responses": args.responses, "domains": args.domains},
        outputs={}, payload=payload, text=text)


def _cmd_vrnq_compare(args: argparse.Namespace) -> int:
    import csv
    import io
    # scipy costs most of a cold start; only this command needs it
    from . import bayes
    from .vrnq import _paired_columns, _read_cohort_items

    mapping = _load_domains_arg(args.domains)
    baseline = _read_cohort_items(args.baseline)
    revised = _read_cohort_items(args.revised)
    direction = bayes.Direction(args.direction)
    columns = _paired_columns(baseline, revised, mapping)

    comparisons = bayes.compare_paired_columns(
        columns, direction=direction, prior_scale=args.prior_scale)
    rows: list[dict[str, Any]] = []
    for name, cmp_result in comparisons.items():
        n = len(columns[name][0])
        row = {"score": name, "n": n, "t": None, "df": n - 1, "p": None, "bf10": None,
               "band": None, "stars": "", "degenerate": cmp_result is None,
               "bf10_rel_err": None}
        if cmp_result is not None:  # a column whose differences vary
            row.update(t=cmp_result.t, p=cmp_result.p, bf10=cmp_result.bf10,
                       band=cmp_result.band.value, stars=cmp_result.stars,
                       bf10_rel_err=cmp_result.bf10_rel_err)
        rows.append(row)

    hypothesis = {"less": "baseline < revised", "greater": "baseline > revised",
                  "two-sided": "baseline != revised"}[args.direction]

    outputs: dict[str, str] = {}
    if args.out is not None:
        fields = ("score", "n", "t", "df", "p", "bf10", "band", "stars", "bf10_rel_err")
        table = io.StringIO()
        writer = csv.DictWriter(table, fields, extrasaction="ignore", lineterminator="\n")
        writer.writeheader()
        # a degenerate column's statistics, df included, stay empty
        writer.writerows({**row, "df": None} if row["degenerate"] else row for row in rows)
        _write_output(args.out, outputs, "comparison", "comparison.csv",
                      table.getvalue().encode("utf-8"))

    def text() -> Iterable[str]:
        # from 1,000 pairs n is wider than its three places, and so is its header
        n_width = max(3, *(len(str(row["n"])) for row in rows))
        yield (f"paired comparison, alternative: {hypothesis} "
               f"(direction {args.direction}, prior scale {args.prior_scale:g})")
        yield (f"{'score':<18} {'n':>{n_width}}  {'t':>8}  {'p':>9}  {'BF10':>12}  "
               f"{'bf10_rel_err':>12}  evidence")
        for row in rows:
            if row["degenerate"]:
                yield (f"{row['score']:<18} {row['n']:>{n_width}}  "
                       f"{'all differences equal; t undefined':>46}")
            else:
                evidence = row["band"] + (f" {row['stars']}" if row["stars"] else "")
                # fixed point would print a 1e149 in 150 figures, past its
                # column, and a p below 1e-99 takes ten characters in .4g
                bf10_format = ">12.3f" if row["bf10"] < 1e6 else ">12.4e"
                p_format = ">9.4g" if row["p"] >= 1e-99 else ">9.3g"
                yield (f"{row['score']:<18} {row['n']:>{n_width}}  {row['t']:>8.3f}  "
                       f"{row['p']:{p_format}}  {row['bf10']:{bf10_format}}  "
                       f"{row['bf10_rel_err']:>12.1e}  {evidence}")

    return _finish(
        args, "vrnq compare",
        parameters={"direction": args.direction, "prior_scale": args.prior_scale,
                    "domains": args.domains or "default"},
        inputs={"baseline": args.baseline, "revised": args.revised,
                "domains": args.domains},
        outputs=outputs,
        payload=lambda: {"hypothesis": hypothesis, "rows": rows},
        text=text)


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="errandlab",
        description="Simulate, score, and evaluate errand-scenario sessions.")
    parser.add_argument("--version", action="version",
                        version=f"errandlab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="generate seeded session logs")
    p_sim.add_argument("--seed", type=functools.partial(_number, int), required=True)
    p_sim.add_argument("--profile", default=None,
                       help="preset name (default/perfect/null) or JSON path")
    p_sim.add_argument("--config", default=None, help="scoring config JSON path")
    p_sim.add_argument("--out", required=True, help="output directory")
    p_sim.add_argument("--cohort", type=_positive_int, default=1,
                       help="number of sessions (seeds seed..seed+n-1)")

    p_score = sub.add_parser("score", help="replay and score a session log")
    p_score.add_argument("--log", required=True, help="session NDJSON path")
    p_score.add_argument("--config", default=None)
    p_score.add_argument("--out", default=None, help="directory for report.txt")

    p_vrnq = sub.add_parser("vrnq", help="questionnaire scoring and comparison")
    vrnq_sub = p_vrnq.add_subparsers(dest="vrnq_command", required=True)

    p_vscore = vrnq_sub.add_parser("score", help="score a response CSV")
    p_vscore.add_argument("--responses", required=True, help="response CSV path")
    p_vscore.add_argument("--tier", choices=("minimum", "parsimonious"),
                          default="parsimonious")
    p_vscore.add_argument("--domains", default=None,
                          help="JSON file mapping domains to item numbers")
    p_vscore.add_argument("--out", default=None)

    p_vcmp = vrnq_sub.add_parser("compare", help="paired Bayesian comparison")
    p_vcmp.add_argument("--baseline", required=True, help="baseline cohort CSV")
    p_vcmp.add_argument("--revised", required=True, help="revised cohort CSV")
    p_vcmp.add_argument("--direction",
                        choices=("less", "greater", "two-sided"),
                        default="less")
    p_vcmp.add_argument("--prior-scale", type=_positive_float, default=0.707,
                        dest="prior_scale")
    p_vcmp.add_argument("--domains", default=None)
    p_vcmp.add_argument("--out", default=None)

    for command, func in ((p_sim, _cmd_simulate), (p_score, _cmd_score),
                          (p_vscore, _cmd_vrnq_score), (p_vcmp, _cmd_vrnq_compare)):
        command.add_argument("--format", choices=("text", "json"), default="text")
        command.set_defaults(func=func)

    return parser


@functools.cache
def _parser() -> dict[tuple[str, ...], argparse.ArgumentParser]:
    # The root parser under (), each command's own under its words.  Safe to
    # share: no action has a mutable default, parse_args makes a new
    # Namespace on each call, and help width is read when help is formatted.
    found = [((), build_parser())]
    for words, parser in found:  # the walk appends what it finds
        found += [((*words, name), sub) for action in parser._actions
                  if isinstance(action, argparse._SubParsersAction)
                  for name, sub in action.choices.items()]
    return dict(found)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parsers = _parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    # the parser of the longest run of command words that argv starts with
    size = max(len(words) for words in parsers if tuple(argv[:len(words)]) == words)
    args, unparsed = parsers[tuple(argv[:size])].parse_known_args(argv[size:])
    if unparsed:
        args = parsers[()].parse_args(argv)
    # A command builds no reference cycle, so a collection during it frees
    # nothing.  Scoring an 8,000-event log in a fresh process started 29 young
    # and 2 middle collections (3.2 ms).  With numpy and scipy loaded, each
    # 1k-8k event log started 10.4 young and 0.95 middle ones, which moved the
    # half-built log to the oldest generation: a full collection (20 ms) came
    # every 12 logs.
    enabled = gc.isenabled()
    gc.disable()
    try:
        code = args.func(args)
        sys.stdout.flush()  # here, so that a closed pipe is caught below
        return code
    except BrokenPipeError:
        # the reader of standard output is gone: point it at devnull, so that
        # the flush at exit raises nothing either, and exit 128 + SIGPIPE, as
        # a shell reports a process that the signal ends
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except ErrandlabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        where = f"{exc.filename}: {exc.strerror}" if exc.filename else exc
        print(f"error: {where}", file=sys.stderr)
        return 3
    finally:
        if enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
