"""Command-line front end.

Subcommands:

* ``diff`` — CRUD change summary between two configured environments.
* ``evaluate`` — ARP (and optionally per-topic) effectiveness tables.
* ``change`` — the full longitudinal change matrix for a set of runs.
* ``simulate`` — cut a dated corpus into an append-only environment
  sequence and write the resulting files plus a config.
* ``report`` — re-render a saved change-matrix JSON as CSV or Markdown.

Exit codes are stable: 0 success, 1 internal error, 2 usage or
validation error. All output is deterministic; given identical inputs,
repeated invocations write identical bytes.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from pathlib import Path

from . import change as cm
from . import diff as crud
from . import effectiveness as eff
from . import report as rep
from . import significance as sig
from . import simulate as sim
from .ingest import (
    IngestWarning,
    ParseError,
    format_manifest,
    format_qrels,
    format_topics,
    load_config,
    load_environment,
    load_manifest,
    load_qrels,
    load_run,
)
from .model import EvaluationEnvironment, MeasureSpec, TopicDef, TopicId


class CliError(ValueError):
    """Usage or validation failure; maps to exit code 2."""


def _write_output(data: bytes, out: str | None) -> None:
    if out is None:
        sys.stdout.buffer.write(data)
        sys.stdout.buffer.flush()
    else:
        Path(out).write_bytes(data)


def _parse_measures(text: str) -> list[MeasureSpec]:
    measures = [MeasureSpec.parse(part) for part in text.split(",") if part.strip()]
    if not measures:
        raise CliError(f"no measures given in {text!r}")
    return measures


def _load_environments(config_path: str) -> tuple[list[str], dict[str, EvaluationEnvironment]]:
    configs = load_config(config_path)
    if not configs:
        raise CliError(f"{config_path}: config lists no environments")
    envs = {cfg.label: load_environment(cfg) for cfg in configs}
    return [cfg.label for cfg in configs], envs


def _resolve_topic_filter(
    spec: str | None,
    labels: list[str],
    envs: dict[str, EvaluationEnvironment],
) -> set[TopicId] | None:
    if spec is None:
        return None
    if spec == "common":
        return sim.common_topics([envs[label] for label in labels])
    return {TopicId(part) for part in spec.split(",") if part.strip()}


# --- diff ---------------------------------------------------------------


def cmd_diff(args: argparse.Namespace) -> int:
    labels, envs = _load_environments(args.config)
    for label in (args.from_label, args.to_label):
        if label not in envs:
            raise CliError(
                f"unknown environment label {label!r}; known labels: "
                + ", ".join(labels)
            )
    summary = crud.summarize(envs[args.from_label], envs[args.to_label])
    _write_output(
        rep.render_change_summary(summary, args.format, places=args.places), args.out
    )
    return 0


# --- evaluate -----------------------------------------------------------


def cmd_evaluate(args: argparse.Namespace) -> int:
    labels, envs = _load_environments(args.config)
    if args.ee not in envs:
        raise CliError(
            f"unknown environment label {args.ee!r}; known labels: " + ", ".join(labels)
        )
    env = envs[args.ee]
    measures = _parse_measures(args.measures)
    topic_filter = _resolve_topic_filter(args.topics, labels, envs)
    runs = [load_run(path, args.ee) for path in args.run]
    header = ["system", "ee", "measure", "topic", "score"]
    rows: list[list[str]] = []
    for run in sorted(runs, key=lambda r: r.system_tag):
        for measure in sorted(measures, key=lambda m: m.name):
            scores = eff.evaluate_run(run, env.qrels, measure, topic_filter)
            result = eff.arp(scores)  # raises when no topic was evaluable
            if args.per_topic:
                for topic in sorted(scores.scores):
                    rows.append(
                        [
                            run.system_tag,
                            args.ee,
                            measure.name,
                            str(topic),
                            format(scores.scores[topic], f".{args.places}f"),
                        ]
                    )
            rows.append(
                [
                    run.system_tag,
                    args.ee,
                    measure.name,
                    "all",
                    format(result.mean, f".{args.places}f"),
                ]
            )
    _write_output(rep.render_table(header, rows, args.format), args.out)
    return 0


# --- change -------------------------------------------------------------


def _parse_run_flags(flags: list[str], labels: list[str]) -> dict[str, dict[str, str]]:
    runs: dict[str, dict[str, str]] = {}
    for flag in flags:
        parts = flag.split(":", 2)
        if len(parts) != 3:
            raise CliError(f"--run expects TAG:EE_LABEL:PATH, got {flag!r}")
        tag, label, path = parts
        if label not in labels:
            raise CliError(f"--run {flag!r}: unknown environment label {label!r}")
        if label in runs.setdefault(tag, {}):
            raise CliError(f"--run {flag!r}: duplicate run for {tag!r} at {label!r}")
        runs[tag][label] = path
    return runs


def _parse_label_paths(flags: list[str], labels: list[str], option: str) -> dict[str, str]:
    out: dict[str, str] = {}
    for flag in flags:
        label, sep, path = flag.partition("=")
        if not sep or not path:
            raise CliError(f"{option} expects EE_LABEL=PATH, got {flag!r}")
        if label not in labels:
            raise CliError(f"{option} {flag!r}: unknown environment label {label!r}")
        if label in out:
            raise CliError(f"{option} {flag!r}: duplicate entry for {label!r}")
        out[label] = path
    return out


def cmd_change(args: argparse.Namespace) -> int:
    # the default family size is at least 1, so 1 stands in for it here
    try:
        sig.bonferroni(args.alpha, 1 if args.family_size is None else args.family_size)
    except ValueError as exc:
        raise CliError(f"--alpha/--family-size: {exc}") from None
    labels, envs = _load_environments(args.config)
    scenario = rep.Scenario(args.scenario)
    initial = labels[0]
    measures = sorted(_parse_measures(args.measures), key=lambda m: m.name)

    qrels_override = _parse_label_paths(args.qrels or [], labels, "--qrels")
    if scenario is rep.Scenario.DTQ and qrels_override:
        raise CliError(
            "--qrels conflicts with --scenario dtq: the document-only scenario "
            "pins the recall base to the first environment's qrels"
        )
    qrels_by_label = {label: envs[label].qrels for label in labels}
    for label, path in qrels_override.items():
        qrels_by_label[label] = load_qrels(path)
    if scenario is rep.Scenario.DTQ:
        qrels_by_label = {label: qrels_by_label[initial] for label in labels}

    run_paths = _parse_run_flags(args.run or [], labels)
    if not run_paths:
        raise CliError("at least one --run TAG:EE_LABEL:PATH is required")
    for tag in sorted(run_paths):
        missing = [label for label in labels if label not in run_paths[tag]]
        if missing:
            raise CliError(
                f"system {tag!r} is missing runs for: " + ", ".join(missing)
            )
    runs = {
        tag: {label: load_run(path, label) for label, path in by_label.items()}
        for tag, by_label in run_paths.items()
    }
    for tag, by_label in runs.items():
        for run in by_label.values():
            if run.system_tag != tag:
                warnings.warn(
                    f"run tagged {run.system_tag!r} in its file is registered "
                    f"as system {tag!r}",
                    IngestWarning,
                    stacklevel=2,
                )

    pivot_paths = _parse_label_paths(args.pivot_run or [], labels, "--pivot-run")
    pivot_runs = {label: load_run(path, label) for label, path in pivot_paths.items()}
    pivot_tag: str | None = None
    if pivot_runs:
        tags = {run.system_tag for run in pivot_runs.values()}
        if len(tags) > 1:
            raise CliError(
                "pivot runs carry mixed system tags: " + ", ".join(sorted(tags))
            )
        pivot_tag = tags.pop()
        if pivot_tag in runs:
            raise CliError(
                f"pivot system {pivot_tag!r} also given via --run; supply it "
                f"only as --pivot-run"
            )
    pivot_complete = pivot_runs and all(label in pivot_runs for label in labels)
    if pivot_runs and not pivot_complete:
        missing = [label for label in labels if label not in pivot_runs]
        warnings.warn(
            f"pivot runs missing for: {', '.join(missing)}; pivot-relative cells "
            f"stay empty there",
            cm.ChangeWarning,
            stacklevel=2,
        )

    common = sim.common_topics([envs[label] for label in labels])
    if not common:
        raise CliError("no topic is common to every environment")

    cfg = cm.RboConfig(
        phi=args.phi, depth=args.rbo_depth, normalize=not args.no_rbo_normalize
    )
    family = args.family_size
    if family is None:
        family = max(1, len(runs) * (len(labels) - 1))

    scores_cache: dict[tuple[str, str, MeasureSpec], object] = {}

    def per_topic_scores(tag: str, label: str, measure: MeasureSpec):
        key = (tag, label, measure)
        if key not in scores_cache:
            run = runs[tag][label] if tag in runs else pivot_runs[label]
            scores_cache[key] = eff.evaluate_run(
                run, qrels_by_label[label], measure, common
            )
        return scores_cache[key]

    def arp_of(tag: str, label: str, measure: MeasureSpec):
        return eff.arp(per_topic_scores(tag, label, measure))

    all_tags = sorted(runs)
    if pivot_tag is not None and pivot_complete:
        all_tags = sorted(all_tags + [pivot_tag])

    rows: list[rep.ChangeReport] = []
    for tag in all_tags:
        tag_runs = runs.get(tag, pivot_runs if tag == pivot_tag else {})
        for label in labels:
            if scenario is rep.Scenario.DTQ:
                overlap = cm.mean_rbo(tag_runs[initial], tag_runs[label], cfg, common)
                rmse_map: dict[MeasureSpec, float] = {}
                for measure in measures:
                    rmse_map[measure] = cm.rmse(
                        per_topic_scores(tag, initial, measure),
                        per_topic_scores(tag, label, measure),
                    )
                rows.append(
                    rep.ChangeReport(
                        system_tag=tag,
                        ee_label=label,
                        scenario=scenario,
                        rbo_mean=overlap.mean,
                        rmse=rmse_map,
                    )
                )
                continue
            arp_map: dict[MeasureSpec, float] = {}
            re_delta_map: dict[MeasureSpec, float] = {}
            delta_ri_map: dict[MeasureSpec, float | None] = {}
            significant_map: dict[MeasureSpec, bool | None] = {}
            for measure in measures:
                result = arp_of(tag, label, measure)
                arp_map[measure] = result.mean
                try:
                    re_delta_map[measure] = cm.result_delta(
                        arp_of(tag, initial, measure), result
                    )
                except ValueError as exc:
                    warnings.warn(
                        f"{tag} {label} {measure.name}: {exc}",
                        cm.ChangeWarning,
                        stacklevel=2,
                    )
                is_pivot_row = tag == pivot_tag
                if (
                    is_pivot_row
                    or pivot_tag is None
                    or label not in pivot_runs
                    or initial not in pivot_runs
                ):
                    delta_ri_map[measure] = None
                    significant_map[measure] = None
                    continue
                try:
                    ri_initial = cm.relative_improvement(
                        arp_of(tag, initial, measure),
                        arp_of(pivot_tag, initial, measure),
                    )
                    ri_evolved = cm.relative_improvement(
                        result, arp_of(pivot_tag, label, measure)
                    )
                    delta_ri_map[measure] = cm.delta_ri(ri_initial, ri_evolved)
                except ValueError as exc:
                    warnings.warn(
                        f"{tag} {label} {measure.name}: {exc}",
                        cm.ChangeWarning,
                        stacklevel=2,
                    )
                    delta_ri_map[measure] = None
                try:
                    significant_map[measure] = sig.compare(
                        per_topic_scores(tag, label, measure),
                        per_topic_scores(pivot_tag, label, measure),
                        alpha=args.alpha,
                        family_size=family,
                    ).significant
                except ValueError as exc:
                    warnings.warn(
                        f"{tag} {label} {measure.name}: significance skipped ({exc})",
                        cm.ChangeWarning,
                        stacklevel=2,
                    )
                    significant_map[measure] = None
            rows.append(
                rep.ChangeReport(
                    system_tag=tag,
                    ee_label=label,
                    scenario=scenario,
                    arp=arp_map,
                    re_delta=re_delta_map,
                    delta_ri=delta_ri_map,
                    significant=significant_map,
                )
            )

    collection = args.collection or Path(args.config).stem
    matrix = rep.LongitudinalMatrix(collection_label=collection, rows=tuple(rows))
    _write_output(rep.render(matrix, args.format, places=args.places), args.out)
    return 0


# --- simulate -----------------------------------------------------------


def cmd_simulate(args: argparse.Namespace) -> int:
    corpus = load_manifest(args.manifest)
    qrels = load_qrels(args.qrels)
    topics = {t: TopicDef(topic_id=t) for t in sorted(qrels.topics())}
    base = EvaluationEnvironment(
        label="base", corpus=corpus, topics=topics, qrels=qrels
    )
    plan = sim.SimulationPlan(num_slices=args.slices)
    slices = sim.split_append_only(base, plan)

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written: list[str] = []

    def write(name: str, text: str) -> None:
        (out_dir / name).write_bytes(text.encode("utf-8"))
        written.append(name)

    write("topics.jsonl", format_topics(topics))
    config_entries = []
    for ee in slices:
        manifest_name = f"{ee.label}.manifest.jsonl"
        qrels_name = f"{ee.label}.qrels.txt"
        write(manifest_name, format_manifest(ee.corpus))
        write(qrels_name, format_qrels(ee.qrels))
        config_entries.append(
            {
                "label": ee.label,
                "manifest": manifest_name,
                "qrels": qrels_name,
                "topics": "topics.jsonl",
            }
        )
    write("ees.json", json.dumps(config_entries, indent=2) + "\n")
    for name in written:
        print(f"wrote {out_dir / name}")
    return 0


# --- report -------------------------------------------------------------


def cmd_report(args: argparse.Namespace) -> int:
    data = Path(args.matrix).read_bytes()
    try:
        matrix = rep.matrix_from_json(data)
    except (KeyError, TypeError) as exc:
        raise CliError(f"{args.matrix}: not a rendered matrix JSON ({exc})") from None
    _write_output(rep.render(matrix, args.format, places=args.places), args.out)
    return 0


# --- parser -------------------------------------------------------------


def _add_output_flags(parser: argparse.ArgumentParser, formats=("csv", "markdown", "json")) -> None:
    parser.add_argument("--format", choices=formats, default="csv")
    parser.add_argument("--places", type=int, default=4, help="decimal places for reals")
    parser.add_argument("--out", help="write output to this file instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="irdrift",
        description="Quantify how retrieval results change across evolving "
        "test collections.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_diff = sub.add_parser("diff", help="CRUD summary between two environments")
    p_diff.add_argument("--config", required=True, help="environment config JSON")
    p_diff.add_argument("--from", dest="from_label", required=True, metavar="LABEL")
    p_diff.add_argument("--to", dest="to_label", required=True, metavar="LABEL")
    _add_output_flags(p_diff)
    p_diff.set_defaults(func=cmd_diff)

    p_eval = sub.add_parser("evaluate", help="effectiveness of runs in one environment")
    p_eval.add_argument("--config", required=True)
    p_eval.add_argument("--ee", required=True, metavar="LABEL")
    p_eval.add_argument("--run", action="append", required=True, metavar="PATH")
    p_eval.add_argument(
        "--measures", default="p@10,bpref,ndcg", help="comma-separated, e.g. p@10,bpref,ndcg"
    )
    p_eval.add_argument("--per-topic", action="store_true")
    p_eval.add_argument(
        "--topics",
        help="'common' for the intersection across all environments, or an "
        "explicit comma-separated topic list",
    )
    _add_output_flags(p_eval)
    p_eval.set_defaults(func=cmd_evaluate)

    p_change = sub.add_parser("change", help="longitudinal change matrix")
    p_change.add_argument("--config", required=True)
    p_change.add_argument(
        "--scenario", choices=[s.value for s in rep.Scenario], required=True
    )
    p_change.add_argument(
        "--run",
        action="append",
        metavar="TAG:EE_LABEL:PATH",
        help="experimental system run; repeat for every system and environment",
    )
    p_change.add_argument(
        "--pivot-run",
        action="append",
        metavar="EE_LABEL=PATH",
        help="pivot system run; repeat per environment",
    )
    p_change.add_argument(
        "--qrels",
        action="append",
        metavar="EE_LABEL=PATH",
        help="override an environment's qrels (dtq-prime only)",
    )
    p_change.add_argument("--measures", default="p@10,bpref,ndcg")
    p_change.add_argument("--phi", type=float, default=0.9, help="rank overlap persistence")
    p_change.add_argument("--rbo-depth", type=int, default=100)
    p_change.add_argument("--no-rbo-normalize", action="store_true")
    p_change.add_argument("--alpha", type=float, default=0.05)
    p_change.add_argument(
        "--family-size",
        type=int,
        help="Bonferroni family size; default: systems x (environments - 1)",
    )
    p_change.add_argument("--collection", help="label for the matrix rows")
    _add_output_flags(p_change)
    p_change.set_defaults(func=cmd_change)

    p_sim = sub.add_parser("simulate", help="cut a dated corpus into append-only slices")
    p_sim.add_argument("--manifest", required=True)
    p_sim.add_argument("--qrels", required=True)
    p_sim.add_argument("--slices", type=int, required=True)
    p_sim.add_argument("--out-dir", required=True)
    p_sim.set_defaults(func=cmd_simulate)

    p_rep = sub.add_parser("report", help="re-render a saved matrix JSON")
    p_rep.add_argument("--matrix", required=True, help="matrix JSON written by 'change'")
    _add_output_flags(p_rep)
    p_rep.set_defaults(func=cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CliError, ParseError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
