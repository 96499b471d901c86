"""Command-line front end.

Subcommands:

* ``diff`` — CRUD change summary between two configured environments.
* ``evaluate`` — ARP (and optionally per-topic) effectiveness tables.
* ``change`` — the full longitudinal change matrix for a set of runs.
* ``simulate`` — cut a dated corpus into an append-only environment
  sequence and write the resulting files plus a config.
* ``report`` — re-render a saved change-matrix JSON as CSV or Markdown.

Each subcommand imports the library modules it uses when it runs, so
``diff`` and ``simulate`` never load the scoring, change and
significance modules. The ingest loaders and writers stay module
globals, where a caller can replace them. Each flag that picks an
environment by label is checked against the config by ``_known``, whose
error names the flag and the known labels; ``--run``, ``--pivot-run``
and ``--qrels`` store their paths through ``_insert``, which also
rejects a label given twice. Every label is checked before any
environment is read. ``diff``, ``evaluate`` and ``change`` then load the
environments they chose with one call of ingest's private sequence
loader, which lets consecutive snapshots share their unchanged manifest
lines. ``simulate`` loads its manifest and qrels as one environment,
``base``, through the same loader, which warns of judged documents the
corpus lacks as it does for the others, and writes the files that
:mod:`irdrift.simulate` cuts and formats; like ``diff`` it keeps the
corpus, so it forks nothing. Every real is written by
:mod:`irdrift.report`: ``evaluate`` hands it its scores as numbers.
``load_environment``, ``format_manifest``, ``format_qrels`` and
``format_topics`` stay module globals for code that replaces them by
name (``bench/spans.py``), though no subcommand calls them any more.

``change`` and ``evaluate`` read their manifests in a worker while this
process reads the qrels and topics; ``change`` then gives its run paths to
:func:`irdrift.change.build_matrix`, which reads each system's runs in its
scoring task, on one process per CPU in this process's affinity mask, up
to systems + pivot (:mod:`irdrift._workers`); with one allowed CPU all
runs here. ``import irdrift.cli`` loads neither that helper nor
:mod:`pickle`. ``evaluate`` judges the qrels once and scores each
``--run`` as it reads it, so it holds one parsed run at a time.

Exit codes are stable: 0 success, 1 internal error, 2 usage or
validation error. All output is deterministic; given identical inputs,
repeated invocations write identical bytes.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .ingest import (
    EEConfig,
    _load_sequence,
    format_manifest,  # not called here; see the module docstring
    format_qrels,  # likewise
    format_topics,  # likewise
    load_config,
    load_environment,  # not called here; see the module docstring
    load_run,
)
from .model import (
    MeasureSpec,
    PerTopicScores,
    Scenario,
    TopicId,
    _check_id,
)


class CliError(ValueError):
    """Usage or validation failure; maps to exit code 2."""


def _write_output(data: bytes, out: str | None) -> None:
    if out is None:
        sys.stdout.buffer.write(data)
        sys.stdout.buffer.flush()
    else:
        _write_file(Path(out), data)


def _write_file(path: Path, data: bytes) -> None:
    try:
        path.write_bytes(data)
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc.strerror}") from None


def _flag_value(flag: str, make, *args, **kwargs):
    """``make(*args, **kwargs)``; a ValueError it raises becomes a usage
    error that names ``flag``."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise CliError(f"{flag}: {exc}") from None


def _parse_measures(text: str) -> list[MeasureSpec]:
    flag = f"--measures {text!r}"
    measures = [
        _flag_value(flag, MeasureSpec.parse, part) for part in text.split(",") if part.strip()
    ]
    if not measures:
        raise CliError(f"{flag}: no measures given")
    for i, measure in enumerate(measures):
        if measure in measures[:i]:
            # by canonical name: p@10 and P@10 would give every row twice
            raise CliError(f"{flag}: duplicate measure {measure.name!r}")
    return measures


def _known(where: str, label: str, configs: dict[str, EEConfig]) -> str:
    """`label`, if the config lists it; else a usage error that names
    `where`, the flag that gave it, and every known label in config order."""
    if label not in configs:
        raise CliError(
            f"{where}: unknown environment label {label!r}; known labels: "
            + ", ".join(configs)
        )
    return label


def _read_config(config_path: str) -> dict[str, EEConfig]:
    """The config's entries by label, in config order; reads no other file."""
    configs = {cfg.label: cfg for cfg in load_config(config_path)}
    if not configs:
        raise CliError(f"{config_path}: config lists no environments")
    return configs


def _parse_topic_list(spec: str) -> set[TopicId]:
    """The topic ids of an explicit ``--topics`` list."""
    parts = [part.strip() for part in spec.split(",")]
    try:
        topics = {_check_id(part, "TopicId") for part in parts if part}
    except ValueError as exc:
        raise CliError(f"--topics {spec!r}: {exc}") from None
    if not topics:
        raise CliError(f"--topics {spec!r}: no topic ids given")
    return topics


# --- diff ---------------------------------------------------------------


def cmd_diff(args: argparse.Namespace) -> int:
    from . import diff as crud
    from . import report as rep

    configs = _read_config(args.config)
    # both labels are checked before any environment is read
    chosen = {_known("--from", args.from_label, configs), _known("--to", args.to_label, configs)}
    loaded = _load_sequence([cfg for cfg in configs.values() if cfg.label in chosen], corpus=True)
    envs = {ee.label: ee for ee in loaded}
    summary = crud.summarize(envs[args.from_label], envs[args.to_label])
    _write_output(
        rep.render_change_summary(summary, args.format, places=args.places), args.out
    )
    return 0


# --- evaluate -----------------------------------------------------------


def cmd_evaluate(args: argparse.Namespace) -> int:
    from . import effectiveness as eff
    from . import report as rep

    measures = sorted(_parse_measures(args.measures), key=lambda m: m.name)
    common = args.topics == "common"
    topic_filter = None
    if args.topics is not None and not common:
        topic_filter = _parse_topic_list(args.topics)  # before any file is read
    configs = _read_config(args.config)
    ee_config = configs[_known("--ee", args.ee, configs)]
    # the other environments matter only for their common topics
    chosen = list(configs.values()) if common else [ee_config]
    envs = {ee.label: ee for ee in _load_sequence(chosen, corpus=False)}
    if common:
        from . import simulate as sim

        topic_filter = sim.common_topics(list(envs.values()))
    # the qrels are judged once; each run is scored as it is read, so one
    # run is held at a time
    judged = eff._judge(envs[args.ee].qrels, topic_filter)
    scored: dict[str, tuple[str, dict[MeasureSpec, PerTopicScores]]] = {}
    for path in args.run:
        run = load_run(path)
        if run.system_tag in scored:
            # two rows per (system, measure, topic) could not be told apart
            raise CliError(
                f"--run {path!r}: system tag {run.system_tag!r} is also the tag of "
                f"--run {scored[run.system_tag][0]!r}; each run needs its own tag"
            )
        by_measure = eff._score_judged(run, judged, measures)
        if args.per_topic and any("all" in scores.scores for scores in by_measure.values()):
            raise CliError(
                f"--per-topic: --run {path!r} scores topic 'all', which names the "
                f"mean rows; the two could not be told apart"
            )
        scored[run.system_tag] = path, by_measure
    header = ["system", "ee", "measure", "topic", "score"]
    rows: list[list[str | float]] = []
    for tag in sorted(scored):
        path, by_measure = scored[tag]
        for measure in measures:
            scores = by_measure[measure]
            try:
                mean = eff.arp(scores)
            except ValueError as exc:  # no topic was evaluable
                where = f"{measure.name} in environment {args.ee!r}"
                if args.topics is not None:
                    where += f" with --topics {args.topics!r}"
                raise CliError(f"--run {path!r}: {exc} for {where}") from None
            per_topic = sorted(scores.scores.items()) if args.per_topic else []
            for topic, score in [*per_topic, ("all", mean)]:
                rows.append([tag, args.ee, measure.name, topic, score])
    _write_output(rep.render_table(header, rows, args.format, places=args.places), args.out)
    return 0


# --- change -------------------------------------------------------------


def _insert(
    where: str, paths: dict[str, str], label: str, path: str, configs: dict[str, EEConfig]
) -> None:
    """``paths[label] = path``, for a label the config lists and `paths`
    lacks; else a usage error that names `where`, the flag."""
    if _known(where, label, configs) in paths:
        raise CliError(f"{where}: duplicate entry for {label!r}")
    paths[label] = path


def _parse_run_flags(flags: list[str], configs: dict[str, EEConfig]) -> dict[str, dict[str, str]]:
    runs: dict[str, dict[str, str]] = {}
    for flag in flags:
        parts = flag.split(":", 2)
        if len(parts) != 3 or not parts[2]:
            raise CliError(f"--run expects TAG:EE_LABEL:PATH, got {flag!r}")
        tag, label, path = parts
        where = f"--run {flag!r}"
        _flag_value(where, _check_id, tag, "system tag")
        _insert(where, runs.setdefault(tag, {}), label, path, configs)
    return runs


def _parse_label_paths(
    flags: list[str], configs: dict[str, EEConfig], option: str
) -> dict[str, str]:
    out: dict[str, str] = {}
    for flag in flags:
        label, sep, path = flag.partition("=")
        if not sep or not path:
            raise CliError(f"{option} expects EE_LABEL=PATH, got {flag!r}")
        _insert(f"{option} {flag!r}", out, label, path, configs)
    return out


def cmd_change(args: argparse.Namespace) -> int:
    from . import change as cm
    from . import report as rep
    from . import significance as sig

    # the default family size is at least 1, so 1 stands in for it here
    family_size = 1 if args.family_size is None else args.family_size
    _flag_value("--alpha/--family-size", sig.bonferroni, args.alpha, family_size)
    measures = _parse_measures(args.measures)
    _flag_value("--phi", cm.RboConfig, args.phi)
    normalize = not args.no_rbo_normalize
    rbo = _flag_value("--rbo-depth", cm.RboConfig, args.phi, args.rbo_depth, normalize)
    configs = _read_config(args.config)
    scenario = Scenario(args.scenario)

    qrels_paths = _parse_label_paths(args.qrels or [], configs, "--qrels")
    if scenario is Scenario.DTQ and qrels_paths:
        raise CliError(
            "--qrels conflicts with --scenario dtq: the document-only scenario "
            "pins the recall base to the first environment's qrels"
        )
    run_paths = _parse_run_flags(args.run or [], configs)
    if not run_paths:
        raise CliError("at least one --run TAG:EE_LABEL:PATH is required")
    pivot_paths = _parse_label_paths(args.pivot_run or [], configs, "--pivot-run")

    # a --qrels file is read in place of the config's, never beside it
    for label, path in qrels_paths.items():
        configs[label] = configs[label]._replace(qrels_path=Path(path))
    envs = _load_sequence(list(configs.values()), corpus=False)
    # each system's runs are read by its own scoring task
    matrix = cm.build_matrix(
        args.collection or Path(args.config).stem,
        envs,
        run_paths,
        pivot_paths,
        scenario,
        measures,
        rbo,
        alpha=args.alpha,
        family_size=args.family_size,
    )
    _write_output(rep.render(matrix, args.format, places=args.places), args.out)
    return 0


# --- simulate -----------------------------------------------------------


def cmd_simulate(args: argparse.Namespace) -> int:
    """Write the files of ``split_append_only``'s slices, as
    ``irdrift.simulate._slice_files`` gives them, and list them."""
    from . import simulate as sim

    # before any file is read
    plan = _flag_value("--slices", sim.SimulationPlan, num_slices=args.slices)
    config = EEConfig("base", Path(args.manifest), Path(args.qrels))
    (base,) = _load_sequence([config], corpus=True)
    files = sim._slice_files(base, plan)  # a bad cut raises here, before any write
    out_dir = Path(args.out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise CliError(f"cannot write {out_dir}: {exc.strerror}") from None
    written: list[str] = []
    for name, data in files:
        _write_file(out_dir / name, data)
        written.append(name)
    for name in written:
        print(f"wrote {out_dir / name}")
    return 0


# --- report -------------------------------------------------------------


def cmd_report(args: argparse.Namespace) -> int:
    from . import report as rep

    try:
        data = Path(args.matrix).read_bytes()
    except OSError as exc:
        raise CliError(f"cannot read {args.matrix}: {exc.strerror}") from None
    try:
        matrix = rep.matrix_from_json(data)
    except (KeyError, TypeError, ValueError, RecursionError) as exc:
        raise CliError(f"{args.matrix}: not a rendered matrix JSON ({exc})") from None
    _write_output(rep.render(matrix, args.format, places=args.places), args.out)
    return 0


# --- parser -------------------------------------------------------------


def _places(text: str) -> int:
    # checked while the flags are parsed, before any file is read
    try:
        places = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if places < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {places}")
    return places


def _path(text: str) -> str:
    # an empty path would name the current directory
    if not text:
        raise argparse.ArgumentTypeError("must not be empty")
    return text


def _add_output_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("csv", "markdown", "json"), default="csv")
    parser.add_argument("--places", type=_places, default=4, help="decimal places for reals")
    parser.add_argument("--out", type=_path, help="write output to this file instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="irdrift",
        description="Quantify how retrieval results change across evolving "
        "test collections.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_diff = sub.add_parser("diff", help="CRUD summary between two environments")
    p_diff.add_argument("--config", type=_path, required=True, help="environment config JSON")
    p_diff.add_argument("--from", dest="from_label", required=True, metavar="LABEL")
    p_diff.add_argument("--to", dest="to_label", required=True, metavar="LABEL")
    _add_output_flags(p_diff)
    p_diff.set_defaults(func=cmd_diff)

    p_eval = sub.add_parser("evaluate", help="effectiveness of runs in one environment")
    p_eval.add_argument("--config", type=_path, required=True)
    p_eval.add_argument("--ee", required=True, metavar="LABEL")
    p_eval.add_argument("--run", type=_path, action="append", required=True, metavar="PATH")
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
    p_change.add_argument("--config", type=_path, required=True)
    p_change.add_argument(
        "--scenario", choices=[s.value for s in Scenario], required=True
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
    p_sim.add_argument("--manifest", type=_path, required=True)
    p_sim.add_argument("--qrels", type=_path, required=True)
    p_sim.add_argument("--slices", type=int, required=True)
    p_sim.add_argument("--out-dir", type=_path, required=True)
    p_sim.set_defaults(func=cmd_simulate)

    p_rep = sub.add_parser("report", help="re-render a saved matrix JSON")
    p_rep.add_argument(
        "--matrix", type=_path, required=True, help="matrix JSON written by 'change'"
    )
    _add_output_flags(p_rep)
    p_rep.set_defaults(func=cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:  # CliError and ParseError are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
