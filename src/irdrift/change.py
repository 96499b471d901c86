"""Measures of how retrieval results change between two environments.

Four complementary views:

* :func:`rbo_topic` / :func:`mean_rbo` — rank-biased overlap between the
  rankings a system produced in two environments; purely document-level,
  relevance plays no part.
* :func:`rmse` — root mean square error between per-topic effectiveness
  scores, for the setting where both runs were scored against the same
  qrels (unchanged recall base).
* :func:`result_delta` — relative change of a system's ARP over time,
  normalized by the earlier value.
* :func:`relative_improvement` / :func:`delta_ri` — a system's ARP margin
  over a pivot system within one environment, and how that margin shifts
  between environments.

An ARP is a plain float (:func:`irdrift.effectiveness.arp`), so the
ratio functions only compute; pairing the right ARPs is the caller's
job. :func:`build_matrix` applies them to every system over an ordered
environment sequence, pairing scores by their (system, environment,
measure) key, and returns the longitudinal change matrix of one
scenario. It works in two parts. One task per system, and one for the
pivot, reads that system's runs (a run may be given as a path), scores
them and computes their per-topic RBO against t0; the tasks run on one
process per allowed CPU (:mod:`irdrift._workers`) and return no run,
only a per-topic table. The tasks' tables merge into one table of the
whole matrix, keyed by (system, environment, measure or ``"rbo"``), and
every mean the rows read is taken from it once. The row builders then
project the table and the means, and one helper owns the rule for a
cell that is undefined: it stays empty, and a warning says why.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Callable, Iterable, Mapping, Sequence
from functools import partial
from itertools import zip_longest
from os import PathLike
from typing import NamedTuple

from . import _workers
from . import effectiveness as eff
from . import significance as sig
from . import simulate as sim
from .ingest import IngestWarning, load_run
from .model import (
    EvaluationEnvironment,
    MeasureSpec,
    PerTopicScores,
    Ranking,
    RunFile,
    Scenario,
    TopicId,
    _Checked,
)
from .report import ChangeReport, LongitudinalMatrix


class ChangeWarning(UserWarning):
    """Non-fatal oddity during change measurement."""


class _RboConfigFields(NamedTuple):
    phi: float = 0.9
    depth: int = 100
    normalize: bool = True


class RboConfig(_Checked, _RboConfigFields):
    """Rank-biased overlap parameters.

    ``phi`` is the persistence: the weight of rank i decays as phi**(i-1),
    so smaller values concentrate weight near the top. ``depth`` truncates
    the evaluation; with ``normalize`` the truncated sum is rescaled so
    identical rankings score exactly 1.
    """

    __slots__ = ()

    def _check(self) -> None:
        if not 0.0 < self.phi < 1.0:
            raise ValueError(f"phi must lie strictly between 0 and 1, got {self.phi}")
        if self.depth < 1:
            raise ValueError(f"depth must be >= 1, got {self.depth}")


class _ChangeScoresFields(NamedTuple):
    per_topic: dict[TopicId, float]


class ChangeScores(_Checked, _ChangeScoresFields):
    """Per-topic change values of at least one topic."""

    __slots__ = ()

    def _check(self) -> None:
        if not self.per_topic:
            raise ValueError("ChangeScores needs at least one topic")

    @property
    def mean(self) -> float:
        """The arithmetic mean; the sum is ``math.fsum``, correctly rounded."""
        return math.fsum(self.per_topic.values()) / len(self.per_topic)


def rbo_topic(r: Ranking, r_prime: Ranking, cfg: RboConfig) -> float:
    """Rank-biased overlap between two rankings the caller pairs by topic.

    Computes the truncated sum (1-phi) * sum_{i=1..d} phi**(i-1) * A_i
    where A_i is the fraction of agreement between the two depth-i
    prefixes, |prefix_i(r) & prefix_i(r')| / i, and d is the configured
    depth capped at the longer ranking's length. A ranking shorter than i
    contributes its full list as the prefix. Two empty rankings count as
    identical (1.0). Normalized, two rankings that share one docs tuple
    skip the prefix walk and score 1.0, the walk's result.
    """
    longest = max(len(r), len(r_prime))
    if longest == 0:
        return 1.0
    depth = min(cfg.depth, longest)
    docs_a = r.docs
    docs_b = r_prime.docs
    if docs_a is docs_b and cfg.normalize:
        # a ranking compared with itself, as in the t0 rows of a change
        # matrix: every prefix agrees fully, so total and norm below
        # accumulate the same weights, in the same order
        return 1.0
    # unmatched prefix docs per side; a doc moves from one set into the
    # running overlap count the moment the other ranking reaches it. A
    # ranking shorter than i yields None there (no doc id is None).
    pending_a: set[str] = set()
    pending_b: set[str] = set()
    overlap = 0
    total = 0.0
    norm = 0.0
    weight = 1.0  # phi**(i-1)
    phi = cfg.phi
    for i, (doc_a, doc_b) in enumerate(zip_longest(docs_a[:depth], docs_b[:depth]), 1):
        if doc_a is not None:
            if doc_a in pending_b:
                pending_b.remove(doc_a)
                overlap += 1
            else:
                pending_a.add(doc_a)
        if doc_b is not None:
            if doc_b in pending_a:
                pending_a.remove(doc_b)
                overlap += 1
            else:
                pending_b.add(doc_b)
        total += weight * (overlap / i)
        norm += weight
        weight *= phi
    # norm accumulates sum(phi**(i-1)) the same way as total, so
    # (1-phi)*total / ((1-phi)*norm) is exactly 1.0 for identical rankings;
    # (1-phi)*norm equals the closed form 1 - phi**depth
    if cfg.normalize:
        return total / norm
    return (1.0 - cfg.phi) * total


def mean_rbo(
    run: RunFile,
    run_prime: RunFile,
    cfg: RboConfig,
    topic_filter: set[TopicId],
) -> ChangeScores:
    """Average per-topic rank-biased overlap across a topic set.

    Rank comparison only makes sense when both runs answer the same
    topics, so the caller supplies the common topic set explicitly. A
    topic missing from either run contributes 0.0 with a warning.
    """
    if not topic_filter:
        raise ValueError("mean_rbo requires a non-empty topic filter")
    per_topic: dict[TopicId, float] = {}
    for topic in sorted(topic_filter):
        a = run.rankings.get(topic)
        b = run_prime.rankings.get(topic)
        if a is None or b is None:
            missing = run.system_tag if a is None else run_prime.system_tag
            warnings.warn(
                f"topic {topic} missing from run {missing!r}; scoring overlap 0.0",
                ChangeWarning,
                stacklevel=2,
            )
            per_topic[topic] = 0.0
            continue
        per_topic[topic] = rbo_topic(a, b, cfg)
    return ChangeScores(per_topic)


def rmse(scores: PerTopicScores, scores_prime: PerTopicScores) -> float:
    """Root mean square error between two per-topic score sets.

    Meaningful only when both sets were computed with the same measure
    against the same qrels; the common topics are compared. The squared
    differences are summed by ``math.fsum``, correctly rounded, so the
    value does not depend on the order of the topics.
    """
    if scores.measure != scores_prime.measure:
        raise ValueError(
            f"rmse requires matching measures, got {scores.measure.name} vs "
            f"{scores_prime.measure.name}"
        )
    common = scores.topics() & scores_prime.topics()
    if not common:
        raise ValueError("rmse requires a non-empty common topic set")
    diffs = [scores.scores[t] - scores_prime.scores[t] for t in common]
    return math.sqrt(math.fsum(d * d for d in diffs) / len(diffs))


def result_delta(arp_initial: float, arp_evolved: float) -> float:
    """Relative ARP change between a system's ARP in an initial and in an
    evolved environment, under one measure: (initial - evolved) / initial.
    Negative values mean the effectiveness improved over time."""
    if arp_initial == 0.0:
        raise ValueError("undefined result delta (zero baseline)")
    return (arp_initial - arp_evolved) / arp_initial


def relative_improvement(arp_system: float, arp_pivot: float) -> float:
    """A system's ARP margin over the pivot system's ARP in the same
    environment, under one measure: (system - pivot) / pivot."""
    if arp_pivot == 0.0:
        raise ValueError("undefined relative improvement (zero pivot mean)")
    return (arp_system - arp_pivot) / arp_pivot


def delta_ri(ri_initial: float, ri_evolved: float) -> float:
    """Shift of the pivot-relative margin between two environments:
    initial minus evolved. Zero means the margin reproduced perfectly;
    positive values mean the improvement over the pivot shrank."""
    return ri_initial - ri_evolved


# the key of a rank overlap in a per-topic table, where a measure keys a score
_RBO = "rbo"
# a key of a change matrix's table: (system, environment, measure or "rbo")
_Key = tuple[str, str, MeasureSpec | str]


class _SystemScores(NamedTuple):
    """What one system's task returns: the tag in each run file by
    environment label, and its per-topic table: the scores by (label,
    measure) and, in dtq, the rank overlap with its t0 run by (label,
    ``"rbo"``)."""

    tags: dict[str, str]
    table: dict[tuple[str, MeasureSpec | str], PerTopicScores | ChangeScores]


def _score_system(
    by_label: Mapping[str, RunFile | str | PathLike],
    labels: list[str],
    judged: dict[str, eff._Judged],
    measures: list[MeasureSpec],
    rbo: RboConfig | None,
    common: set[TopicId],
) -> _SystemScores:
    """One system's share of a change matrix: each of its runs, read from
    disk if given as a path, in environment order, scored against the
    judgment facts of its environment's recall base (``judged``, by label),
    and with ``rbo`` compared with its t0 run over ``common``. Only the
    t0 run and the run at hand are held, and only per-topic values are
    returned; no mean is taken here."""
    tags: dict[str, str] = {}
    table: dict[tuple[str, MeasureSpec | str], PerTopicScores | ChangeScores] = {}
    first = None
    for label in labels:
        if label not in by_label:
            continue
        run = by_label[label]
        if not isinstance(run, RunFile):
            run = load_run(run)
        tags[label] = run.system_tag
        for measure, per_topic in eff._score_judged(run, judged[label], measures).items():
            table[label, measure] = per_topic
        if rbo is not None:
            if first is None:
                first = run
            table[label, _RBO] = mean_rbo(first, run, rbo, common)
    return _SystemScores(tags, table)


def build_matrix(
    collection: str,
    envs: Sequence[EvaluationEnvironment],
    runs: Mapping[str, Mapping[str, RunFile | str | PathLike]],
    pivot: Mapping[str, RunFile | str | PathLike],
    scenario: Scenario,
    measures: Iterable[MeasureSpec],
    rbo: RboConfig,
    alpha: float = 0.05,
    family_size: int | None = None,
) -> LongitudinalMatrix:
    """The longitudinal change matrix of one scenario over the environment
    sequence ``envs`` (t0..tn, in that order).

    ``runs`` maps each system tag to its runs by environment label and must
    cover every environment. ``pivot`` maps labels to the pivot system's
    runs and may be partial or empty; a complete pivot also gets rows of
    its own. A run is a :class:`RunFile` or the path of a run file, read
    when its system is scored. Only topics common to every environment
    are scored.

    In the document-only scenario (:attr:`Scenario.DTQ`) every run is scored
    against t0's qrels and rows carry rank overlap and per-measure RMSE
    against t0. In the document-and-qrels scenario each environment is
    scored with its own qrels and rows carry ARP, the ARP delta against t0
    and, where the pivot covers both t0 and the environment, the margin
    shift over the pivot and a paired t-test against it at
    ``alpha / family_size`` (default family: systems x (environments - 1)).
    Cells that are undefined stay empty (an RΔ is left out of its map, a
    ΔRI or significance flag is ``None``) with a :class:`ChangeWarning` at
    the line that called this function.

    Everything that needs no run is settled before any run is read: a
    system missing a run, environments without a common topic and a
    recall base that judges no common topic's document relevant (naming
    its environment), and an ``alpha`` or ``family_size`` that
    :func:`irdrift.significance.bonferroni` rejects, are ``ValueError``s,
    and an incomplete pivot warns.
    Each system, and the pivot, is then one task of ``_score_system``,
    against judgment facts computed once per recall base. Run errors and
    warnings come in task order: the systems in the order of ``runs``,
    then the pivot. Only the checks of the tags in the run files follow
    the tasks. The tasks' per-topic tables then merge into one, keyed by
    (system, environment, measure or ``"rbo"``), and each mean that the
    scenario's rows read is taken once: the ARPs under dtq-prime, the
    rank overlap means under dtq.
    """
    labels = [env.label for env in envs]
    measures = sorted(measures, key=lambda m: m.name)
    for tag in sorted(runs):
        missing = [label for label in labels if label not in runs[tag]]
        if missing:
            raise ValueError(f"system {tag!r} is missing runs for: " + ", ".join(missing))
    common = sim.common_topics(envs)
    dtq = scenario is Scenario.DTQ
    # dtq scores every environment against t0's qrels, dtq-prime each
    # against its own
    if dtq:
        judged = dict.fromkeys(labels, eff._judge(envs[0].qrels, common))
    else:
        judged = {env.label: eff._judge(env.qrels, common) for env in envs}
    # an ARP or RMSE needs a topic with a relevant document; in dtq every
    # label shares t0's facts, so t0 is named
    for label in labels:
        if not judged[label].facts:
            raise ValueError(
                f"no common topic has a relevant document in the qrels of environment {label!r}"
            )
    if family_size is None:
        family_size = max(1, len(runs) * (len(labels) - 1))
    sig.bonferroni(alpha, family_size)  # a bad alpha or family size fails here, once
    pivot_complete = bool(pivot) and all(label in pivot for label in labels)
    if pivot and not pivot_complete:
        missing = [label for label in labels if label not in pivot]
        warnings.warn(
            f"pivot runs missing for: {', '.join(missing)}; pivot-relative cells "
            f"stay empty there",
            ChangeWarning,
            stacklevel=2,
        )

    # rank overlap is a dtq cell, and an incomplete pivot gets no rows
    rbo_cfg = rbo if dtq else None
    tasks = [
        partial(_score_system, by_label, labels, judged, measures, rbo_cfg, common)
        for by_label in runs.values()
    ]
    if pivot:
        pivot_cfg = rbo_cfg if pivot_complete else None
        tasks.append(partial(_score_system, pivot, labels, judged, measures, pivot_cfg, common))
    scored = _workers.run_tasks(tasks)

    # the checks that need the tags in the run files
    for (tag, by_label), system in zip(runs.items(), scored):
        # in the order the runs were given; a label of no environment is
        # never read
        for found in [system.tags[label] for label in by_label if label in system.tags]:
            if found != tag:
                warnings.warn(
                    f"run tagged {found!r} in its file is registered "
                    f"as system {tag!r}",
                    IngestWarning,
                    stacklevel=2,
                )
    by_tag = dict(zip(runs, scored))
    pivot_tag: str | None = None
    if pivot:
        tags = set(scored[-1].tags.values())
        if len(tags) > 1:
            raise ValueError(
                "pivot runs carry mixed system tags: " + ", ".join(sorted(tags))
            )
        pivot_tag = tags.pop()
        if pivot_tag in runs:
            raise ValueError(
                f"pivot system {pivot_tag!r} also given via --run; supply it "
                f"only as --pivot-run"
            )
        by_tag[pivot_tag] = scored[-1]

    table = {(t, *k): v for t, system in by_tag.items() for k, v in system.table.items()}
    # each mean the rows read, taken once: rank overlap under dtq, ARP under dtq-prime
    means = {k: v.mean if dtq else eff.arp(v) for k, v in table.items() if (k[2] == _RBO) == dtq}
    # an incomplete pivot gets no rows of its own
    row_tags = sorted(by_tag if pivot_complete else runs)
    if dtq:
        rows = _dtq_rows(table, means, row_tags, labels, measures)
    else:
        rows = _dtq_prime_rows(
            table, means, row_tags, labels, measures, pivot_tag, alpha, family_size
        )
    return LongitudinalMatrix(collection_label=collection, rows=tuple(rows))


def _cell(
    where: str, compute: Callable[[], float | bool], reason: str = "{}"
) -> float | bool | None:
    """``compute()``, or ``None`` when it raises ``ValueError``: the cell is
    undefined, and a :class:`ChangeWarning` ``"<where>: <reason>"``, with
    the error in place of ``{}``, says why at :func:`build_matrix`'s caller."""
    try:
        return compute()
    except ValueError as exc:
        warnings.warn(f"{where}: {reason.format(exc)}", ChangeWarning, stacklevel=4)
        return None


def _dtq_rows(
    table: dict[_Key, PerTopicScores | ChangeScores],
    means: dict[_Key, float],
    tags: list[str],
    labels: list[str],
    measures: list[MeasureSpec],
) -> list[ChangeReport]:
    """Rank overlap and per-measure RMSE against t0, per system and
    environment."""
    initial = labels[0]
    return [
        ChangeReport(
            system_tag=tag,
            ee_label=label,
            scenario=Scenario.DTQ,
            rbo_mean=means[tag, label, _RBO],
            rmse={
                measure: rmse(table[tag, initial, measure], table[tag, label, measure])
                for measure in measures
            },
        )
        for tag in tags
        for label in labels
    ]


def _dtq_prime_rows(
    table: dict[_Key, PerTopicScores | ChangeScores],
    arps: dict[_Key, float],
    tags: list[str],
    labels: list[str],
    measures: list[MeasureSpec],
    pivot_tag: str | None,
    alpha: float,
    family_size: int,
) -> list[ChangeReport]:
    """ARP, its delta against t0 and, where the pivot covers t0 and the
    environment, the margin shift over the pivot and a paired t-test
    against it, per system and environment."""
    initial = labels[0]
    covered = {key[1] for key in table if key[0] == pivot_tag}
    rows: list[ChangeReport] = []
    for tag in tags:
        for label in labels:
            # the pivot has no margin over itself
            paired = tag != pivot_tag and {initial, label} <= covered
            arp_map: dict[MeasureSpec, float] = {}
            re_delta_map: dict[MeasureSpec, float] = {}
            # a margin shift or test left undone is an empty cell
            delta_ri_map: dict[MeasureSpec, float | None] = dict.fromkeys(measures)
            significant_map: dict[MeasureSpec, bool | None] = dict.fromkeys(measures)
            for measure in measures:
                where = f"{tag} {label} {measure.name}"
                arp = arp_map[measure] = arps[tag, label, measure]
                initial_arp = arps[tag, initial, measure]
                delta = _cell(where, lambda: result_delta(initial_arp, arp))
                if delta is not None:
                    re_delta_map[measure] = delta
                if not paired:
                    continue
                delta_ri_map[measure] = _cell(
                    where,
                    lambda: delta_ri(
                        relative_improvement(initial_arp, arps[pivot_tag, initial, measure]),
                        relative_improvement(arp, arps[pivot_tag, label, measure]),
                    ),
                )
                significant_map[measure] = _cell(
                    where,
                    lambda: sig.compare(
                        table[tag, label, measure],
                        table[pivot_tag, label, measure],
                        alpha=alpha,
                        family_size=family_size,
                    ).significant,
                    reason="significance skipped ({})",
                )
            rows.append(
                ChangeReport(
                    system_tag=tag,
                    ee_label=label,
                    scenario=Scenario.DTQ_PRIME,
                    arp=arp_map,
                    re_delta=re_delta_map,
                    delta_ri=delta_ri_map,
                    significant=significant_map,
                )
            )
    return rows
