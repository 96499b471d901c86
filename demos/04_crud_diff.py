"""Diff two snapshots of a test collection with CRUD semantics.

Documents diff by id with updates detected through length changes (or a
content hash when both sides carry one); topics diff by id and text;
qrels diff by (topic, doc) pair and grade. The summary renders as a
deterministic table.
"""

import sys

from irdrift import (
    DocMeta,
    EvaluationEnvironment,
    Qrels,
    render_change_summary,
    summarize,
)


def environment(label, docs, topics, qrels):
    # the corpus maps doc id -> DocMeta and the topics topic id -> text
    return EvaluationEnvironment(
        label=label,
        corpus={d: DocMeta(length=n) for d, n in docs.items()},
        topics=topics,
        qrels=Qrels(qrels),
    )


before = environment(
    "t0",
    docs={"d1": 100, "d2": 250, "d3": 80},
    topics={"1": "rain", "2": "storms"},
    qrels={"1": {"d1": 1, "d2": 0}, "2": {"d3": 2}},
)

after = environment(
    "t1",
    docs={"d1": 100, "d2": 310, "d4": 55},  # d2 edited, d3 removed, d4 new
    topics={"1": "acid rain", "2": "storms", "3": "floods"},  # reworded + new
    qrels={"1": {"d1": 0, "d2": 0}, "2": {"d3": 2}, "3": {"d4": 1}},
)

summary = summarize(before, after)

print("documents:", dict(
    created=sorted(summary.documents.created),
    updated=sorted(summary.documents.updated),
    deleted=sorted(summary.documents.deleted),
))
print("topics:   ", dict(
    created=sorted(summary.topics.created),
    updated=sorted(summary.topics.updated),
))
print("qrels:    ", dict(
    created=sorted(summary.qrels.created),
    updated=sorted(summary.qrels.updated),  # the grade flip on (1, d1)
))

print("\nas a table (markdown):\n")
sys.stdout.write(render_change_summary(summary, "markdown").decode())
print("\nthe same data renders as csv or json for downstream tooling")
