"""The whole pipeline over a simulated append-only collection.

A dated corpus is cut into three cumulative slices (every slice keeps all
earlier documents and gains the next batch; qrels follow the documents).
Two synthetic systems are ranked over each slice, one of them the pivot,
then ``build_matrix`` computes the longitudinal change matrix for both
analysis scenarios:

* document-only change: rank overlap and per-topic score RMSE against t0,
  all scoring pinned to t0's qrels;
* document-and-qrels change: ARP per slice, the relative ARP delta, the
  pivot-relative margin shift and a paired t-test against the pivot, each
  slice scored with its own qrels.
"""

import hashlib
import sys
from datetime import datetime, timedelta, timezone

from irdrift import (
    DocMeta,
    EvaluationEnvironment,
    MeasureSpec,
    Qrels,
    Ranking,
    RboConfig,
    RunFile,
    Scenario,
    SimulationPlan,
    build_matrix,
    render,
    split_append_only,
)

N_DOCS = 300
TOPICS = [f"q{i}" for i in range(1, 7)]


def pseudo(*parts: str) -> float:
    """Deterministic stand-in for anything random."""
    digest = hashlib.sha256("|".join(parts).encode()).digest()
    return int.from_bytes(digest[:8], "big") / 2**64


# --- build one dated corpus with judgments --------------------------------
start = datetime(2019, 1, 1, tzinfo=timezone.utc)
docs = {}
for i in range(N_DOCS):
    doc = f"d{i:04d}"
    docs[doc] = DocMeta(length=100, timestamp=start + timedelta(days=i))

grades = {topic: {} for topic in TOPICS}  # topic -> doc -> grade
for topic in TOPICS:
    for doc in docs:
        u = pseudo("qrel", topic, doc)
        if u < 0.06:
            grades[topic][doc] = 1
        elif u < 0.12:
            grades[topic][doc] = 0

base = EvaluationEnvironment(
    label="base",
    corpus=docs,
    topics=dict.fromkeys(TOPICS),
    qrels=Qrels(grades),
)

slices = split_append_only(base, SimulationPlan(num_slices=3))
print("append-only slices:")
for ee in slices:
    print(f"  {ee.label}: {len(ee.corpus)} docs, {len(ee.qrels)} judgments")


# --- two synthetic retrieval systems ---------------------------------------
def run_over(tag: str, ee: EvaluationEnvironment, depth: int = 50) -> RunFile:
    rankings = {}
    for topic in TOPICS:
        scored = sorted(
            ((pseudo("score", tag, topic, str(d)), str(d)) for d in ee.corpus),
            key=lambda pair: (-pair[0], pair[1]),
        )[:depth]
        rankings[topic] = Ranking(tuple(d for _, d in scored), tuple(s for s, _ in scored))
    return RunFile(system_tag=tag, rankings=rankings)


runs = {"adv": {ee.label: run_over("adv", ee) for ee in slices}}
pivot = {ee.label: run_over("base-sys", ee) for ee in slices}
measures = [MeasureSpec.parse(n) for n in ("p@10", "ndcg")]
cfg = RboConfig(phi=0.9, depth=50)

for scenario, title in [
    (Scenario.DTQ, "document-only scenario (recall base pinned to t0)"),
    (Scenario.DTQ_PRIME, "document-and-qrels scenario (per-slice recall base)"),
]:
    matrix = build_matrix("demo", slices, runs, pivot, scenario, measures, cfg)
    print(f"\n{title}:\n")
    sys.stdout.write(render(matrix, "markdown").decode())

print(
    "\nthe same pipeline is scriptable end to end via the CLI: "
    "irdrift simulate / evaluate / change / diff / report"
)
