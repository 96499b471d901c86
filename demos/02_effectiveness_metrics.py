"""Score a run with P@k, nDCG, and bpref.

The three measures read the same graded qrels differently: P@k and bpref
binarize at grade >= 1, nDCG consumes the raw grades. Topics without any
judged-relevant document are excluded from averaging rather than scored
zero.
"""

from irdrift import (
    MeasureSpec,
    Qrels,
    Ranking,
    RunFile,
    arp,
    bpref,
    evaluate_run,
    ndcg,
    precision_at_k,
)


def ranking(topic: str, docs: list[str]) -> Ranking:
    """Docs best first, scored n, n-1, ..., 1."""
    scores = tuple(float(len(docs) - i) for i in range(len(docs)))
    return Ranking(topic, tuple(docs), scores)


# topic -> doc -> grade
qrels = Qrels(
    {
        "1": {"a": 2, "b": 1, "c": 0},  # a highly relevant, c judged non-relevant
        "2": {"x": 1, "y": 0},
    }
)

good = ranking("1", ["a", "b", "c"])  # relevant docs first
bad = ranking("1", ["c", "z", "b", "a"])  # non-relevant and unjudged first

print("topic 1, relevant-first ranking:")
print(f"  P@3   = {precision_at_k(good, qrels, 3):.4f}")
print(f"  nDCG  = {ndcg(good, qrels):.4f}   (ideal ordering: exactly 1)")
print(f"  bpref = {bpref(good, qrels):.4f}")

print("topic 1, non-relevant-first ranking:")
print(f"  P@3   = {precision_at_k(bad, qrels, 3):.4f}")
print(f"  nDCG  = {ndcg(bad, qrels):.4f}")
print(f"  bpref = {bpref(bad, qrels):.4f}   (unjudged 'z' is ignored entirely)")

# Whole-run evaluation: per-topic scores, then the average (ARP).
run = RunFile(
    system_tag="demo",
    ee_label="t0",
    rankings={"1": good, "2": ranking("2", ["y", "x"])},
)
for name in ("p@10", "ndcg", "bpref"):
    scores = evaluate_run(run, qrels, MeasureSpec.parse(name))
    result = arp(scores)
    per_topic = {str(t): round(v, 4) for t, v in sorted(scores.scores.items())}
    print(f"\n{name}: per-topic {per_topic}")
    print(f"{name}: ARP over {result.evaluated_topic_count} topics = {result.mean:.4f}")
