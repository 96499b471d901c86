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


def ranking(docs: list[str]) -> Ranking:
    """Docs best first, scored n, n-1, ..., 1."""
    scores = tuple(float(len(docs) - i) for i in range(len(docs)))
    return Ranking(tuple(docs), scores)


# topic -> doc -> grade
qrels = Qrels(
    {
        "1": {"a": 2, "b": 1, "c": 0},  # a highly relevant, c judged non-relevant
        "2": {"x": 1, "y": 0},
    }
)

good = ranking(["a", "b", "c"])  # relevant docs first
bad = ranking(["c", "z", "b", "a"])  # non-relevant and unjudged first
# a ranking does not know its topic: each measure takes the topic's grades
grades = qrels.by_topic["1"]

print("topic 1, relevant-first ranking:")
print(f"  P@3   = {precision_at_k(good, grades, 3):.4f}")
print(f"  nDCG  = {ndcg(good, grades):.4f}   (ideal ordering: exactly 1)")
print(f"  bpref = {bpref(good, grades):.4f}")

print("topic 1, non-relevant-first ranking:")
print(f"  P@3   = {precision_at_k(bad, grades, 3):.4f}")
print(f"  nDCG  = {ndcg(bad, grades):.4f}")
print(f"  bpref = {bpref(bad, grades):.4f}   (unjudged 'z' is ignored entirely)")

# Whole-run evaluation: per-topic scores, then the average (ARP). A run
# stores each ranking under its topic id.
run = RunFile(
    system_tag="demo",
    rankings={"1": good, "2": ranking(["y", "x"])},
)
for name in ("p@10", "ndcg", "bpref"):
    scores = evaluate_run(run, qrels, MeasureSpec.parse(name))
    per_topic = {str(t): round(v, 4) for t, v in sorted(scores.scores.items())}
    print(f"\n{name}: per-topic {per_topic}")
    print(f"{name}: ARP over {len(scores.scores)} topics = {arp(scores):.4f}")
