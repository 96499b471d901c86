"""The four temporal change measures on small, fully transparent inputs.

Rank-biased overlap compares two rankings of the same topic directly;
RMSE compares per-topic scores under one shared qrels set; the relative
ARP delta tracks one system over time; the pivot-relative margin shift
compares that drift against a reference system evaluated at the same
points in time.
"""

from irdrift import (
    MeasureSpec,
    PerTopicScores,
    Ranking,
    RboConfig,
    delta_ri,
    rbo_topic,
    relative_improvement,
    result_delta,
    rmse,
)


def ranking(docs: str) -> Ranking:
    """Docs best first, scored n, n-1, ..., 1."""
    names = tuple(docs.split())
    scores = tuple(float(len(names) - i) for i in range(len(names)))
    return Ranking(names, scores)


# --- rank-biased overlap -------------------------------------------------
before = ranking("a b c d e")
after = ranking("b a c d e")  # top-2 swapped

print("rank overlap between 'a b c d e' and 'b a c d e':")
for phi in (0.5, 0.8, 0.9):
    cfg = RboConfig(phi=phi, depth=100, normalize=True)
    print(f"  phi={phi}: {rbo_topic(before, after, cfg):.4f}")
print("  smaller phi concentrates weight on the top ranks, so the early")
print("  swap costs more there; identical rankings always score exactly 1")
print(f"  identity check: {rbo_topic(before, before, RboConfig()):.4f}")

# --- RMSE over per-topic scores -------------------------------------------
m = MeasureSpec.parse("p@10")


def scores(values: dict[str, float]) -> PerTopicScores:
    return PerTopicScores(m, values)


a = scores({"1": 1.0, "2": 0.5})
b = scores({"1": 0.5, "2": 0.5})
print(f"\nRMSE({{1.0, 0.5}} vs {{0.5, 0.5}}) = {rmse(a, b):.5f}  (= sqrt(0.25/2))")

# --- ARP-level deltas ------------------------------------------------------
# An ARP is a plain mean score. A system whose P@10 rises from 0.081 to
# 0.111 as the corpus grows:
drift = result_delta(0.081, 0.111)
print(f"\nrelative ARP delta 0.081 -> 0.111: {drift:.4f}  (negative = improved)")

# The same drift seen relative to a pivot system measured at both times
# (system ARP first, then the pivot's):
ri_before = relative_improvement(0.096, 0.081)  # t0
ri_after = relative_improvement(0.130, 0.111)  # t1
shift = delta_ri(ri_before, ri_after)
print(f"margin over pivot at t0: {ri_before:.4f}, at t1: {ri_after:.4f}")
print(f"margin shift: {shift:.4f}  (0 would mean the margin reproduced exactly;")
print("positive means the advantage over the pivot shrank)")
