"""Build an evaluation environment from on-disk files and validate it.

An environment bundles three components: the document corpus (a JSON-lines
manifest carrying id, length, optional timestamp), the topics, and the
relevance judgments (TREC qrels). This demo writes a tiny set of files,
loads them, and shows what validation surfaces.
"""

import tempfile
import warnings
from pathlib import Path

from irdrift import EEConfig, load_environment, load_run

with tempfile.TemporaryDirectory(prefix="irdrift-demo-") as tmp:
    work = Path(tmp)
    print(f"writing a toy collection under {work}\n")

    (work / "corpus.jsonl").write_text(
        '{"doc_id": "d1", "length": 120, "timestamp": "2019-03-01"}\n'
        '{"doc_id": "d2", "length": 87, "timestamp": "2019-07-15"}\n'
        '{"doc_id": "d3", "length": 430, "timestamp": "2020-01-20"}\n'
    )

    # qrels: topic, iteration (ignored), doc, grade
    (work / "qrels.txt").write_text(
        "1 0 d1 2\n"
        "1 0 d2 0\n"
        "2 0 d3 1\n"
        "2 0 ghost 1\n"  # judged but absent from the corpus: tolerated, flagged
    )

    config = EEConfig(
        label="t0", manifest_path=work / "corpus.jsonl", qrels_path=work / "qrels.txt"
    )
    # validation findings arrive as warnings; they never block loading
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        ee = load_environment(config)

    print(f"environment {ee.label!r}:")
    print(f"  documents: {len(ee.corpus)}")
    print(f"  topics:    {sorted(ee.topics)} (inferred from qrels, no topics file)")
    print(f"  judgments: {len(ee.qrels)}")

    print("\nvalidation warnings:")
    for warning in caught:
        print(f"  {warning.message}")

    # Run files are canonicalized on ingest: entries re-sorted by score
    # (descending, doc id breaking ties), whatever the file's rank column
    # claimed. A ranking keeps its docs and scores; the rank is the position.
    (work / "run.txt").write_text(
        "1 Q0 d2 1 3.5 demo\n"
        "1 Q0 d1 2 9.9 demo\n"  # higher score: must end up at rank 1
        "2 Q0 d3 1 1.2 demo\n"
    )
    run = load_run(work / "run.txt")
    print(f"\nrun {run.system_tag!r} after canonicalization:")
    for topic in sorted(run.rankings):
        ranking = run.rankings[topic]
        for rank, (doc, score) in enumerate(zip(ranking.docs, ranking.scores), start=1):
            print(f"  topic {topic}: rank {rank} {doc} (score {score})")
