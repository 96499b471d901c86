"""irdrift: quantify how IR retrieval results drift across evolving test
collections.

The library diffs evaluation environments (documents, topics, qrels) with
create/update/delete semantics, scores runs with P@k, nDCG, and bpref,
and measures temporal change through rank-biased overlap, per-topic score
RMSE, relative ARP deltas, and pivot-relative margin shifts, with paired
significance testing and deterministic report rendering.

Every public name is listed once, in :data:`_EXPORTS`, with the submodule
that defines it. ``import irdrift`` imports no submodule; the first access
to a name (``irdrift.build_matrix``, ``from irdrift import DocMeta``)
imports its submodule (PEP 562), so a caller pays only for the modules it
uses. ``from irdrift import *`` imports them all.
"""

from importlib import import_module

__version__ = "0.1.0"

# public name -> the submodule that defines it
_EXPORTS = {
    name: module
    for module, names in {
        "change": (
            "ChangeScores", "RboConfig", "build_matrix", "delta_ri", "mean_rbo",
            "rbo_topic", "relative_improvement", "result_delta", "rmse",
        ),
        "diff": (
            "ChangeSummary", "ComponentDiff", "diff_documents", "diff_qrels",
            "diff_topics", "summarize",
        ),
        "effectiveness": (
            "arp", "bpref", "evaluate_run", "ndcg", "precision_at_k", "score_runs",
        ),
        "ingest": (
            "EEConfig", "IngestWarning", "ParseError", "format_manifest",
            "format_qrels", "format_run", "format_topics", "load_config",
            "load_environment", "load_environments", "load_manifest", "load_qrels",
            "load_run", "parse_manifest", "parse_manifest_ids", "parse_qrels",
            "parse_run", "parse_topics",
        ),
        "model": (
            "Corpus", "DocId", "DocMeta", "EvaluationEnvironment", "MeasureKind",
            "MeasureSpec", "PerTopicScores", "Qrels", "Ranking", "RunFile",
            "Scenario", "TopicId", "validate_environment",
        ),
        "report": (
            "ChangeReport", "LongitudinalMatrix", "matrix_from_json", "render",
            "render_change_summary",
        ),
        "significance": ("TestResult", "bonferroni", "compare", "paired_t_test"),
        "simulate": ("SimulationPlan", "common_topics", "split_append_only"),
    }.items()
    for name in names
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
