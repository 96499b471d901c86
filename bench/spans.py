"""Layer spans for the traced benchmark run, recorded from outside irdrift.

:class:`Tracer` replaces public functions of each irdrift module with
wrappers that record a span (name, start, end, parent id) and a few exact
counts. Each function is patched where its caller looks it up at call
time — ``irdrift.cli.load_config`` for a name the CLI imported,
``irdrift.ingest.parse_manifest`` for a module global — so no file of the
package changes. Spans stay in memory until :meth:`Tracer.dump`.

A layer's self time is the duration of its spans minus the time covered
by their child spans; the root ``cli.main`` span's self time is the CLI's
own work (flag parsing, orchestration, the score cache, file writes).
:meth:`Tracer.overhead` estimates what the wrappers themselves cost.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter


def _lines(tracer: "Tracer", name: str):
    """Argument hook: count the lines a parser consumes."""

    def hook(args, kwargs):
        def counted(lines):
            n = 0
            try:
                for line in lines:
                    n += 1
                    yield line
            finally:
                tracer.counts[f"{name}.lines"] += n

        return (counted(args[0]), *args[1:]), kwargs

    return hook


# (module, attribute, span name, count(args, result) -> {counter: amount})
PATCHES = [
    ("irdrift.cli", "main", "cli.main", None),
    ("irdrift.cli", "load_config", "ingest.config", None),
    ("irdrift.cli", "load_environment", "ingest.environment", lambda a, r: {"cli.envs_loaded": 1}),
    # the CLI's entry point and the parser share a span name, so run ingest
    # is timed whole even by a loader that no longer calls parse_run
    ("irdrift.cli", "load_run", "ingest.run", None),
    ("irdrift.ingest", "parse_run", "ingest.run", None),
    ("irdrift.ingest", "parse_qrels", "ingest.qrels", None),
    ("irdrift.ingest", "parse_manifest", "ingest.manifest", None),
    ("irdrift.ingest", "parse_topics", "ingest.topics", None),
    ("irdrift.cli", "format_manifest", "ingest.format", lambda a, r: {"ingest.format.bytes": len(r)}),
    ("irdrift.cli", "format_qrels", "ingest.format", lambda a, r: {"ingest.format.bytes": len(r)}),
    ("irdrift.cli", "format_topics", "ingest.format", lambda a, r: {"ingest.format.bytes": len(r)}),
    ("irdrift.ingest", "validate_environment", "model.validate",
     lambda a, r: {"model.validate.findings": len(r)}),
    ("irdrift.effectiveness", "evaluate_run", "effectiveness.evaluate",
     lambda a, r: {"effectiveness.topics_scored": len(r.scores)}),
    ("irdrift.effectiveness", "precision_at_k", "effectiveness.p", None),
    ("irdrift.effectiveness", "ndcg", "effectiveness.ndcg", None),
    ("irdrift.effectiveness", "bpref", "effectiveness.bpref", None),
    ("irdrift.effectiveness", "arp", "effectiveness.arp", None),
    ("irdrift.change", "mean_rbo", "change.rbo", lambda a, r: {"change.rbo.topics": len(r.per_topic)}),
    ("irdrift.change", "rbo_topic", "change.rbo",
     lambda a, r: {"change.rbo.steps": min(a[2].depth, max(len(a[0]), len(a[1])))}),
    ("irdrift.change", "rmse", "change.rmse", None),
    ("irdrift.change", "result_delta", "change.deltas", None),
    ("irdrift.change", "relative_improvement", "change.deltas", None),
    ("irdrift.change", "delta_ri", "change.deltas", None),
    ("irdrift.significance", "compare", "significance.compare", None),
    ("irdrift.diff", "summarize", "diff.summarize",
     lambda a, r: {"diff.ids_compared": sum(c.total_from + len(c.created)
                                            for c in (r.documents, r.topics, r.qrels))}),
    ("irdrift.diff", "diff_documents", "diff.documents", None),
    ("irdrift.diff", "diff_topics", "diff.topics", None),
    ("irdrift.diff", "diff_qrels", "diff.qrels", None),
    ("irdrift.simulate", "split_append_only", "simulate.split",
     lambda a, r: {"simulate.docs": len(a[0].corpus)}),
    ("irdrift.simulate", "common_topics", "simulate.common_topics", None),
    ("irdrift.report", "render", "report.render", lambda a, r: {"report.bytes": len(r)}),
    ("irdrift.report", "render_change_summary", "report.render", lambda a, r: {"report.bytes": len(r)}),
]
LINE_COUNTED = ("ingest.run", "ingest.qrels", "ingest.manifest", "ingest.topics")


class Tracer:
    """Spans and counts of traced CLI calls; patches only while installed."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, str, float, float, int | None]] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name: str, count, hook):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if hook is not None:
                args, kwargs = hook(args, kwargs)
            span_id = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else None
            tracer.spans.append((span_id, name, 0.0, 0.0, parent))
            tracer._stack.append(span_id)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                tracer._stack.pop()
                tracer.spans[span_id] = (span_id, name, start, end, parent)
            tracer.counts[f"{name}.calls"] += 1
            if count is not None:
                tracer.counts.update(count(args, result))
            return result

        return wrapper

    def hooked_lines(self) -> int:
        return sum(self.counts[f"{name}.lines"] for name in LINE_COUNTED)

    def overhead(self, per_call: float, per_line: float) -> float:
        """Seconds the wrappers added to the traced calls: one wrapped call
        per span and one hooked step per counted line (costs from
        :func:`wrapper_costs`)."""
        return per_call * len(self.spans) + per_line * self.hooked_lines()

    def install(self) -> None:
        for module_name, attr, name, count in PATCHES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            # the parse_* functions take their lines as the first argument
            hook = _lines(self, name) if attr.startswith("parse_") else None
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, count, hook))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def self_times(self) -> dict[str, float]:
        """Per span name: summed duration minus time covered by child spans.

        Spans come from one thread and nest strictly, so the children of a
        span never overlap and their covered time is their summed duration.
        """
        total: dict[str, float] = defaultdict(float)
        for _, name, start, end, _ in self.spans:
            total[name] += end - start
        for _, _, start, end, parent in self.spans:
            if parent is not None:
                total[self.spans[parent][1]] -= end - start
        return dict(total)

    def inclusive_time(self, name: str) -> float:
        """Duration of the outermost spans of one name."""
        return sum(end - start for _, n, start, end, parent in self.spans
                   if n == name and (parent is None or self.spans[parent][1] != name))

    def dump(self, path: Path) -> None:
        doc = {"spans": [dict(zip(("id", "name", "start", "end", "parent"), s)) for s in self.spans],
               "counts": dict(sorted(self.counts.items()))}
        path.write_text(json.dumps(doc) + "\n", encoding="utf-8")


def wrapper_costs(n: int = 20000, repeats: int = 5) -> tuple[float, float]:
    """(seconds per wrapped call, seconds per hooked line) that a wrapper
    adds to a no-op function and to a parser that only consumes its lines;
    medians over ``repeats`` timings of ``n`` calls or lines each."""

    def noop():
        return None

    def consume(lines):
        for _ in lines:
            pass

    def timed(fn, *args) -> float:
        start = perf_counter()
        fn(*args)
        return perf_counter() - start

    def calls(fn):
        for _ in range(n):
            fn()

    lines = ["x\n"] * n
    per_call, per_line = [], []
    for _ in range(repeats):
        tracer = Tracer()
        wrapped = tracer._wrap(noop, "noop", None, None)
        counted = tracer._wrap(consume, "parse", None, _lines(tracer, "parse"))
        per_call.append((timed(calls, wrapped) - timed(calls, noop)) / n)
        per_line.append((timed(counted, lines) - timed(consume, lines)) / n)
    return statistics.median(per_call), statistics.median(per_line)
