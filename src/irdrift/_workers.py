"""Run independent tasks on one worker process per allowed CPU.

:func:`run_tasks` calls each task once and returns the results in task
order. Seen from outside, it behaves as a plain loop that calls the
tasks one after another. Each task's warnings are shown in task order,
and the loop stops at the first task that raises, with its exception.
Its tasks are the scoring tasks of :func:`irdrift.change.build_matrix`.

The tasks run on min(tasks, allowed CPUs) processes: this one and forked
workers. Task i goes to process i mod n. Only the workers are pinned,
each to its own allowed CPU, because a forked child otherwise stays on
its parent's CPU; this process keeps its CPU mask as it was.
The tasks and everything they read are inherited through the fork, so
only results travel: each worker pickles its results, its recorded
warnings and its first exception into a pipe, then ends with
``os._exit``. The parent reaps every worker before it shows any warning
or raises any error. A worker that ends without sending a result is an
internal fault: each of its tasks gives a :class:`RuntimeError`.

Every task records its warnings under ``simplefilter("always")``, in a
worker or not (``_run_share``), and the parent re-issues them with
``warnings.warn_explicit`` at the place each was raised, under its own
filters and in that module's registry (``_warn_again``). So ``-W error``
raises the first warning in task order, and the default filter shows a
repeated warning once, as a plain loop would. The same code runs in this
process alone when there is one CPU or one task, when the platform has
no ``os.fork`` or ``os.sched_getaffinity``, or when another thread is
running, as a forked child would hold only a copy of this one. This
module imports no other module of the package.
"""

from __future__ import annotations

import os
import signal
import sys
import warnings
from collections.abc import Callable, Sequence
from typing import Any, BinaryIO

# a call's result (None if it raised), the warnings it raised as (message,
# category, filename, lineno), and the exception it raised or None
_Recorded = tuple[Any, list[tuple[Warning, type, str, int]], Exception | None]
# a task's index and what it gave
_Outcome = tuple[int, _Recorded]


def _cpus() -> list[int]:
    """The CPUs this process may run on, in ascending order; [] where the
    platform does not say."""
    if not hasattr(os, "sched_getaffinity"):
        return []
    return sorted(os.sched_getaffinity(0))


def _other_threads() -> bool:
    threading = sys.modules.get("threading")
    return threading is not None and threading.active_count() > 1


def run_tasks(tasks: Sequence[Callable[[], Any]]) -> list[Any]:
    """Each task's result, in task order; see the module docstring."""
    cpus = _cpus()
    n = min(len(tasks), len(cpus))
    if n < 2 or not hasattr(os, "fork") or _other_threads():
        return _replay(len(tasks), _run_share(tasks, range(len(tasks))))
    import pickle

    for stream in (sys.stdout, sys.stderr):
        if stream is not None:
            stream.flush()
    workers: dict[int, tuple[int, BinaryIO]] = {}  # pid -> (share, read end of its pipe)
    outcomes: list[_Outcome] = []
    try:
        for share in range(1, n):
            read, write = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read)
                os.close(write)
                break  # this process runs the shares left
            if pid == 0:
                _worker(tasks, share, n, cpus[share], write)
            os.close(write)
            workers[pid] = (share, open(read, "rb"))
        mine = [i for i in range(len(tasks)) if i % n == 0 or i % n > len(workers)]
        outcomes += _run_share(tasks, mine)
        for pid, (share, pipe) in list(workers.items()):
            with pipe:
                data = pipe.read()
            _, status = os.waitpid(pid, 0)
            del workers[pid]
            if data:
                outcomes += pickle.loads(data)
            else:
                fault = RuntimeError(
                    f"worker process {pid} ended without a result "
                    f"(exit status {os.waitstatus_to_exitcode(status)})"
                )
                outcomes += [(i, (None, [], fault)) for i in range(share, len(tasks), n)]
    finally:
        # left only when this process failed: stop and reap those workers
        for pid, (_, pipe) in workers.items():
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return _replay(len(tasks), outcomes)


def _worker(tasks: Sequence[Callable[[], Any]], share: int, n: int, cpu: int, write: int) -> None:
    """The body of a forked worker, pinned to ``cpu``; never returns."""
    status = 1
    try:
        import pickle

        try:
            os.sched_setaffinity(0, {cpu})
        except OSError:  # the CPU left the allowed set; run unpinned
            pass
        data = pickle.dumps(_run_share(tasks, range(share, len(tasks), n)))
        with open(write, "wb") as pipe:
            pipe.write(data)
        status = 0
    finally:
        os._exit(status)


def _run_share(tasks: Sequence[Callable[[], Any]], indices: Sequence[int]) -> list[_Outcome]:
    """Call the tasks at ``indices`` in turn, up to and including the first
    that raises, and record what each gave. Warnings are recorded under
    ``simplefilter("always")``, so none is lost to a filter before
    :func:`_warn_again` shows it under the caller's filters."""
    outcomes: list[_Outcome] = []
    for i in indices:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                result, error = tasks[i](), None
            except Exception as exc:  # raised again by _replay, in task order
                result, error = None, exc
        shown = [(w.message, w.category, w.filename, w.lineno) for w in caught]
        outcomes.append((i, (result, shown, error)))
        if error is not None:
            break
    return outcomes


def _replay(count: int, outcomes: list[_Outcome]) -> list[Any]:
    """Issue each task's warnings and return its result, in task order;
    raise the first task's error instead."""
    by_index = dict(outcomes)
    results = []
    for i in range(count):
        result, shown, error = by_index[i]
        _warn_again(shown)
        if error is not None:
            raise error
        results.append(result)
    return results


def _warn_again(shown: list[tuple[Warning, type, str, int]]) -> None:
    """Warn recorded warnings again with ``warnings.warn_explicit``, each
    at the place it was raised, under the current filters and in that
    module's registry, so the default filter shows a repeat once, as it
    would have shown the warnings raised directly."""
    if not shown:
        return
    modules = {getattr(m, "__file__", None): m for m in list(sys.modules.values())}
    for message, category, filename, lineno in shown:
        namespace = vars(modules[filename]) if filename in modules else {}
        warnings.warn_explicit(
            message,
            category,
            filename,
            lineno,
            module=namespace.get("__name__"),
            registry=namespace.setdefault("__warningregistry__", {}),
            module_globals=namespace or None,
        )
