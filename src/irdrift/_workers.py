"""Run independent tasks on one pinned worker process per allowed CPU.

:func:`run_tasks` calls each task once and returns the results in task
order. Seen from outside, it behaves as a plain loop that calls the
tasks one after another. Each task's warnings are shown in task order,
and the loop stops at the first task that raises, with its exception.

The tasks run on min(tasks, allowed CPUs) processes: this one and forked
workers. Task i goes to process i mod n, and each process is pinned to
its own allowed CPU, because a forked child otherwise stays on its
parent's CPU. The tasks and everything they read are inherited through
the fork, so only results travel: each worker pickles its results, its
recorded warnings and its first exception into a pipe, then ends with
``os._exit``. The parent reaps every worker and restores its own CPU
mask before it shows any warning or raises any error. A worker that ends
without sending a result is an internal fault (:class:`RuntimeError`).

Every task records its warnings under ``simplefilter("always")``, in a
worker or not, and the parent re-issues them with
``warnings.warn_explicit`` at the place each was raised, under its own
filters and in that module's registry. So ``-W error`` raises the first
warning in task order, and the default filter shows a repeated warning
once, as a plain loop would. The same code runs in this process alone
when there is one CPU or one task, when the platform has no ``os.fork``
or ``os.sched_getaffinity``, or when another thread is running, as a
forked child would hold only a copy of this one.
"""

from __future__ import annotations

import os
import signal
import sys
import warnings
from collections.abc import Callable, Sequence
from typing import Any

# a task's index, its result, its recorded warnings as (message, category,
# filename, lineno), and the exception it raised or None
_Outcome = tuple[int, Any, list[tuple[Warning, type, str, int]], Exception | None]


def _cpus() -> list[int]:
    """The CPUs this process may run on, in ascending order; [] where the
    platform does not say."""
    if not hasattr(os, "sched_getaffinity"):
        return []
    return sorted(os.sched_getaffinity(0))


def _pin(cpu: int) -> None:
    try:
        os.sched_setaffinity(0, {cpu})
    except OSError:  # the CPU left the allowed set; run unpinned
        pass


def _other_threads() -> bool:
    threading = sys.modules.get("threading")
    return threading is not None and threading.active_count() > 1


def run_tasks(tasks: Sequence[Callable[[], Any]]) -> list[Any]:
    """Each task's result, in task order; see the module docstring."""
    cpus = _cpus()
    n = min(len(tasks), len(cpus))
    if n < 2 or not hasattr(os, "fork") or _other_threads():
        return _replay(len(tasks), _run_share(tasks, range(len(tasks))), {})
    import pickle

    for stream in (sys.stdout, sys.stderr):
        if stream is not None:
            stream.flush()
    saved = os.sched_getaffinity(0)
    # pid -> (share, read end of its pipe, or None once a file owns it)
    workers: dict[int, tuple[int, int | None]] = {}
    outcomes: list[_Outcome] = []
    lost: dict[int, str] = {}  # task index -> how the worker that had it ended
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
            workers[pid] = (share, read)
        _pin(cpus[0])
        mine = [i for i in range(len(tasks)) if i % n == 0 or i % n > len(workers)]
        outcomes += _run_share(tasks, mine)
        for pid, (share, read) in list(workers.items()):
            workers[pid] = (share, None)
            with open(read, "rb") as pipe:
                data = pipe.read()
            _, status = os.waitpid(pid, 0)
            del workers[pid]
            if data:
                outcomes += pickle.loads(data)
            else:
                how = (
                    f"worker process {pid} ended without a result "
                    f"(exit status {os.waitstatus_to_exitcode(status)})"
                )
                lost.update(dict.fromkeys(range(share, len(tasks), n), how))
    finally:
        # left only when this process failed: stop and reap those workers
        for pid, (_, read) in workers.items():
            if read is not None:
                os.close(read)
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        try:
            os.sched_setaffinity(0, saved)
        except OSError:
            pass
    return _replay(len(tasks), outcomes, lost)


def _worker(tasks: Sequence[Callable[[], Any]], share: int, n: int, cpu: int, write: int) -> None:
    """The body of a forked worker; never returns."""
    status = 1
    try:
        import pickle

        _pin(cpu)
        data = pickle.dumps(_run_share(tasks, range(share, len(tasks), n)))
        with open(write, "wb") as pipe:
            pipe.write(data)
        status = 0
    finally:
        os._exit(status)


def _run_share(tasks: Sequence[Callable[[], Any]], indices: Sequence[int]) -> list[_Outcome]:
    """Run the tasks at ``indices`` in order, recording each one's warnings;
    stops after the first task that raises."""
    outcomes: list[_Outcome] = []
    for i in indices:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                result, error = tasks[i](), None
            except Exception as exc:  # re-raised by _replay, in task order
                result, error = None, exc
        shown = [(w.message, w.category, w.filename, w.lineno) for w in caught]
        outcomes.append((i, result, shown, error))
        if error is not None:
            break
    return outcomes


def _replay(count: int, outcomes: list[_Outcome], lost: dict[int, str]) -> list[Any]:
    """Issue each task's warnings and return its result, in task order;
    raise the first task's error, or a lost task's fault, instead."""
    by_index = {outcome[0]: outcome for outcome in outcomes}
    modules = {getattr(m, "__file__", None): m for m in list(sys.modules.values())}
    results = []
    for i in range(count):
        if i in lost:
            raise RuntimeError(lost[i])
        _, result, shown, error = by_index[i]
        for message, category, filename, lineno in shown:
            # the module's own registry, so a repeat is shown once as before
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
        if error is not None:
            raise error
        results.append(result)
    return results
