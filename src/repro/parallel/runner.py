"""The multiprocess campaign pool.

:func:`run_campaign` fans a task list across ``workers`` processes
created with the ``spawn`` start method — each worker is a fresh
interpreter that imports :mod:`repro` from scratch, constructs a fresh
deployment per task, and shares no module state with the parent. Results
stream back over per-worker queues and are merged **in task order**, so
the report (and its fingerprint) is identical no matter how the OS
schedules workers.

Records merge in task order, and no result depends on the interpreter's
string-hash seed (checked by
``tests/test_parallel_campaign.py::test_pins_hold_at_another_hash_seed``).

Failure story
-------------
A runner that raises reports a structured
:class:`~repro.parallel.task.CampaignFailure` (kind ``"exception"``)
with the in-worker traceback. A worker that dies (hard crash) or blows
its per-task deadline never hangs the pool: the parent terminates it,
re-dispatches the task once to a fresh worker, and only then reports a
``"crash"`` / ``"timeout"`` failure. Timed-out workers get a
``faulthandler`` traceback dump on stderr before termination (armed via
``faulthandler.dump_traceback_later`` inside the worker).
"""

from __future__ import annotations

import dataclasses
import faulthandler
import multiprocessing as mp
import os
import pickle
import queue as queue_mod
import time
import traceback
from collections import deque
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence

from .runners import BUILTIN_RUNNERS, normalize_outcome, resolve_runner
from .task import CampaignFailure, CampaignReport, CampaignResult, CampaignTask

__all__ = [
    "run_campaign",
    "seed_tasks",
    "resolve_workers",
]

#: total attempts per task before a crash/timeout becomes a failure record
MAX_ATTEMPTS = 2

#: how long the parent waits on a result queue before checking liveness
_POLL_S = 0.05

#: grace period for worker shutdown before escalating to terminate()
_JOIN_S = 5.0


def resolve_workers(default: int = 1, env: str = "CHAOS_WORKERS") -> int:
    """Worker count from the environment knob, else ``default``."""
    raw = os.environ.get(env, "").strip()
    if not raw:
        return default
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(f"{env} must be an integer, got {raw!r}") from None
    if value < 1:
        raise ValueError(f"{env} must be >= 1, got {value}")
    return value


def seed_tasks(
    runner: str,
    options: Any,
    seeds: Iterable[int],
    schedule: Any = None,
    id_prefix: Optional[str] = None,
) -> List[CampaignTask]:
    """One task per seed, via ``dataclasses.replace(options, seed=seed)``.

    This is the shared shape of every sweep in the repo — the prefix
    defaults to the runner kind, giving task ids like ``chaos/seed-17``.
    """
    prefix = id_prefix if id_prefix is not None else runner
    return [
        CampaignTask(
            task_id=f"{prefix}/seed-{seed}",
            runner=runner,
            options=dataclasses.replace(options, seed=seed),
            schedule=schedule,
        )
        for seed in seeds
    ]


def _execute(task: CampaignTask, worker_id: int, attempts: int) -> Any:
    """Run one task to a record. Shared by workers and the in-process path."""
    start = time.perf_counter()
    try:
        fn = resolve_runner(task.runner)
        outcome = fn(task.options, task.schedule)
        ok, violations, fingerprint, stats, obs_snapshot, payload = (
            normalize_outcome(outcome)
        )
        return CampaignResult(
            task_id=task.task_id,
            runner=task.runner,
            ok=ok,
            violations=violations,
            fingerprint=fingerprint,
            stats=stats,
            obs_snapshot=obs_snapshot,
            payload=payload,
            wall_s=round(time.perf_counter() - start, 4),
            worker_id=worker_id,
            attempts=attempts,
        )
    except Exception as exc:
        return CampaignFailure(
            task_id=task.task_id,
            runner=task.runner,
            kind="exception",
            error=repr(exc),
            traceback=traceback.format_exc(),
            seed=getattr(task.options, "seed", None),
            wall_s=round(time.perf_counter() - start, 4),
            worker_id=worker_id,
            attempts=attempts,
        )


def _worker_main(
    worker_id: int,
    task_q: Any,
    result_q: Any,
    task_timeout_s: Optional[float],
) -> None:
    """Worker loop: fresh interpreter, one record per task frame."""
    faulthandler.enable()
    while True:
        frame = task_q.get()
        if frame is None:
            break
        index, attempts, task = frame
        if task_timeout_s:
            # Dump all thread stacks to stderr if the task overruns its
            # deadline — the parent will terminate us shortly after.
            faulthandler.dump_traceback_later(task_timeout_s, exit=False)
        try:
            record = _execute(task, worker_id, attempts)
        finally:
            if task_timeout_s:
                faulthandler.cancel_dump_traceback_later()
        try:
            # Pre-pickle in-worker so an unpicklable payload becomes a
            # structured failure instead of a queue feeder crash.
            blob = pickle.dumps((index, record))
        except Exception as exc:
            record = CampaignFailure(
                task_id=task.task_id,
                runner=task.runner,
                kind="exception",
                error=f"result not picklable: {exc!r}",
                seed=getattr(task.options, "seed", None),
                worker_id=worker_id,
                attempts=attempts,
            )
            blob = pickle.dumps((index, record))
        result_q.put(blob)


class _Worker:
    """Parent-side handle for one worker process."""

    def __init__(self, ctx: Any, worker_id: int,
                 task_timeout_s: Optional[float]) -> None:
        self.id = worker_id
        self.task_q = ctx.Queue()
        self.result_q = ctx.Queue()
        self.proc = ctx.Process(
            target=_worker_main,
            args=(worker_id, self.task_q, self.result_q, task_timeout_s),
            daemon=True,
        )
        self.proc.start()
        #: (index, attempts, task, deadline) of the in-flight frame
        self.current: Optional[tuple] = None

    def dispatch(self, index: int, attempts: int, task: CampaignTask,
                 task_timeout_s: Optional[float]) -> None:
        deadline = (
            time.monotonic() + task_timeout_s if task_timeout_s else None
        )
        self.current = (index, attempts, task, deadline)
        self.task_q.put((index, attempts, task))

    def discard(self) -> None:
        """Terminate and drop the process and its queues."""
        if self.proc.is_alive():
            self.proc.terminate()
        self.proc.join(timeout=_JOIN_S)
        for q in (self.task_q, self.result_q):
            q.close()
            q.cancel_join_thread()

    def shutdown(self) -> None:
        try:
            self.task_q.put(None)
        except Exception:
            pass
        self.proc.join(timeout=_JOIN_S)
        if self.proc.is_alive():
            self.proc.terminate()
            self.proc.join(timeout=_JOIN_S)
        for q in (self.task_q, self.result_q):
            q.close()
            q.cancel_join_thread()


def _run_serial(
    tasks: Sequence[CampaignTask],
    on_record: Optional[Callable[[int, Any], None]],
) -> List[Any]:
    records: List[Any] = []
    for index, task in enumerate(tasks):
        record = _execute(task, worker_id=0, attempts=1)
        records.append(record)
        if on_record is not None:
            on_record(index, record)
    return records


def run_campaign(
    tasks: Iterable[CampaignTask],
    workers: int = 1,
    task_timeout_s: Optional[float] = None,
    on_record: Optional[Callable[[int, Any], None]] = None,
) -> CampaignReport:
    """Execute ``tasks`` and merge the outcomes into a task-ordered report.

    ``workers=1`` without a ``task_timeout_s`` runs in-process (no spawn
    cost); otherwise spawned workers execute the tasks, since only a
    separate process can be stopped at its deadline. ``on_record`` is
    invoked in completion order with ``(task_index, record)`` for
    progress display — the report itself is always merged in task order.
    """
    task_list = list(tasks)
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    seen: set = set()
    for task in task_list:
        if task.task_id in seen:
            raise ValueError(f"duplicate task_id {task.task_id!r}")
        seen.add(task.task_id)
        if task.runner not in BUILTIN_RUNNERS and ":" not in task.runner:
            raise ValueError(
                f"task {task.task_id!r}: unknown runner {task.runner!r}"
            )

    wall_start = time.perf_counter()
    if not task_list:
        return CampaignReport(records=[], workers=workers, wall_s=0.0)

    if workers == 1 and task_timeout_s is None:
        records = _run_serial(task_list, on_record)
    else:
        records_map = _run_pool(task_list, workers, task_timeout_s, on_record)
        records = [records_map[index] for index in range(len(task_list))]

    return CampaignReport(
        records=records,
        workers=workers,
        wall_s=round(time.perf_counter() - wall_start, 4),
    )


def _run_pool(
    tasks: Sequence[CampaignTask],
    workers: int,
    task_timeout_s: Optional[float],
    on_record: Optional[Callable[[int, Any], None]],
) -> Dict[int, Any]:
    ctx = mp.get_context("spawn")
    pool_size = max(1, min(workers, len(tasks)))
    next_worker_id = 0

    def new_worker() -> _Worker:
        nonlocal next_worker_id
        worker = _Worker(ctx, next_worker_id, task_timeout_s)
        next_worker_id += 1
        return worker

    pool: List[_Worker] = [new_worker() for _ in range(pool_size)]
    pending: deque = deque((index, 1) for index in range(len(tasks)))
    records: Dict[int, Any] = {}

    def fail_or_retry(worker: _Worker, kind: str) -> None:
        """Handle a dead/overdue worker holding an in-flight frame."""
        index, attempts, task, _ = worker.current  # type: ignore[misc]
        worker.discard()
        if attempts < MAX_ATTEMPTS:
            pending.appendleft((index, attempts + 1))
        else:
            exitcode = worker.proc.exitcode
            records[index] = CampaignFailure(
                task_id=task.task_id,
                runner=task.runner,
                kind=kind,
                error=(
                    f"worker {worker.id} {kind}"
                    + (f" (exitcode {exitcode})" if kind == "crash" else "")
                    + f" after {attempts} attempt(s)"
                ),
                seed=getattr(task.options, "seed", None),
                worker_id=worker.id,
                attempts=attempts,
            )
            if on_record is not None:
                on_record(index, records[index])

    try:
        while len(records) < len(tasks):
            # Keep every live worker fed.
            for slot, worker in enumerate(pool):
                if worker.current is None and pending:
                    if not worker.proc.is_alive():
                        worker.discard()
                        worker = pool[slot] = new_worker()
                    index, attempts = pending.popleft()
                    worker.dispatch(index, attempts, tasks[index],
                                    task_timeout_s)

            for slot, worker in enumerate(pool):
                if worker.current is None:
                    continue
                index, attempts, task, deadline = worker.current
                try:
                    blob = worker.result_q.get(timeout=_POLL_S)
                except queue_mod.Empty:
                    if not worker.proc.is_alive():
                        fail_or_retry(worker, "crash")
                        pool[slot] = new_worker()
                    elif deadline is not None and time.monotonic() > deadline:
                        # The worker already printed a faulthandler dump
                        # (armed in-worker at task start).
                        fail_or_retry(worker, "timeout")
                        pool[slot] = new_worker()
                    continue
                result_index, record = pickle.loads(blob)
                worker.current = None
                records[result_index] = record
                if on_record is not None:
                    on_record(result_index, record)
    finally:
        for worker in pool:
            worker.shutdown()
    return records
