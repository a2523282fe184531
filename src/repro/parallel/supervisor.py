"""Worker supervision for the process execution backend.

The :class:`~repro.parallel.backend.ProcessPoolBackend` used to trust its
pool: a worker that died took the run down (or hung it forever on
``AsyncResult.get()``), and a corrupted result slot was served to the
engine unchecked.  :class:`WorkerSupervisor` wraps the pool with the
defenses a production host needs:

* **per-task deadlines** — every task must produce a result within
  ``FaultPolicy.task_deadline_s`` of submission; the wait loop polls at
  ``poll_interval_s`` so a dead pool can never block the run.
* **heartbeat-based hang detection** — workers stamp a shared-memory
  heartbeat board at task entry/exit; on a deadline miss the supervisor
  reports which workers hold stale (in-task) stamps, distinguishing a
  *hung* worker from a merely saturated queue.
* **dead-worker detection and respawn** — the pool's worker pids are
  polled every interval; a vanished or non-alive pid fails the in-flight
  task immediately (no need to wait out the deadline) and the pool
  repopulates (``multiprocessing.Pool`` respawns workers through the
  configured initializer, which re-attaches the *existing* shared-memory
  export — nothing is re-exported).  If the pool object itself is broken,
  :meth:`_rebuild_pool` replaces it wholesale against the same export.
* **bounded retry with exponential backoff** — a failed task (timeout,
  crash, worker exception, corrupt slot) is resubmitted up to
  ``max_retries`` times, waiting ``backoff_base_s * backoff_factor**n``
  between attempts.  Resubmissions strip any chaos directive
  (:mod:`repro.parallel.chaos` faults fire on first attempts only) and
  move to a fresh result slot; the abandoned slot is quarantined because
  the original worker may still write it.
* **slot-digest validation** — workers return a BLAKE2b digest of the
  packed slot bytes; the supervisor recomputes it over the shared buffer
  before the result is unpacked and treats a mismatch as a failure.
* **graceful degradation** — once a single task exhausts its retries or
  the lifetime failure count crosses ``failure_budget``, the supervisor
  raises :class:`FailureBudgetExceeded` and the backend falls back to
  serial in-process sampling (bit-identical by the backend contract), so
  a persistently sick host finishes the run slower instead of crashing.

Every transition is emitted as a typed telemetry event (``worker_error``,
``worker_timeout``, ``worker_respawn``, ``task_retry``, ``degraded``) and
mirrored into the backend's lifetime counters.

Timing never affects results: a spurious deadline miss on a loaded CI
machine just resubmits a deterministic task, which produces the same
bytes — pinned with the rest of the bit-identity contract by
``tests/parallel/test_chaos.py``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import multiprocessing
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.parallel.shm import create_segment, destroy_segment
from repro.utils.validation import env_number

__all__ = [
    "FaultPolicy",
    "SupervisionError",
    "WorkerCrash",
    "WorkerTimeout",
    "SlotCorruption",
    "FailureBudgetExceeded",
    "HeartbeatBoard",
    "Flight",
    "WorkerSupervisor",
]


# ---------------------------------------------------------------------- #
# policy
# ---------------------------------------------------------------------- #
@dataclass
class FaultPolicy:
    """Supervision knobs of one process-backend run (``APTConfig.fault_policy``).

    Defaults are env-overridable (``REPRO_TASK_DEADLINE_S``,
    ``REPRO_MAX_RETRIES``, ``REPRO_FAILURE_BUDGET``) so CI legs can tighten
    them without code changes.
    """

    #: seconds a task may take from (re)submission to result
    task_deadline_s: float = field(
        default_factory=lambda: env_number("REPRO_TASK_DEADLINE_S", 30.0, float)
    )
    #: resubmissions allowed per task before giving up
    max_retries: int = field(
        default_factory=lambda: env_number("REPRO_MAX_RETRIES", 3)
    )
    #: lifetime failures (timeouts + crashes + corruptions) before the
    #: backend degrades to serial sampling
    failure_budget: int = field(
        default_factory=lambda: env_number("REPRO_FAILURE_BUDGET", 16)
    )
    #: first retry's backoff; attempt ``n`` waits ``base * factor**n``
    backoff_base_s: float = 0.05
    backoff_factor: float = 2.0
    #: cap on any single backoff sleep
    backoff_max_s: float = 2.0
    #: result/worker-liveness polling cadence
    poll_interval_s: float = 0.02
    #: longest an epoch drain waits per abandoned prefetch before
    #: quarantining its slot
    drain_timeout_s: float = 5.0
    #: verify the BLAKE2b digest of every shared-memory result slot
    validate_digests: bool = True

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> "FaultPolicy":
        if not float(self.task_deadline_s) > 0.0:
            raise ValueError(
                f"task_deadline_s must be positive seconds, got "
                f"{self.task_deadline_s}"
            )
        if int(self.max_retries) < 0:
            raise ValueError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )
        if int(self.failure_budget) < 0:
            raise ValueError(
                f"failure_budget must be >= 0, got {self.failure_budget}"
            )
        if float(self.backoff_base_s) < 0.0 or float(self.backoff_max_s) < 0.0:
            raise ValueError("backoff seconds must be >= 0")
        if float(self.backoff_factor) < 1.0:
            raise ValueError(
                f"backoff_factor must be >= 1, got {self.backoff_factor}"
            )
        if not float(self.poll_interval_s) > 0.0:
            raise ValueError(
                f"poll_interval_s must be positive, got {self.poll_interval_s}"
            )
        if not float(self.drain_timeout_s) > 0.0:
            raise ValueError(
                f"drain_timeout_s must be positive, got {self.drain_timeout_s}"
            )
        self.task_deadline_s = float(self.task_deadline_s)
        self.max_retries = int(self.max_retries)
        self.failure_budget = int(self.failure_budget)
        self.backoff_base_s = float(self.backoff_base_s)
        self.backoff_factor = float(self.backoff_factor)
        self.backoff_max_s = float(self.backoff_max_s)
        self.poll_interval_s = float(self.poll_interval_s)
        self.drain_timeout_s = float(self.drain_timeout_s)
        self.validate_digests = bool(self.validate_digests)
        return self

    def backoff_at(self, attempt: int) -> float:
        """Backoff before resubmission number ``attempt`` (0-based)."""
        return min(
            self.backoff_base_s * self.backoff_factor ** max(attempt, 0),
            self.backoff_max_s,
        )

    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)


# ---------------------------------------------------------------------- #
# failures
# ---------------------------------------------------------------------- #
class SupervisionError(RuntimeError):
    """Base of every failure the supervisor classifies."""


class WorkerCrash(SupervisionError):
    """A pool worker process died while a task was in flight."""


class WorkerTimeout(SupervisionError):
    """A task missed its deadline (hung or starved worker)."""


class SlotCorruption(SupervisionError):
    """A result slot's bytes did not match the worker's digest."""


class FailureBudgetExceeded(SupervisionError):
    """Retries are exhausted; the caller should degrade to serial."""


#: exception types a teardown/flush path may swallow after reporting —
#: everything a dying worker or torn-down pool realistically raises.
#: Deliberately scoped: programming errors (TypeError, KeyError, ...)
#: and process-fatal conditions still propagate.
TEARDOWN_ERRORS = (
    OSError,
    EOFError,
    ValueError,
    RuntimeError,
    multiprocessing.TimeoutError,
    multiprocessing.ProcessError,
)


# ---------------------------------------------------------------------- #
# heartbeats
# ---------------------------------------------------------------------- #
class HeartbeatBoard:
    """A shared float64 stamp per worker: positive = in task, negative = idle.

    Workers claim a board index at pool init (a shared counter, modulo
    capacity so respawned workers wrap instead of overflowing) and stamp
    ``+monotonic()`` when a task starts, ``-monotonic()`` when it ends.
    The supervisor reads the board to tell a *hung* worker (stale positive
    stamp) from a starved queue when a deadline trips.
    """

    def __init__(self, capacity: int):
        self.capacity = max(int(capacity), 1)
        self._segment = create_segment(self.capacity * 8)
        self._board = np.ndarray(
            (self.capacity,), dtype=np.float64, buffer=self._segment.buf
        )
        self._board[:] = 0.0

    @property
    def descriptor(self) -> Tuple[str, int]:
        """Picklable ``(segment name, capacity)`` for worker attachment."""
        return (self._segment.name, self.capacity)

    def stamps(self) -> np.ndarray:
        return self._board.copy()

    def stale_workers(self, older_than_s: float) -> List[int]:
        """Indices whose in-task stamp is older than ``older_than_s``."""
        now = time.monotonic()
        stamps = self.stamps()
        return [
            int(i)
            for i in np.nonzero((stamps > 0.0) & (now - stamps > older_than_s))[0]
        ]

    def close(self) -> None:
        if self._segment is not None:
            self._board = None
            destroy_segment(self._segment)
            self._segment = None


# ---------------------------------------------------------------------- #
# supervised pool
# ---------------------------------------------------------------------- #
@dataclass
class Flight:
    """One in-flight task attempt and everything needed to retry it."""

    payload: Dict[str, Any]
    handle: Any
    slot: Optional[str]
    digest: bytes = b""
    attempts: int = 0
    submitted_at: float = 0.0
    #: backend-side chaos: skip recycling this task's slot when served
    leak_slot: bool = False


class WorkerSupervisor:
    """Owns the worker pool of one backend and supervises every task.

    The backend stays in charge of *what* runs (payloads, slots, pipeline
    order); the supervisor is in charge of *whether it ran* — deadlines,
    retries, respawns, digest checks, and the failure budget.

    ``emit`` and ``count`` are rebound by the backend to the active
    telemetry collector / counter sink; they default to no-ops so the
    supervisor works detached (unit tests, drains after teardown).
    """

    def __init__(
        self,
        descriptor,
        num_workers: int,
        policy: Optional[FaultPolicy] = None,
        *,
        initializer: Callable = None,
        heartbeats: bool = True,
    ):
        from repro.parallel.worker import init_worker

        self.descriptor = descriptor
        self.num_workers = int(num_workers)
        if self.num_workers <= 0:
            raise ValueError(
                f"num_workers must be positive, got {num_workers} "
                f"(0 means 'auto' only at the APTConfig level)"
            )
        self.policy = (policy or FaultPolicy()).validate()
        self._initializer = initializer or init_worker
        # Respawned workers claim fresh board indices; size the board so
        # a realistic number of respawns never wraps onto a live worker.
        self.heartbeats = (
            HeartbeatBoard(self.num_workers * 8) if heartbeats else None
        )
        self._hb_counter = multiprocessing.Value("l", 0)
        self._pool = None
        self._pids: set = set()
        self._reported_dead: set = set()
        #: pids of the most recently observed worker deaths — used to name
        #: the offending workers in the exception messages
        self.last_dead: List[int] = []
        self.failures = 0
        self.respawns = 0
        self._closed = False
        self.emit: Callable[..., None] = lambda kind, **data: None
        self.count: Callable[..., None] = lambda name, value=1.0: None
        self._spawn_pool()

    # ------------------------------------------------------------------ #
    # pool lifecycle
    # ------------------------------------------------------------------ #
    def _initargs(self) -> tuple:
        hb = self.heartbeats.descriptor if self.heartbeats is not None else None
        return (self.descriptor, hb, self._hb_counter)

    def _spawn_pool(self) -> None:
        self._pool = multiprocessing.get_context().Pool(
            self.num_workers,
            initializer=self._initializer,
            initargs=self._initargs(),
        )
        self._pids = {p.pid for p in self._pool._pool}
        self._reported_dead = set()

    def _rebuild_pool(self) -> None:
        """Replace a broken pool wholesale; re-attaches the same export."""
        old = self._pool
        try:
            old.terminate()
            old.join()
        except TEARDOWN_ERRORS as exc:
            self.count("worker_error")
            self.emit("worker_error", error=type(exc).__name__, where="rebuild")
        self.respawns += 1
        self.count("pool_rebuilds")
        self._spawn_pool()
        self.emit("worker_respawn", scope="pool", workers=self.num_workers)

    def _poll_workers(self) -> bool:
        """Update the liveness picture; True when a death was observed.

        ``multiprocessing.Pool`` repopulates dead workers on its own (its
        maintenance thread re-runs the initializer, which re-attaches the
        existing shared-memory export), so detection — not respawning —
        is the job here.  Each death is reported exactly once.
        """
        procs = list(self._pool._pool)
        current = {p.pid for p in procs}
        dead = {p.pid for p in procs if not p.is_alive()}
        vanished = (self._pids - current) | dead
        fresh = vanished - self._reported_dead
        if fresh:
            self._reported_dead |= fresh
            self.last_dead = sorted(fresh)
            self.respawns += len(fresh)
            self.count("worker_deaths", float(len(fresh)))
            self.emit(
                "worker_respawn",
                scope="worker",
                died=sorted(fresh),
                alive=len(current - dead),
            )
        self._pids = current
        return bool(fresh)

    def _budget_note(self) -> str:
        """``failures X / budget Y`` fragment for exception messages."""
        return (
            f"failures {self.failures} / budget "
            f"{self.policy.failure_budget}"
        )

    def _offender_note(self) -> str:
        """Names the worker(s) most recently seen dying, if any."""
        if self.last_dead:
            return "worker " + ", ".join(f"pid {p}" for p in self.last_dead)
        return "no worker death observed (timeout/corruption path)"

    # ------------------------------------------------------------------ #
    # submission
    # ------------------------------------------------------------------ #
    def submit(
        self,
        payload: Dict[str, Any],
        slot: Optional[str],
        *,
        digest: bytes = b"",
    ) -> Flight:
        """Submit one task; returns the :class:`Flight` tracking it."""
        from repro.parallel.worker import sample_task

        task = dict(payload, slot=slot)
        if self.policy.validate_digests:
            task["digest"] = True
        try:
            handle = self._pool.apply_async(sample_task, (task,))
        except TEARDOWN_ERRORS as exc:
            # The pool object itself is broken (not just a worker):
            # rebuild against the same export and submit once more.
            self.count("worker_error")
            self.emit("worker_error", error=type(exc).__name__, where="submit")
            self._rebuild_pool()
            handle = self._pool.apply_async(sample_task, (task,))
        return Flight(
            payload=payload,
            handle=handle,
            slot=slot,
            digest=digest,
            submitted_at=time.monotonic(),
        )

    # ------------------------------------------------------------------ #
    # supervised result
    # ------------------------------------------------------------------ #
    def _wait(self, flight: Flight) -> Dict[str, Any]:
        """Result of one attempt, or a classified :class:`SupervisionError`."""
        deadline = flight.submitted_at + self.policy.task_deadline_s
        while True:
            if flight.handle.ready():
                try:
                    return flight.handle.get()
                except SupervisionError:
                    raise
                except Exception as exc:
                    # The worker raised (its traceback rides along).
                    raise WorkerCrash(
                        f"worker raised {type(exc).__name__}: {exc}"
                    ) from exc
            if self._poll_workers():
                # A worker died; the in-flight task *may* have been on it.
                # Fail fast and resubmit — a duplicate completion lands in
                # a quarantined slot and is never read.
                dead = ", ".join(f"pid {p}" for p in self.last_dead) or "unknown"
                raise WorkerCrash(
                    f"pool worker(s) {dead} died while the task was in "
                    f"flight ({self._budget_note()})"
                )
            now = time.monotonic()
            if now >= deadline:
                stale = (
                    self.heartbeats.stale_workers(self.policy.task_deadline_s)
                    if self.heartbeats is not None
                    else []
                )
                raise WorkerTimeout(
                    f"task missed its {self.policy.task_deadline_s:.3f}s "
                    f"deadline (workers with stale in-task heartbeats: "
                    f"{stale or 'none'}; {self._budget_note()})"
                )
            flight.handle.wait(min(self.policy.poll_interval_s, deadline - now))

    def result(
        self,
        flight: Flight,
        *,
        fresh_slot: Callable[[], Optional[str]] = lambda: None,
        lose_slot: Callable[[Optional[str]], None] = lambda name: None,
        validate: Callable[[Dict[str, Any], Optional[str]], bool] = None,
    ) -> Tuple[Dict[str, Any], Flight]:
        """Wait out ``flight``; retry with backoff until success or budget.

        ``fresh_slot``/``lose_slot`` come from the backend's slot ring:
        every resubmission abandons (quarantines) the previous slot and
        acquires a new one.  ``validate`` checks a shared-memory result's
        digest; a mismatch is a failure like any other.  Returns the
        result and the (possibly resubmitted) flight actually served.
        """
        while True:
            try:
                result = self._wait(flight)
                if (
                    validate is not None
                    and self.policy.validate_digests
                    and not validate(result, flight.slot)
                ):
                    raise SlotCorruption(
                        f"result slot {flight.slot!r} failed digest validation"
                    )
                return result, flight
            except SupervisionError as exc:
                flight = self._retry(flight, exc, fresh_slot, lose_slot)

    def _retry(
        self,
        flight: Flight,
        exc: SupervisionError,
        fresh_slot: Callable[[], Optional[str]],
        lose_slot: Callable[[Optional[str]], None],
    ) -> Flight:
        """Account one failure and resubmit, or raise the budget breach."""
        self.failures += 1
        kind = {
            WorkerTimeout: "worker_timeout",
            SlotCorruption: "slot_corrupt",
        }.get(type(exc), "worker_error")
        self.count(kind)
        self.emit(kind, error=str(exc), attempt=flight.attempts)
        if flight.attempts >= self.policy.max_retries:
            raise FailureBudgetExceeded(
                f"task failed {flight.attempts + 1} times "
                f"(max_retries={self.policy.max_retries}; "
                f"{self._budget_note()}); last: {exc}"
            ) from exc
        if self.failures > self.policy.failure_budget:
            raise FailureBudgetExceeded(
                f"lifetime failure budget exhausted ({self._budget_note()}; "
                f"last offender: {self._offender_note()}); last: {exc}"
            ) from exc
        time.sleep(self.policy.backoff_at(flight.attempts))
        # The abandoned slot may still be written by a hung/zombie worker:
        # quarantine it and move the retry to a fresh slot.  Chaos
        # directives fire on first attempts only — retries run clean.
        lose_slot(flight.slot)
        payload = {k: v for k, v in flight.payload.items() if k != "chaos"}
        retry = self.submit(payload, fresh_slot(), digest=flight.digest)
        retry.attempts = flight.attempts + 1
        retry.leak_slot = flight.leak_slot
        self.count("task_retries")
        self.emit("task_retry", attempt=retry.attempts, cause=kind)
        return retry

    # ------------------------------------------------------------------ #
    # drain support
    # ------------------------------------------------------------------ #
    def settle(self, flight: Flight) -> Tuple[bool, Optional[Dict[str, Any]]]:
        """Wait briefly for an abandoned prefetch; don't retry it.

        Returns ``(slot_safe, result)``: ``slot_safe`` is True when the
        attempt definitively finished (success *or* worker exception), so
        its slot can be recycled; False means the worker may still write
        the slot and the caller must quarantine it.
        """
        try:
            result = self._wait_settle(flight)
            return True, result
        except WorkerTimeout:
            self.count("prefetch_abandoned")
            return False, None
        except WorkerCrash as exc:
            self.count("worker_error")
            self.emit("worker_error", error=str(exc), where="drain")
            # The task never completed; its slot was never written fully.
            return False, None

    def _wait_settle(self, flight: Flight) -> Dict[str, Any]:
        deadline = time.monotonic() + self.policy.drain_timeout_s
        while True:
            if flight.handle.ready():
                try:
                    return flight.handle.get()
                except Exception as exc:
                    raise WorkerCrash(
                        f"worker raised {type(exc).__name__}: {exc}"
                    ) from exc
            self._poll_workers()
            if time.monotonic() >= deadline:
                raise WorkerTimeout("abandoned prefetch did not settle")
            flight.handle.wait(self.policy.poll_interval_s)

    # ------------------------------------------------------------------ #
    def stats(self) -> Dict[str, float]:
        return {
            "failures": float(self.failures),
            "respawns": float(self.respawns),
        }

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        try:
            self._pool.terminate()
            self._pool.join()
        except TEARDOWN_ERRORS as exc:  # pragma: no cover - already down
            self.count("worker_error")
            self.emit("worker_error", error=type(exc).__name__, where="close")
        if self.heartbeats is not None:
            self.heartbeats.close()
            self.heartbeats = None


# ---------------------------------------------------------------------- #
def slot_digest(buf, nbytes: int) -> str:
    """BLAKE2b hex digest of the first ``nbytes`` of a slot buffer."""
    h = hashlib.blake2b(digest_size=16)
    h.update(bytes(buf[: max(int(nbytes), 0)]))
    return h.hexdigest()
