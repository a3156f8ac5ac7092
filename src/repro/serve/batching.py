"""Continuous micro-batching for the estimation server.

:class:`BatchScheduler` sits between the HTTP handlers and
:class:`EstimationEngine` and gives concurrent requests the standard
inference-server shape:

* **Continuous batching.**  Handler threads submit requests to a
  queue; a single dispatcher thread drains whatever is queued the
  moment it is idle and forms a batch of up to ``max_batch`` requests.
  An optional collection window (``batch_window_ms``, bounded by each
  member's remaining deadline) trades first-request latency for larger
  batches; the default of 0 keeps sequential latency unchanged.
* **Shape-compatible grouping.**  A batch is partitioned by
  ``(cpu_model, fidelity)`` — the engine keeps one resident SoftWatt
  per shape.  Groups execute on parallel threads, preserving the
  cross-instance concurrency the per-request path had.
* **Single-flight deduplication.**  Identical in-flight requests —
  same ``(benchmark, disk, cpu_model, fidelity, deadline_s,
  idle_policy)``; seed and window are engine-global — share one
  computation.  The first becomes the *leader*; later arrivals become
  *followers* parked on the leader's completion event.  Every
  participant of a shared flight receives a bit-identical copy of the
  one reply with ``coalesced: true``; a follower whose own deadline
  expires first gets a per-item 504 without disturbing the flight.

Failure stays per-item: an invalid payload 400s alone, an expired
deadline 504s alone (queue wait counts against the budget), and a
breaker-tripped detailed tier degrades each request down the fidelity
ladder inside :meth:`~EstimationEngine.estimate` — a batch never fails
as a unit.  Batching only changes *when* a request executes and
degradation only selects which rung executes, so every batched or
coalesced response is bit-identical to the same request served alone.
"""

from __future__ import annotations

import logging
import threading
import time
from dataclasses import dataclass, field
from typing import Callable

from repro.serve.engine import (
    EstimateRequest,
    EstimationEngine,
    RequestError,
)

log = logging.getLogger("repro.serve")

_FLIGHT_GRACE_S = 1.0
"""Extra wait a deadline-bound follower grants past its budget before
giving up on the flight — covers clock skew between the follower's
timeout and the dispatcher's own 504 for the leader."""


@dataclass
class _Flight:
    """One deduplicated unit of work: a leader plus any followers."""

    request: EstimateRequest
    key: tuple
    index: int
    arrival: float
    event: threading.Event = field(default_factory=threading.Event)
    reply: dict | None = None
    followers: int = 0
    shared: bool = False


def _flight_key(request: EstimateRequest) -> tuple:
    return (
        request.benchmark,
        request.disk,
        request.cpu_model,
        request.fidelity,
        request.deadline_s,
        request.idle_policy,
    )


class BatchScheduler:
    """Collect admitted requests into batches with single-flight
    deduplication; the drop-in execution path between the HTTP handlers
    and :class:`EstimationEngine`."""

    def __init__(
        self,
        engine: EstimationEngine,
        *,
        batch_window_ms: float = 0.0,
        max_batch: int = 16,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if batch_window_ms < 0:
            raise ValueError("batch_window_ms must be non-negative")
        if max_batch < 1:
            raise ValueError("max_batch must be at least 1")
        self.engine = engine
        self.batch_window_ms = batch_window_ms
        self.max_batch = max_batch
        self._clock = clock
        self._cond = threading.Condition()
        self._queue: list[_Flight] = []
        self._flights: dict[tuple, _Flight] = {}
        self._stopped = False
        self._submitted = 0
        self._hits = 0
        self._misses = 0
        self._coalesced = 0
        self._batches = 0
        self._occupancy: dict[int, int] = {}
        self._executed: dict[str, int] = {}
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, name="batch-dispatcher", daemon=True
        )
        self._dispatcher.start()

    # ------------------------------------------------------------------
    # Submission (handler threads)
    # ------------------------------------------------------------------

    def submit(self, payload: object, *, index: int = -1) -> dict:
        """Run one request through the batched path; blocks until its
        reply is ready.  Same contract as ``engine.estimate`` plus the
        ``coalesced`` marker on shared flights."""
        waiter = self._register(payload, index=index)
        if isinstance(waiter, dict):
            return waiter
        return self._await(*waiter)

    def submit_many(self, payloads: list, *, index: int = -1) -> list[dict]:
        """Run several requests concurrently through the batched path.

        All items are registered before any is waited on, so the items
        of one ``/estimate/batch`` payload can share batches and
        single-flights with each other, not just with other
        connections.  Failures are per-item: each reply carries its own
        status."""
        waiters = [self._register(p, index=index) for p in payloads]
        return [
            waiter if isinstance(waiter, dict) else self._await(*waiter)
            for waiter in waiters
        ]

    def _register(self, payload: object, *, index: int):
        """Join an in-flight twin or enqueue a new leader; returns an
        immediate reply dict for invalid payloads."""
        try:
            request = (
                payload
                if isinstance(payload, EstimateRequest)
                else EstimateRequest.from_payload(payload, index=index)
            )
        except RequestError:
            # Re-validate through the engine so the 400 is counted and
            # shaped exactly like the unbatched path's.
            return self.engine.estimate(payload, index=index)
        key = _flight_key(request)
        now = self._clock()
        with self._cond:
            self._submitted += 1
            flight = None if self._stopped else self._flights.get(key)
            if flight is not None:
                flight.followers += 1
                self._hits += 1
                return flight, request, now, True
            self._misses += 1
            flight = _Flight(request=request, key=key, index=index, arrival=now)
            if self._stopped:
                # No dispatcher left: serve directly, still correct.
                pass
            else:
                self._flights[key] = flight
                self._queue.append(flight)
                self._cond.notify_all()
                return flight, request, now, False
        flight.reply = self.engine.estimate(request, index=index, started=now)
        flight.event.set()
        return flight, request, now, False

    def _await(
        self,
        flight: _Flight,
        request: EstimateRequest,
        arrival: float,
        follower: bool,
    ) -> dict:
        deadline_s = (
            request.deadline_s
            if request.deadline_s is not None
            else self.engine.default_deadline_s
        )
        if follower and deadline_s is not None:
            remaining = deadline_s - (self._clock() - arrival)
            if not flight.event.wait(timeout=remaining + _FLIGHT_GRACE_S):
                return self.engine.deadline_expired_reply(
                    request, started=arrival
                )
        else:
            # The leader's own deadline is enforced inside the engine
            # (queue wait included, via started=arrival).
            flight.event.wait()
        reply = dict(flight.reply)
        reply["coalesced"] = flight.shared
        return reply

    # ------------------------------------------------------------------
    # Dispatch (one daemon thread)
    # ------------------------------------------------------------------

    def _dispatch_loop(self) -> None:
        while True:
            batch = self._collect()
            if batch is None:
                return
            try:
                self._run_batch(batch)
            except Exception:  # noqa: BLE001 - waiters must never hang
                log.exception("batch dispatch failed")
                for flight in batch:
                    if not flight.event.is_set():
                        self._finish(
                            flight,
                            {"status": 500, "error": "internal batch failure"},
                        )

    def _collect(self) -> list[_Flight] | None:
        """Drain the queue into one batch, optionally holding the
        collection window open while batch room and deadlines allow."""
        with self._cond:
            while not self._queue:
                if self._stopped:
                    return None
                self._cond.wait()
            batch = self._queue[: self.max_batch]
            del self._queue[: len(batch)]
            if self.batch_window_ms <= 0 or len(batch) >= self.max_batch:
                return batch
            window_end = self._clock() + self.batch_window_ms / 1000.0
            while len(batch) < self.max_batch:
                cap = window_end
                for flight in batch:
                    deadline_s = (
                        flight.request.deadline_s
                        if flight.request.deadline_s is not None
                        else self.engine.default_deadline_s
                    )
                    if deadline_s is not None:
                        cap = min(cap, flight.arrival + deadline_s)
                timeout = cap - self._clock()
                if timeout <= 0:
                    break
                self._cond.wait(timeout=timeout)
                room = self.max_batch - len(batch)
                batch.extend(self._queue[:room])
                del self._queue[:room]
                if self._stopped:
                    break
            return batch

    def _run_batch(self, batch: list[_Flight]) -> None:
        with self._cond:
            self._batches += 1
            self._occupancy[len(batch)] = (
                self._occupancy.get(len(batch), 0) + 1
            )
        groups: dict[tuple[str, str], list[_Flight]] = {}
        for flight in batch:
            shape = (flight.request.cpu_model, flight.request.fidelity)
            groups.setdefault(shape, []).append(flight)
        if len(groups) == 1:
            self._run_group(next(iter(groups.values())))
            return
        threads = [
            threading.Thread(target=self._run_group, args=(flights,), daemon=True)
            for flights in groups.values()
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

    def _run_group(self, flights: list[_Flight]) -> None:
        now = self._clock()
        live = []
        for flight in flights:
            deadline_s = (
                flight.request.deadline_s
                if flight.request.deadline_s is not None
                else self.engine.default_deadline_s
            )
            if deadline_s is not None and now - flight.arrival >= deadline_s:
                # Window wait ate the whole budget: per-item 504, the
                # rest of the group proceeds.
                self._finish(
                    flight,
                    self.engine.deadline_expired_reply(
                        flight.request, started=flight.arrival
                    ),
                )
                continue
            live.append(flight)
        for flight in live:
            reply = self.engine.estimate(
                flight.request, index=flight.index, started=flight.arrival
            )
            self._finish(flight, reply)

    def _finish(self, flight: _Flight, reply: dict) -> None:
        with self._cond:
            self._flights.pop(flight.key, None)
            flight.shared = flight.followers > 0
            self._coalesced += flight.followers
            rung = reply.get("fidelity_used") or "none"
            self._executed[rung] = self._executed.get(rung, 0) + 1
        flight.reply = reply
        flight.event.set()

    # ------------------------------------------------------------------
    # Lifecycle + telemetry
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Stop the dispatcher once the queue is drained.  Submissions
        after close bypass batching and execute directly (correct, just
        unbatched) — drain never strands a waiter."""
        with self._cond:
            self._stopped = True
            self._cond.notify_all()
        self._dispatcher.join(timeout=60.0)

    def snapshot(self) -> dict:
        with self._cond:
            attempts = self._hits + self._misses
            return {
                "submitted": self._submitted,
                "batches": self._batches,
                "window_ms": self.batch_window_ms,
                "max_batch": self.max_batch,
                "occupancy": {
                    str(size): count
                    for size, count in sorted(self._occupancy.items())
                },
                "coalesced": self._coalesced,
                "single_flight": {
                    "hits": self._hits,
                    "misses": self._misses,
                    "hit_rate": (
                        self._hits / attempts if attempts else 0.0
                    ),
                },
                "executed": dict(self._executed),
            }
