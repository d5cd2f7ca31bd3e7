"""Replication-based validation (RBV) baseline (§4.1).

RBV runs an unmodified replica of the application on a *separate server*
(healthy cores, independent state).  The primary batches each request and
its response and forwards them to the replica, which re-executes the full
request — control path included — and compares results; any mismatch
interrupts the primary.

This functional model captures RBV's detection behaviour:

* it re-executes the *entire* program, so it also catches control-path
  branch errors that Orthrus's checksums cannot (Table 2's gap);
* it must replay requests in submission order — data dependencies force
  sequential replica execution (the synchronization costs measured by the
  timing harness);
* it compares externally visible responses per request plus periodic state
  digests (the classic replicated-state-machine output/state check).

This is a standalone functional model with no notion of time.  The
virtual-time drivers (``run_rbv_server`` in :mod:`repro.harness.pipeline`
and the Phoenix RBV variant in :mod:`repro.harness.phoenix`) do not use
it: they model the replica server, batching, network transfer and lag
stalls themselves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.detection import DetectionEvent, DetectionReport
from repro.workloads.base import Op


@dataclass
class RbvStats:
    requests: int = 0
    batches: int = 0
    state_checks: int = 0
    forwarded_bytes: int = 0


class RbvValidator:
    """Drives a primary/replica pair and compares their behaviour.

    Args:
        primary: the (possibly mercurial) application server.
        replica: an identically-configured server on healthy cores.
        batch_size: requests per replication batch (§4.1 uses batching to
            reduce sync frequency).
        state_check_every: compare full state digests every N requests —
            catches corruptions that never surfaced in a response.
    """

    def __init__(
        self,
        primary,
        replica,
        batch_size: int = 16,
        state_check_every: int = 64,
        estimate_bytes: Callable[[Any], int] | None = None,
    ):
        self.primary = primary
        self.replica = replica
        self.batch_size = batch_size
        self.state_check_every = state_check_every
        self.report = DetectionReport()
        self.stats = RbvStats()
        self._pending: list[tuple[Op, Any, BaseException | None]] = []
        self._estimate_bytes = estimate_bytes or (lambda response: 64)

    # ------------------------------------------------------------------
    def submit(self, op: Op) -> Any:
        """Process one request on the primary and enqueue it for replica
        validation; returns the primary's response."""
        error: BaseException | None = None
        response: Any = None
        try:
            response = self.primary.handle(op)
        except Exception as exc:  # primary fail-stop still gets replayed
            error = exc
        self._pending.append((op, response, error))
        self.stats.requests += 1
        self.stats.forwarded_bytes += self._estimate_bytes(response)
        if len(self._pending) >= self.batch_size:
            self.flush()
        if self.stats.requests % self.state_check_every == 0:
            self.check_state()
        if error is not None:
            raise error
        return response

    def flush(self) -> None:
        """Replay the pending batch on the replica, in order, comparing
        each response."""
        batch, self._pending = self._pending, []
        if not batch:
            return
        self.stats.batches += 1
        for op, primary_response, primary_error in batch:
            replica_error: BaseException | None = None
            replica_response: Any = None
            try:
                replica_response = self.replica.handle(op)
            except Exception as exc:
                replica_error = exc
            if primary_error is not None or replica_error is not None:
                if type(primary_error) is not type(replica_error):
                    self._detect(op, "crash divergence between primary and replica")
                continue
            if primary_response != replica_response:
                self._detect(op, "response divergence")

    def check_state(self) -> None:
        """Compare full state digests (flushes the batch first so both
        sides have processed the same prefix)."""
        self.flush()
        self.stats.state_checks += 1
        if self.primary.state_digest() != self.replica.state_digest():
            self._detect(None, "state digest divergence")

    def finish(self) -> DetectionReport:
        """End of run: flush and do a final state comparison."""
        self.flush()
        self.check_state()
        return self.report

    # ------------------------------------------------------------------
    def _detect(self, op: Op | None, detail: str) -> None:
        self.report.record(
            DetectionEvent(
                kind="rbv",
                closure=str(op.kind.value) if op is not None else "<state>",
                seq=self.stats.requests,
                time=float(self.stats.requests),
                detail=detail,
            )
        )

    @property
    def detections(self) -> int:
        return self.report.count()
