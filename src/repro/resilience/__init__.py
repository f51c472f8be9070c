"""Fault tolerance: retries, deadlines, and deterministic fault injection.

INFLEX's value proposition is that *days* of offline precomputation
survive to answer millisecond online queries — which is only true if
the execution and persistence layers survive the failures long-running
systems actually see: crashed pool workers, truncated checkpoints,
bit-rotted artifacts, and queries that must answer *something* by a
latency budget.  This package holds the shared primitives:

* :class:`RetryPolicy` — classified transient errors, exponential
  backoff with deterministic jitter;
* :class:`Deadline` — a monotonic budget object that query paths use to
  return partial results flagged ``degraded=True`` instead of hanging;
* :class:`CircuitBreaker` — per-downstream consecutive-failure breaker
  with half-open probing (the fleet router runs one per worker shard);
* :class:`HedgePolicy` — tail-latency hedging delays derived from a
  rolling p99 window (duplicate a slow request to a sibling shard);
* :class:`FaultPlan` — seeded, scriptable fault injection (via the
  ``REPRO_FAULTS`` environment variable, config, or code) at the
  worker-chunk, checkpoint-write, artifact-load, and fleet
  worker/heartbeat hooks, so chaos tests can assert byte-identical
  recovery rather than mere survival.

The recovery call sites live with the code they protect —
:mod:`repro.propagation.parallel` (pool crash recovery),
:mod:`repro.core.persistence` (corruption-safe artifacts) and
:mod:`repro.core.builder` (checkpoint quarantine).  The failure model
and the full retry/degradation matrix are documented in
``docs/RESILIENCE.md``.
"""

from repro._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "repro.resilience.breaker": ("CircuitBreaker",),
        "repro.resilience.deadline": ("Deadline", "resolve_deadline"),
        "repro.resilience.hedge": ("HedgePolicy",),
        "repro.resilience.faults": (
            "FAULTS_ENV",
            "FaultPlan",
            "FaultSpec",
            "InjectedFaultError",
            "fault_plan",
            "get_fault_plan",
            "maybe_inject",
            "parse_fault_plan",
            "set_fault_plan",
        ),
        "repro.resilience.retry": ("RetryPolicy",),
    },
)
