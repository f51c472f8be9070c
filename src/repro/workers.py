"""Worker-count plumbing shared by every parallel code path.

Two process-pool levels exist in this package: the *index-point* pool of
:func:`repro.core.offline.offline_seed_lists_batch` (one task per index
point during construction) and the *simulation* pool of
:mod:`repro.propagation.parallel` (chunks of Monte-Carlo cascades
within one spread estimate, and chunks of RR-set blocks within one
:class:`~repro.im.imm.RRSampler` sample).  Both express their
worker counts through this module so validation happens exactly once, at
parse time, with one error message — not deep inside a pool that has
already spawned processes.

Accepted spellings everywhere a worker count is configurable:

* a positive ``int`` (taken literally, even above ``os.cpu_count()``);
* ``"auto"`` — resolved to the machine's CPU count;
* a decimal string such as ``"4"`` (so environment variables and CLI
  flags share the same parser).

The environment variable ``REPRO_SIM_WORKERS`` supplies the default
simulation worker count wherever none is passed explicitly; CI uses it
to run the whole test suite through the parallel spread engine.
``REPRO_SIM_RETRIES`` similarly supplies the default pool-recovery
retry budget of the simulation pool — for Monte-Carlo chunks and RR-set
blocks alike (see ``docs/RESILIENCE.md``).  See ``docs/PARALLELISM.md``
for how the two pool levels compose.
"""

from __future__ import annotations

import operator
import os

#: Sentinel accepted by every worker knob: use all available CPUs.
AUTO = "auto"

#: Environment variable holding the default simulation worker count.
SIM_WORKERS_ENV = "REPRO_SIM_WORKERS"

#: Environment variable holding the default pool-recovery retry budget.
SIM_RETRIES_ENV = "REPRO_SIM_RETRIES"

#: Retries granted to a broken simulation pool when the env is unset.
DEFAULT_SIM_RETRIES = 2


def cpu_count() -> int:
    """The machine's CPU count (always at least 1)."""
    return max(1, os.cpu_count() or 1)


def resolve_workers(value, *, name: str = "workers") -> int:
    """Normalize a worker-count spelling into a validated positive int.

    Parameters
    ----------
    value:
        A positive ``int``, the string ``"auto"`` (CPU count), or a
        decimal string.  ``None`` resolves to 1 (sequential).
    name:
        Knob name used in error messages, so config, CLI and env-var
        call sites all report the field the user actually set.
    """
    if value is None:
        return 1
    if isinstance(value, str):
        text = value.strip().lower()
        if text == AUTO:
            return cpu_count()
        try:
            value = int(text)
        except ValueError:
            raise ValueError(
                f"{name} must be a positive integer or 'auto', "
                f"got {text!r}"
            ) from None
    if isinstance(value, bool):
        raise ValueError(f"{name} must be a positive integer or 'auto'")
    try:
        count = operator.index(value)
    except TypeError:
        raise ValueError(
            f"{name} must be a positive integer or 'auto', got {value!r}"
        ) from None
    if count < 1:
        raise ValueError(f"{name} must be >= 1, got {count}")
    return count


def default_sim_workers() -> int:
    """Simulation worker count implied by ``REPRO_SIM_WORKERS`` (or 1).

    This is the fallback used wherever a simulation-worker knob is left
    unset, so exporting the variable routes every Monte-Carlo spread
    estimate in the process through the parallel engine.
    """
    return resolve_workers(
        os.environ.get(SIM_WORKERS_ENV), name=SIM_WORKERS_ENV
    )


def default_retry_attempts() -> int:
    """Pool-recovery retry budget implied by ``REPRO_SIM_RETRIES``.

    How many times :class:`~repro.propagation.parallel.\
ParallelMonteCarloSpread` rebuilds a broken pool and re-dispatches the
    unfinished chunks before degrading to inline execution.  ``0``
    disables retrying (the first failure falls straight through to the
    sequential path).
    """
    raw = os.environ.get(SIM_RETRIES_ENV)
    if raw is None:
        return DEFAULT_SIM_RETRIES
    try:
        value = int(raw.strip())
    except ValueError:
        raise ValueError(
            f"{SIM_RETRIES_ENV} must be a non-negative integer, "
            f"got {raw!r}"
        ) from None
    if value < 0:
        raise ValueError(
            f"{SIM_RETRIES_ENV} must be >= 0, got {value}"
        )
    return value


def resolve_worker_allocation(
    index_workers, sim_workers, *, budget: int | None = None
) -> tuple[int, int]:
    """Compose the two pool levels without oversubscribing the CPUs.

    When both the index-point pool and the per-estimate simulation pool
    are enabled, their product is the real process count.  This resolver
    keeps the outer (index-point) parallelism — the coarser, better
    scaling level — at its requested width and clamps the inner
    simulation width so ``index_workers * sim_workers`` stays within the
    CPU budget.  With a sequential outer level the simulation width
    passes through untouched.

    Returns the resolved ``(index_workers, sim_workers)`` pair.
    """
    outer = resolve_workers(index_workers, name="workers")
    inner = resolve_workers(sim_workers, name="simulation_workers")
    if budget is None:
        budget = cpu_count()
    if outer > 1 and inner > 1:
        inner = max(1, min(inner, budget // outer))
    return outer, inner
