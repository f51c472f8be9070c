"""Deterministic fault injection for chaos testing.

A :class:`FaultPlan` scripts failures at the three fragile layers of
the system — worker-chunk execution, checkpoint writes, and artifact
loads — so the chaos suite can assert *recovery*, not just detection:
"worker dies on call 3, chunk 1" must still produce bit-identical
spreads, "checkpoint truncated at byte 20" must be quarantined and
recomputed, "load sees a flipped bit" must raise
:class:`~repro.errors.CorruptArtifactError`.

Determinism has two parts.  Targeted specs (``call=3:chunk=1``) fire on
exact coordinate matches, at most ``times`` times.  Rate specs
(``rate=0.02``) decide via a hash of ``(site, sorted coords, seed)``
through a ``SeedSequence``-derived draw — the same coordinates always
make the same decision, independent of execution order or worker
identity, so an injected-fault run is exactly reproducible.

Injection sites (the coordinates each receives):

=========== =============================== ===========================
site         hook                            coordinates
=========== =============================== ===========================
chunk        simulation worker chunk         ``call``, ``chunk``, ``attempt``,
                                             ``stream``
checkpoint   builder per-item checkpoint     ``item``
save-index   ``save_index`` tmp→rename step  (none)
index-load   ``load_index`` after read       (none)
save-sketches  ``save_sketches`` tmp→rename  (none)
sketches-load  ``load_sketches`` after read  (none)
delta-apply  streaming batch application     ``batch``
resample     per-point RR-set resampling     ``batch``, ``point``
worker       fleet worker query handling     ``shard``, ``request``
heartbeat    fleet worker heartbeat send     ``shard``, ``beat``
=========== =============================== ===========================

Plans come from three places, in precedence order: an explicit plan
passed to the component, a process-wide plan installed with
:func:`set_fault_plan` (or the :func:`fault_plan` context manager), and
the ``REPRO_FAULTS`` environment variable.  The spec grammar is
semicolon-separated entries ``site:mode=<mode>[:key=value...]``, e.g.::

    REPRO_FAULTS="chunk:mode=crash:rate=0.02"
    REPRO_FAULTS="chunk:mode=crash:call=3:chunk=1;checkpoint:mode=truncate:item=2:keep=20"

``stream`` is a CRC32 of the chunk's random-stream identity (for RR
blocks: seed entropy, spawn key, request and first block; for
Monte-Carlo chunks: seed entropy, base spawn key and call).  ``call``
and ``chunk`` restart for every sampler request and estimator, so
without it a rate spec would decide on the same few dozen points all
through a build; targeted specs (``call=0:chunk=0``) ignore it.

See ``docs/RESILIENCE.md`` for the full matrix of sites, modes, and
the recovery each one exercises.
"""

from __future__ import annotations

import contextlib
import os
import zlib
from dataclasses import dataclass, field

import numpy as np

from repro.obs import instruments as _obs

#: Environment variable holding the process-default fault plan spec.
FAULTS_ENV = "REPRO_FAULTS"

#: Injection sites known to the call sites wired through this module.
SITES = (
    "chunk",
    "checkpoint",
    "save-index",
    "index-load",
    "save-sketches",
    "sketches-load",
    "delta-apply",
    "resample",
    "worker",
    "heartbeat",
)

#: Modes accepted per site (parse-time validation catches typos early).
SITE_MODES = {
    "chunk": ("crash", "error", "sleep"),
    "checkpoint": ("truncate",),
    "save-index": ("crash",),
    "index-load": ("bitflip", "error"),
    "save-sketches": ("crash",),
    "sketches-load": ("bitflip", "error"),
    "delta-apply": ("error",),
    "resample": ("error",),
    # Fleet chaos (docs/FLEET.md): ``worker`` fires in a fleet worker's
    # query handler — ``crash`` kills the process outright (exercising
    # respawn + shared-memory re-attach + request re-dispatch), ``hang``
    # stalls the answer (exercising the router's dispatch timeout and
    # hedging).  ``heartbeat`` drops worker heartbeat messages so the
    # supervisor's staleness detection restarts a live-but-mute worker.
    "worker": ("crash", "hang"),
    "heartbeat": ("drop",),
}

#: Spec option keys parsed as floats; everything else (except ``mode``)
#: is an integer.
_FLOAT_KEYS = ("rate", "keep_seconds")


class InjectedFaultError(RuntimeError):
    """An error raised *by* fault injection (mode ``error``/``crash``).

    Deliberately **not** a :class:`~repro.errors.ReproError`: injected
    faults simulate infrastructure failures (a worker raising from a
    flaky filesystem, a kill between write and rename), which arrive as
    foreign exception types in production too.  It is picklable so it
    survives the worker→parent boundary of a process pool.
    """


@dataclass(eq=False)
class FaultSpec:
    """One scripted failure: where, what, and when it fires.

    Attributes
    ----------
    site:
        Injection site name (one of :data:`SITES`).
    mode:
        Failure mode, interpreted by the call site (see
        :data:`SITE_MODES`).
    match:
        Coordinate equality constraints — the spec only fires when
        every listed coordinate matches the hook's coordinates.
    rate:
        When set, a deterministic per-coordinate Bernoulli draw with
        this probability gates firing (on top of ``match``).
    times:
        Maximum number of firings; ``None`` is unlimited (the default
        for rate specs, while targeted specs default to once).
    keep:
        Mode argument: bytes kept by ``truncate``, seconds slept by
        ``sleep`` (via ``keep_seconds``).
    """

    site: str
    mode: str
    match: dict = field(default_factory=dict)
    rate: float | None = None
    times: int | None = 1
    keep: float | None = None
    fired: int = field(default=0, compare=False)

    def __post_init__(self) -> None:
        if self.site not in SITES:
            raise ValueError(
                f"unknown fault site {self.site!r}; expected one of {SITES}"
            )
        modes = SITE_MODES[self.site]
        if self.mode not in modes:
            raise ValueError(
                f"site {self.site!r} supports modes {modes}, "
                f"got {self.mode!r}"
            )
        if self.rate is not None and not 0.0 <= self.rate <= 1.0:
            raise ValueError(f"rate must lie in [0, 1], got {self.rate}")
        if self.times is not None and self.times < 1:
            raise ValueError(f"times must be >= 1 or None, got {self.times}")


class FaultPlan:
    """A seeded, deterministic collection of :class:`FaultSpec` entries.

    The plan is consulted through :meth:`fire`, which returns the first
    matching spec (recording the firing) or ``None``.  An empty plan
    never fires — tests use ``FaultPlan()`` to explicitly shield a code
    path from any environment-installed plan.
    """

    def __init__(self, specs=(), *, seed: int = 0) -> None:
        self._specs = list(specs)
        self._seed = int(seed)

    @property
    def specs(self) -> tuple[FaultSpec, ...]:
        """The scripted faults, in match-precedence order."""
        return tuple(self._specs)

    @property
    def seed(self) -> int:
        """Root seed of the rate-spec decision streams."""
        return self._seed

    def fire(self, site: str, **coords) -> FaultSpec | None:
        """The first spec firing at ``site`` for ``coords``, if any.

        Firing is recorded against the spec's ``times`` budget and
        counted on the ``repro_resilience_faults_injected_total``
        metric.  Rate decisions depend only on ``(seed, site, coords)``
        — never on call order — so concurrent dispatch stays
        deterministic.
        """
        for spec in self._specs:
            if spec.site != site:
                continue
            if spec.times is not None and spec.fired >= spec.times:
                continue
            if any(
                coords.get(key) != value
                for key, value in spec.match.items()
            ):
                continue
            if spec.rate is not None:
                if spec.rate <= 0.0:
                    continue
                if spec.rate < 1.0 and not self._rate_hit(
                    spec.rate, site, coords
                ):
                    continue
            spec.fired += 1
            _obs.record_fault_injected(site, spec.mode)
            return spec
        return None

    def _rate_hit(self, rate: float, site: str, coords: dict) -> bool:
        key = [zlib.crc32(site.encode())]
        for name in sorted(coords):
            value = coords[name]
            if isinstance(value, bool) or not isinstance(value, int):
                continue
            key.append(zlib.crc32(name.encode()))
            key.append(value & 0xFFFFFFFF)
        u = np.random.default_rng(
            np.random.SeedSequence(
                entropy=self._seed, spawn_key=tuple(key)
            )
        ).random()
        return bool(u < rate)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"FaultPlan({len(self._specs)} specs, seed={self._seed})"


def parse_fault_plan(text: str) -> FaultPlan:
    """Parse a ``REPRO_FAULTS``-style spec string into a :class:`FaultPlan`.

    Grammar: ``;``-separated entries, each
    ``site:mode=<mode>[:key=value...]``.  Integer keys become match
    coordinates (``call``, ``chunk``, ``item``, ``attempt``); ``rate``
    is a float, ``times`` an int, ``keep`` the truncation byte count,
    ``keep_seconds`` the sleep duration, and ``seed`` (entry-level)
    sets the plan seed.  Rate specs default to unlimited firings,
    targeted specs to exactly one.
    """
    specs = []
    plan_seed = 0
    for entry in text.split(";"):
        entry = entry.strip()
        if not entry:
            continue
        head, _, rest = entry.partition(":")
        site = head.strip()
        options: dict[str, object] = {}
        for token in filter(None, (t.strip() for t in rest.split(":"))):
            key, sep, value = token.partition("=")
            if not sep:
                raise ValueError(
                    f"malformed fault option {token!r} in {entry!r} "
                    "(expected key=value)"
                )
            key = key.strip()
            value = value.strip()
            if key == "mode":
                options[key] = value
            elif key in _FLOAT_KEYS:
                options[key] = float(value)
            else:
                try:
                    options[key] = int(value)
                except ValueError:
                    raise ValueError(
                        f"fault option {key!r} must be an integer, "
                        f"got {value!r}"
                    ) from None
        mode = options.pop("mode", None)
        if mode is None:
            raise ValueError(f"fault entry {entry!r} is missing mode=")
        rate = options.pop("rate", None)
        times = options.pop(
            "times", None if rate is not None else 1
        )
        keep = options.pop("keep", None)
        keep_seconds = options.pop("keep_seconds", None)
        if keep_seconds is not None:
            keep = keep_seconds
        plan_seed = int(options.pop("seed", plan_seed))
        specs.append(
            FaultSpec(
                site=site,
                mode=str(mode),
                match={k: int(v) for k, v in options.items()},
                rate=rate,
                times=times,
                keep=keep,
            )
        )
    return FaultPlan(specs, seed=plan_seed)


# ----------------------------------------------------------------------
# The process-wide active plan
# ----------------------------------------------------------------------

_ACTIVE: FaultPlan | None = None
_ENV_CACHE: tuple[str | None, FaultPlan | None] = (None, None)


def get_fault_plan() -> FaultPlan | None:
    """The currently active plan: installed > ``REPRO_FAULTS`` > none.

    The environment plan is parsed once per distinct variable value and
    cached, so its ``times`` budgets are process-wide (as a real chaos
    run expects) rather than reset on every lookup.
    """
    if _ACTIVE is not None:
        return _ACTIVE
    text = os.environ.get(FAULTS_ENV)
    if not text:
        return None
    global _ENV_CACHE
    if _ENV_CACHE[0] != text:
        _ENV_CACHE = (text, parse_fault_plan(text))
    return _ENV_CACHE[1]


def set_fault_plan(plan: FaultPlan | None) -> None:
    """Install ``plan`` process-wide (``None`` reverts to the env plan)."""
    global _ACTIVE
    _ACTIVE = plan


@contextlib.contextmanager
def fault_plan(plan: FaultPlan | None):
    """Scoped :func:`set_fault_plan`: installs ``plan``, restores on exit.

    ``fault_plan(FaultPlan())`` installs an empty plan, which shields
    the body from any environment-configured faults — the idiom for
    tests that need a guaranteed fault-free reference run.
    """
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = plan
    try:
        yield plan
    finally:
        _ACTIVE = previous


def maybe_inject(site: str, plan: FaultPlan | None = None, **coords) -> FaultSpec | None:
    """Consult ``plan`` (or the active plan) at an injection site.

    The one-line hook call sites use; returns the fired spec (whose
    ``mode`` the site interprets) or ``None`` on the fault-free path.
    """
    if plan is None:
        plan = get_fault_plan()
    if plan is None:
        return None
    return plan.fire(site, **coords)
