"""The asyncio HTTP query server: the front door of the reproduction.

Request path (see ``docs/SERVING.md`` for the full architecture)::

    connection -> admission control -> cache lookup
        -> singleflight -> micro-batcher -> executor thread
            -> InflexIndex.query_batch (deadline-aware, PR 3)
        -> ServedAnswer -> CachedIndex.store -> response

All protocol work happens on the event loop; all index math happens on
one executor thread (query evaluation is CPU-bound pure Python, so one
thread avoids GIL thrash while keeping the loop free to accept, shed,
and serve cache hits).  Graceful drain — ``SIGTERM`` via the CLI, or
:meth:`QueryServer.request_drain` — stops accepting, answers every
admitted request and every request already on an accepted connection,
then closes.

Every request is minted a :class:`~repro.obs.context.RequestContext`
(honoring ``X-Trace-Id`` / ``X-Request-Id`` request headers, echoed in
the response) whose trace id stitches the request's spans — serving
span, batch span, executor-side query phases, even pool-worker chunks —
into one tree, leaves a record in the flight recorder, and feeds the
rolling SLO monitor.

Routes are declared once, in :meth:`QueryServer.routes` (the table in
``docs/SERVING.md``); the shared :mod:`repro.serving.front` base
applies the 404/405 checks and the draining shed.  With a
:class:`~repro.streaming.StreamingEngine` attached, ``/deltas`` and
``/subscriptions`` keep the served index current on an evolving graph
(404 when streaming is not enabled).

Delta application runs on the same single executor thread as query
evaluation, so it serializes naturally with in-flight queries; the new
index and the invalidated cache are swapped in atomically before the
next batch item runs.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import functools
import logging
import time
from typing import TYPE_CHECKING
from urllib.parse import parse_qs, urlsplit

from repro.core.cache import CachedIndex
from repro.core.config import CampaignConfig, ServingConfig
from repro.core.index import InflexIndex
from repro.errors import QueryError, StreamError
from repro.obs import context as _ctx
from repro.obs import instruments as _obs
from repro.obs.flightrec import FlightRecord, FlightRecorder, gamma_fingerprint
from repro.obs.metrics import get_registry
from repro.obs.slo import SLOConfig, SLOMonitor
from repro.obs.tracing import get_tracer, span_payload
from repro.resilience.deadline import Deadline
from repro.serving.batcher import BatchItem, MicroBatcher
from repro.serving.front import GET, POST, PROMETHEUS, HttpFront, Route
from repro.serving.protocol import (
    HttpRequest,
    ProtocolError,
    ServedAnswer,
    answer_to_dict,
    error_body,
    json_body,
    parse_campaign_payload,
    parse_query_payload,
)
from repro.serving.singleflight import SingleFlight

if TYPE_CHECKING:
    from repro.campaign import CampaignPlanner

#: Routes excluded from SLO accounting and the flight recorder: they
#: observe the service rather than do its work, so scraping /metrics
#: or tailing /debug/requests must not perturb what they report.
_OBSERVER_ROUTES = frozenset({"/healthz", "/metrics", "/stats"})


def _needs_streaming(handler):
    """Answer 404 from a streaming route while no engine is attached."""

    @functools.wraps(handler)
    async def handle(self, request: HttpRequest, info: dict):
        if self.streaming is None:
            return 404, error_body("streaming is not enabled"), None
        return await handler(self, request, info)

    return handle


class QueryServer(HttpFront):
    """Concurrent TIM query service over one :class:`InflexIndex`.

    Parameters
    ----------
    index:
        The index to serve.
    config:
        Serving knobs; defaults to :class:`ServingConfig()`.
    cache:
        Optional pre-built :class:`CachedIndex` (tests inject one with
        a fake clock); by default one is constructed from ``config``.
    streaming:
        Optional :class:`~repro.streaming.StreamingEngine`; when given,
        the server serves ``streaming.index`` (ignoring ``index`` if it
        differs) and enables the ``/deltas`` and ``/subscriptions``
        routes.
    campaign:
        Knobs of the ``POST /campaign`` allocator; defaults to
        :class:`CampaignConfig()`.  The planner itself is built lazily
        on the first campaign request (sampling runs inline on the
        index executor thread, so allocations stay deterministic and
        serialize with query evaluation).
    """

    def __init__(
        self,
        index: InflexIndex,
        config: ServingConfig | None = None,
        *,
        cache: CachedIndex | None = None,
        streaming=None,
        campaign: CampaignConfig | None = None,
    ) -> None:
        super().__init__(
            config or ServingConfig(), queue_depth=lambda: self.batcher.depth
        )
        self.campaign_config = campaign or CampaignConfig()
        self._planner: CampaignPlanner | None = None
        self.streaming = streaming
        if streaming is not None:
            index = streaming.index
        self.index = index
        self.cache = cache or CachedIndex(
            index,
            max_entries=self.config.cache_entries,
            decimals=self.config.cache_decimals,
            ttl_seconds=self.config.cache_ttl_s,
        )
        self.batcher = MicroBatcher(
            self._run_batch,
            max_batch_size=self.config.max_batch_size,
            max_wait_s=self.config.max_batch_wait_s,
            max_queue_depth=self.config.max_queue_depth,
        )
        self.singleflight = SingleFlight()
        self.flight = FlightRecorder(
            self.config.flight_records,
            slow_threshold_s=self.config.slow_ms / 1e3,
        )
        self.slo = SLOMonitor(
            SLOConfig(
                latency_threshold_s=self.config.slo_latency_ms / 1e3,
                latency_target=self.config.slo_target,
                error_target=self.config.slo_error_target,
                degraded_target=self.config.slo_degraded_target,
                fast_window_s=self.config.slo_fast_window_s,
                slow_window_s=self.config.slo_window_s,
            )
        )
        self._degraded_reasons: dict[str, int] = {}
        self._executor: concurrent.futures.ThreadPoolExecutor | None = None
        self._started_at: float | None = None

    def routes(self) -> list[Route]:
        """The single-process route table (``docs/SERVING.md``).

        The streaming routes are always declared and answer 404 while
        no :class:`~repro.streaming.StreamingEngine` is attached.
        """
        return [
            Route("/query", POST, self._handle_query, work=True),
            Route("/query_batch", POST, self._handle_query_batch, work=True),
            Route("/campaign", POST, self._handle_campaign, work=True),
            Route("/healthz", GET, self._handle_healthz),
            Route("/metrics", GET, self._handle_metrics, False, PROMETHEUS),
            Route("/stats", GET, self._handle_stats),
            Route("/debug/requests", GET, self._handle_debug_requests),
            Route("/debug/slow", GET, self._handle_debug_slow),
            Route("/debug/slo", GET, self._handle_debug_slo),
            Route("/debug/spans", GET, self._handle_debug_spans),
            Route("/deltas", POST, self._handle_deltas, work=True),
            Route("/subscriptions", GET, self._list_subscriptions),
            Route("/subscriptions", POST, self._subscribe, work=True),
            Route("/subscriptions/{id}/updates", GET, self._poll_updates),
        ]

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Bind the listener and start the batch collector."""
        await self._listen()
        self._executor = concurrent.futures.ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-serving-query"
        )
        self.batcher.start(self._executor)
        self._started_at = time.monotonic()

    async def _shutdown(self, grace_ends: float) -> None:
        # Flush whatever the batcher still holds (normally empty: every
        # item belongs to an admitted request) and stop the collector.
        await self.batcher.drain()
        if self._executor is not None:
            self._executor.shutdown(wait=True)
        if self._planner is not None:
            self._planner.close()
            self._planner = None

    # ------------------------------------------------------------------
    # Query execution (the loop hands batches to the executor thread)
    # ------------------------------------------------------------------
    def _run_batch(self, items: list[BatchItem]) -> list[ServedAnswer]:
        """Answer one homogeneous group (on the executor thread).

        Each answer is packed into a :class:`ServedAnswer` here, once:
        the cache keeps that record, and the loop renders the leader,
        its coalesced followers and later hits from it.
        """
        k, strategy = items[0].group_key
        # Tightest-member deadline: the whole group degrades together
        # rather than one member holding the rest past budget.
        remaining = [
            item.deadline.remaining()
            for item in items
            if item.deadline is not None
        ]
        answers = self.index.query_batch(
            [item.gamma for item in items],
            k,
            strategy=strategy,
            deadline_ms=Deadline(min(remaining)) if remaining else None,
        )
        served = [ServedAnswer.of(answer) for answer in answers]
        for item, record in zip(items, served):
            self.cache.store(item.key, record)
        return served

    async def _answer_query(
        self,
        gamma,
        k: int,
        strategy: str,
        deadline_ms: float | None,
        info: dict | None = None,
    ) -> dict:
        """The cache -> singleflight -> batcher pipeline for one query.

        ``info``, when given, is filled with the query's flight-recorder
        fields (gamma, outcome flags, per-phase timings, batch id).
        """
        key = self.cache.canonical_key(gamma, k, strategy)
        cached = self.cache.lookup(key)
        if cached is not None:
            payload = answer_to_dict(cached, cache_hit=True)
            self._note_answer(payload)
            if info is not None:
                self._fill_info(info, gamma, k, strategy, cached, payload, None)
            return payload
        # The budget starts here, at admission — queue wait spends it.
        deadline = (
            Deadline.from_ms(deadline_ms) if deadline_ms is not None else None
        )
        submitted: list[BatchItem] = []

        async def compute():
            future = asyncio.get_running_loop().create_future()
            item = BatchItem(
                gamma=gamma,
                k=k,
                strategy=strategy,
                deadline=deadline,
                future=future,
                ctx=_ctx.current_context(),
                key=key,
            )
            submitted.append(item)
            self.batcher.submit(item)
            return await future

        served, leader = await self.singleflight.run(key, compute)
        payload = answer_to_dict(served, coalesced=not leader)
        self._note_answer(payload)
        if info is not None:
            batch_id = submitted[0].batch_id if submitted else None
            self._fill_info(
                info, gamma, k, strategy, served, payload, batch_id
            )
        return payload

    def _note_answer(self, payload: dict) -> None:
        """Tally degraded answers by machine-readable reason.

        Surfaced as ``degraded_reasons`` in ``/stats`` so an operator
        can tell deadline pressure (capacity problem) apart from
        distance fallbacks (index-coverage problem) at a glance.
        """
        if payload.get("degraded") and payload.get("reason"):
            reason = str(payload["reason"])
            self._degraded_reasons[reason] = (
                self._degraded_reasons.get(reason, 0) + 1
            )

    @staticmethod
    def _fill_info(
        info: dict,
        gamma,
        k: int,
        strategy: str,
        served: ServedAnswer,
        payload,
        batch_id,
    ) -> None:
        """Populate one query's flight-recorder fields from its answer."""
        info.update(
            gamma=gamma,
            k=k,
            strategy=strategy,
            cache_hit=payload["cache_hit"],
            coalesced=payload["coalesced"],
            degraded=payload["degraded"],
            epsilon_match=payload["epsilon_match"],
            num_neighbors_used=payload["num_neighbors_used"],
            batch_id=batch_id,
            timings={
                "search": served.search,
                "selection": served.selection,
                "aggregation": served.aggregation,
                "total": served.total,
            },
        )

    # ------------------------------------------------------------------
    # HTTP handling
    # ------------------------------------------------------------------
    def _finish_request(
        self, context, path: str, status: int, elapsed: float, info: dict
    ) -> None:
        """Post-response accounting: SLO observation, flight record,
        slow-query capture, and the shed/slow log events."""
        if path in _OBSERVER_ROUTES or path.startswith("/debug/"):
            return
        shed = status == 429
        degraded = bool(info.get("degraded")) or shed
        verdicts = self.slo.observe(
            elapsed, error=status >= 500, degraded=degraded
        )
        _obs.record_slo_verdicts(verdicts)
        if shed:
            self._log.event(
                "request.shed", level=logging.WARNING, route=path
            )
        record = FlightRecord(
            request_id=context.request_id,
            trace_id=context.trace_id,
            route=path,
            fingerprint=info.get("fingerprint", ""),
            gamma=info.get("gamma"),
            k=int(info.get("k", 0)),
            strategy=info.get("strategy", ""),
            status=status,
            duration_s=elapsed,
            cache_hit=bool(info.get("cache_hit")),
            coalesced=bool(info.get("coalesced")),
            degraded=bool(info.get("degraded")),
            shed=shed,
            epsilon_match=bool(info.get("epsilon_match")),
            num_neighbors_used=int(info.get("num_neighbors_used", 0)),
            batch_id=info.get("batch_id"),
            timings=info.get("timings", {}),
        )
        slow = self.flight.record(record, get_tracer())
        _obs.record_flight(len(self.flight), slow)
        if slow:
            self._log.event(
                "request.slow",
                level=logging.WARNING,
                route=path,
                request_id=context.request_id,
                trace_id=context.trace_id,
                duration_ms=round(elapsed * 1e3, 3),
                status=status,
            )

    @staticmethod
    def _debug_limit(request: HttpRequest, default: int = 50) -> int:
        """The ``?n=`` limit of a debug route (bounded, default 50)."""
        query = urlsplit(request.target).query
        values = parse_qs(query).get("n")
        if not values:
            return default
        try:
            return max(1, min(10_000, int(values[0])))
        except ValueError:
            return default

    async def _handle_debug_requests(self, request: HttpRequest, info: dict):
        limit = self._debug_limit(request)
        payload = {
            "total": self.flight.total,
            "requests": [
                record.to_dict() for record in self.flight.recent(limit)
            ],
        }
        return 200, json_body(payload), None

    async def _handle_debug_slow(self, request: HttpRequest, info: dict):
        limit = self._debug_limit(request)
        payload = {
            "slow_total": self.flight.slow_total,
            "slow_threshold_ms": self.config.slow_ms,
            "requests": [
                record.to_dict() for record in self.flight.slow(limit)
            ],
        }
        return 200, json_body(payload), None

    async def _handle_debug_spans(self, request: HttpRequest, info: dict):
        """One trace's spans as :meth:`Tracer.adopt` wire payloads.

        Starts are converted to wall-clock stamps (workers don't share
        the caller's monotonic epoch) and ``local_id``/``local_parent``
        preserve intra-trace nesting, so the fleet router can graft a
        worker's spans under its own request span verbatim.
        """
        values = parse_qs(urlsplit(request.target).query).get("trace")
        if not values or not values[0]:
            return 400, error_body("missing ?trace=<id> parameter"), None
        trace_id = values[0]
        tracer = get_tracer()
        wall_offset = time.time() - time.perf_counter() + tracer.epoch
        spans = []
        for record in tracer.find_trace(trace_id):
            entry = span_payload(
                record.name,
                wall_offset + record.start,
                record.duration,
                category=record.category,
                trace_id=record.trace_id,
                **record.args,
            )
            entry["local_id"] = record.span_id
            if record.parent_id is not None:
                entry["local_parent"] = record.parent_id
            spans.append(entry)
        return 200, json_body({"trace_id": trace_id, "spans": spans}), None

    def _slo_status(self) -> dict:
        """The SLO monitor's status, pushed into the ``repro_slo_*``
        gauges on the way: they are refreshed when ``/metrics``,
        ``/stats`` or ``/healthz`` is read, not on every request."""
        status = self.slo.status()
        _obs.publish_slo_status(status)
        return status

    async def _handle_metrics(self, request: HttpRequest, info: dict):
        self._slo_status()
        return 200, get_registry().to_prometheus().encode("utf-8"), None

    async def _handle_stats(self, request: HttpRequest, info: dict):
        return 200, json_body(self.stats()), None

    async def _handle_debug_slo(self, request: HttpRequest, info: dict):
        return 200, json_body(self.slo.status()), None

    async def _handle_healthz(self, request: HttpRequest, info: dict):
        if self._draining:
            return 503, json_body({"status": "draining"}), None
        slo = self._slo_status()
        breached = [
            name
            for name, detail in slo["objectives"].items()
            if detail["breached"]
        ]
        return 200, json_body(
            {
                "status": "ok" if not breached else "degraded",
                "num_topics": self.index.graph.num_topics,
                "num_index_points": self.index.num_index_points,
                "uptime_s": round(
                    time.monotonic() - (self._started_at or time.monotonic()),
                    3,
                ),
                "slo": {"healthy": slo["healthy"], "breached": breached},
            }
        ), None

    async def _handle_query(self, request: HttpRequest, info: dict):
        gamma, k, strategy, deadline_ms = parse_query_payload(
            request.json(), default_deadline_ms=self.config.deadline_ms
        )
        with self._admitted():
            payload = await self._answer_query(
                gamma, k, strategy, deadline_ms, info
            )
        return 200, json_body(payload), None

    async def _handle_query_batch(self, request: HttpRequest, info: dict):
        body = request.json()
        if not isinstance(body, dict) or not isinstance(
            body.get("queries"), list
        ):
            raise ProtocolError("'queries' must be an array of query objects")
        queries = body["queries"]
        if not queries:
            return 200, json_body({"answers": []}), None
        parsed = [
            parse_query_payload(
                entry,
                default_k=body.get("k"),
                default_strategy=body.get("strategy", "inflex"),
                default_deadline_ms=body.get(
                    "deadline_ms", self.config.deadline_ms
                ),
            )
            for entry in queries
        ]
        sub_infos = [dict() for _ in parsed]
        with self._admitted(weight=len(parsed)):
            results = await asyncio.gather(
                *(
                    self._answer_query(gamma, k, strategy, deadline_ms, sub)
                    for (gamma, k, strategy, deadline_ms), sub in zip(
                        parsed, sub_infos
                    )
                ),
                return_exceptions=True,
            )
        answers = []
        for result in results:
            if isinstance(result, (ProtocolError, QueryError)):
                answers.append({"error": str(result)})
            elif isinstance(result, BaseException):
                raise result
            else:
                answers.append(result)
        self._merge_batch_info(info, sub_infos)
        return 200, json_body({"answers": answers}), None

    @staticmethod
    def _merge_batch_info(info: dict, sub_infos: list[dict]) -> None:
        """Fold per-query flight fields into one record for the whole
        ``/query_batch`` request (identity from the first query, outcome
        flags OR-ed across members)."""
        filled = [sub for sub in sub_infos if sub]
        if not filled:
            return
        first = filled[0]
        info.update(
            gamma=first.get("gamma"),
            k=first.get("k", 0),
            strategy=first.get("strategy", ""),
            timings=first.get("timings", {}),
            cache_hit=any(sub.get("cache_hit") for sub in filled),
            coalesced=any(sub.get("coalesced") for sub in filled),
            degraded=any(sub.get("degraded") for sub in filled),
            epsilon_match=any(sub.get("epsilon_match") for sub in filled),
            num_neighbors_used=max(
                int(sub.get("num_neighbors_used", 0)) for sub in filled
            ),
            batch_id=next(
                (
                    sub["batch_id"]
                    for sub in filled
                    if sub.get("batch_id") is not None
                ),
                None,
            ),
        )

    # ------------------------------------------------------------------
    # Campaign route
    # ------------------------------------------------------------------
    def _campaign_planner(self) -> CampaignPlanner:
        """The lazily built planner for the currently served index.

        ``workers=1`` keeps sampling inline on the executor thread —
        no process pools under the server — without changing results
        (RR streams are worker-count invariant).
        """
        if self._planner is None:
            # Imported on first use: most servers never plan a campaign.
            from repro.campaign import CampaignPlanner

            self._planner = CampaignPlanner(
                self.index.graph, self.campaign_config, workers=1
            )
        return self._planner

    async def _handle_campaign(self, request: HttpRequest, info: dict):
        items, k, algorithm, epsilon, deadline_ms = parse_campaign_payload(
            request.json(),
            default_algorithm=self.campaign_config.algorithm,
            default_deadline_ms=self.config.deadline_ms,
            max_items=self.campaign_config.max_items,
        )
        if k > self.index.graph.num_nodes:
            raise ProtocolError(
                f"'k' must be at most {self.index.graph.num_nodes} "
                "(the graph's node count)"
            )
        with self._admitted():
            # The budget starts at admission: executor queue wait spends
            # it, so a backed-up server degrades rather than blowing
            # deadlines.
            deadline = (
                Deadline.from_ms(deadline_ms)
                if deadline_ms is not None
                else None
            )

            def run() -> dict:
                # One executor thread: allocations serialize with query
                # batches and delta application, and see a consistent
                # index/planner pair.
                planner = self._campaign_planner()
                allocation = planner.allocate(
                    items,
                    k,
                    algorithm=algorithm,
                    epsilon=epsilon,
                    deadline=deadline,
                )
                return allocation.to_dict()

            payload = await asyncio.get_running_loop().run_in_executor(
                self._executor, _ctx.wrap(run)
            )
        info.update(
            fingerprint=gamma_fingerprint(items[0]),
            k=k,
            strategy=f"campaign/{payload['algorithm']}",
            degraded=payload["degraded"],
        )
        return 200, json_body(payload), None

    # ------------------------------------------------------------------
    # Streaming routes (404 unless a StreamingEngine is attached)
    # ------------------------------------------------------------------
    @_needs_streaming
    async def _handle_deltas(self, request: HttpRequest, info: dict):
        from repro.streaming import DeltaBatch

        batch = DeltaBatch.from_dict(request.json())
        with self._admitted():

            def run():
                # Runs on the single index executor thread, so the
                # apply serializes with query batches; the new index
                # and the emptied cache become visible atomically
                # before the next queued computation runs.
                report, updates = self.streaming.apply(batch)
                self.index = self.streaming.index
                self.cache.swap_index(self.index)
                # The campaign planner's oracles were sampled on the
                # old graph; drop it so the next /campaign rebuilds
                # against the swapped index.
                if self._planner is not None:
                    self._planner.close()
                    self._planner = None
                return report, updates

            report, updates = await asyncio.get_running_loop().run_in_executor(
                self._executor, _ctx.wrap(run)
            )
        payload = {
            "report": report.to_dict(),
            "updates": [update.to_dict() for update in updates],
        }
        return 200, json_body(payload), None

    @_needs_streaming
    async def _list_subscriptions(self, request: HttpRequest, info: dict):
        payload = {
            "subscriptions": [
                sub.to_dict() for sub in self.streaming.registry.list()
            ]
        }
        return 200, json_body(payload), None

    @_needs_streaming
    async def _subscribe(self, request: HttpRequest, info: dict):
        gamma, k, strategy, _deadline = parse_query_payload(
            request.json(), default_deadline_ms=None
        )
        with self._admitted():
            subscription, baseline = (
                await asyncio.get_running_loop().run_in_executor(
                    self._executor,
                    lambda: self.streaming.subscribe(
                        gamma, k, strategy=strategy
                    ),
                )
            )
        payload = {
            "subscription": subscription.to_dict(),
            "baseline": baseline.to_dict(),
        }
        return 200, json_body(payload), None

    @_needs_streaming
    async def _poll_updates(self, request: HttpRequest, info: dict):
        path = request.target.split("?", 1)[0]
        try:
            subscription_id = int(path.split("/")[2])
        except ValueError:
            return 404, error_body(f"no such route: {path}"), None
        try:
            updates = self.streaming.poll(subscription_id)
        except StreamError as exc:
            return 404, error_body(str(exc)), None
        payload = {"updates": [update.to_dict() for update in updates]}
        return 200, json_body(payload), None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Consistent operator snapshot across all serving components."""
        summary = {
            "draining": self._draining,
            "admission": self.admission.snapshot().to_dict(),
            "batcher": self.batcher.stats.to_dict(),
            "cache": self.cache.stats(),
            "singleflight_coalesced": self.singleflight.coalesced_total,
            "flight": {
                "records": len(self.flight),
                "total": self.flight.total,
                "slow_total": self.flight.slow_total,
            },
            "slo": self._slo_status(),
            "degraded_reasons": dict(self._degraded_reasons),
        }
        if self.index.sketches is not None:
            summary["sketches"] = self.index.sketches.stats()
        if self._planner is not None:
            summary["campaign"] = {
                "cached_oracles": self._planner.cached_oracles,
                "algorithm": self.campaign_config.algorithm,
            }
        if self.streaming is not None:
            summary["streaming"] = self.streaming.stats()
        return summary
