"""Tests for the shared HTTP front end (`repro.serving.front`).

The query server and the fleet router run on one base: one connection
loop, one route table per front end, one drain.  These tests pin what
that base guarantees to both — requests on connections accepted before
a drain are answered, metric labels come from route patterns rather
than raw paths, and the two route tables cannot drift apart — plus
``POST /campaign`` through the fleet router.
"""

from __future__ import annotations

import asyncio
import json

from repro import obs
from repro.core import CampaignConfig, FleetConfig, ServingConfig
from repro.serving import Fleet, QueryServer
from repro.serving.fleet import SINGLE_PROCESS_ONLY
from repro.serving.front import UNMATCHED
from repro.serving.protocol import encode_request, json_body, read_response


async def _request(port, method, target, body=None):
    """One request on its own connection -> (status, headers, body)."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        writer.write(
            encode_request(
                method, target, json_body(body) if body is not None else b""
            )
        )
        await writer.drain()
        return await read_response(reader)
    finally:
        writer.close()


class TestDrain:
    def test_request_on_a_connection_accepted_before_drain_is_answered(
        self, small_index
    ):
        async def scenario():
            server = QueryServer(small_index, ServingConfig(port=0))
            await server.start()
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            try:
                # The connection is open but idle when the drain begins;
                # its first request arrives only afterwards.
                server.request_drain()
                await asyncio.sleep(0.05)
                writer.write(
                    encode_request(
                        "POST",
                        "/query",
                        json_body({"gamma": [0.4, 0.3, 0.2, 0.1], "k": 5}),
                    )
                )
                await writer.drain()
                response = await asyncio.wait_for(read_response(reader), 10)
            finally:
                writer.close()
            await asyncio.wait_for(server.wait_drained(), 10)
            return response

        status, headers, body = asyncio.run(scenario())
        assert status == 503
        assert headers["connection"] == "close"
        assert "retry-after" in headers
        assert json.loads(body)["error"] == "server is draining"


class TestRouteLabels:
    def test_metric_series_are_bounded_by_the_route_table(self, small_index):
        obs.enable()

        async def scenario():
            server = QueryServer(small_index, ServingConfig(port=0))
            await server.start()
            try:
                for i in range(40):
                    status, _, _ = await _request(
                        server.port, "GET", f"/scan/{i}"
                    )
                    assert status == 404
                for i in range(5):
                    await _request(
                        server.port, "GET", f"/subscriptions/{i}/updates"
                    )
                _, _, text = await _request(server.port, "GET", "/metrics")
                return text.decode("utf-8")
            finally:
                await server.aclose()

        text = asyncio.run(scenario())
        routes = {
            line.split('route="', 1)[1].split('"', 1)[0]
            for line in text.splitlines()
            if line.startswith("repro_serving_request") and 'route="' in line
        }
        # Every raw path above carried a number; no label may.
        assert routes and not any(c.isdigit() for r in routes for c in r)
        counts = {
            line.rsplit(" ", 1)[0]: line.rsplit(" ", 1)[1]
            for line in text.splitlines()
            if line.startswith("repro_serving_requests_total{")
        }
        unmatched = f'route="{UNMATCHED}",status="404"'
        updates = 'route="/subscriptions/{id}/updates",status="404"'
        assert counts[f"repro_serving_requests_total{{{unmatched}}}"] == "40"
        assert counts[f"repro_serving_requests_total{{{updates}}}"] == "5"


class TestRouteParity:
    def test_every_server_route_is_forwarded_or_single_process_only(
        self, small_index
    ):
        server = QueryServer(small_index, ServingConfig(port=0))
        fleet = Fleet(small_index, ServingConfig(port=0), FleetConfig())
        served = {
            (route.pattern, method): route
            for route in fleet.routes()
            for method in route.methods
        }
        for route in server.routes():
            for method in route.methods:
                key = (route.pattern, method)
                if route.pattern in SINGLE_PROCESS_ONLY:
                    assert key not in served, key
                    continue
                assert key in served, key
                if route.work:
                    assert served[key].handler == fleet._forward, key
        server_patterns = {route.pattern for route in server.routes()}
        assert SINGLE_PROCESS_ONLY <= server_patterns


class TestFleetCampaign:
    def test_fleet_and_lone_server_allocate_identically(self, small_index):
        campaign = CampaignConfig(num_sets=300, seed=5)
        body = {
            "items": [[0.7, 0.1, 0.1, 0.1], [0.1, 0.1, 0.1, 0.7]],
            "k": 6,
        }

        async def lone():
            server = QueryServer(
                small_index, ServingConfig(port=0), campaign=campaign
            )
            await server.start()
            try:
                return await _request(server.port, "POST", "/campaign", body)
            finally:
                await server.aclose()

        async def fleet():
            front = Fleet(
                small_index,
                ServingConfig(port=0),
                FleetConfig(workers=2, heartbeat_interval_s=0.1),
                campaign=campaign,
            )
            await front.start()
            try:
                return await _request(front.port, "POST", "/campaign", body)
            finally:
                await front.aclose()

        lone_status, _, lone_body = asyncio.run(lone())
        fleet_status, fleet_headers, fleet_body = asyncio.run(fleet())
        assert lone_status == fleet_status == 200
        assert fleet_headers["x-shard"] in ("0", "1")
        expected = json.loads(lone_body)
        got = json.loads(fleet_body)
        assert expected["assignments"]
        for key in ("assignments", "gains", "total_spread"):
            assert got[key] == expected[key], key
