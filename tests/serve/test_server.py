"""In-process end-to-end tests of the asyncio admission server.

Each test spins a real server on an ephemeral port inside its own
event loop and speaks actual HTTP to it — the same code path the CLI
and the load generator exercise, minus the subprocess.
"""

import asyncio
import json

from repro.obs import Observer, observed
from repro.serve.loadgen import _get_json, _post_json
from repro.serve.server import QosServer, ServerConfig


def run(coro):
    return asyncio.run(coro)


async def start_server(**overrides) -> QosServer:
    defaults = dict(port=0, cores=2, cache_ways=8, drain_grace=1.0)
    defaults.update(overrides)
    server = QosServer(ServerConfig(**defaults))
    await server.start()
    return server


async def connect(server):
    return await asyncio.open_connection("127.0.0.1", server.port)


async def admit(server, reader, writer, **overrides):
    payload = dict(tenant="acme", mode="strict", cores=1,
                   max_wall_clock=0.5)
    payload.update(overrides)
    return await _post_json(reader, writer, "/v1/admit", payload)


class TestAdmitEndpoint:
    def test_admit_and_release_round_trip(self):
        async def scenario():
            server = await start_server()
            reader, writer = await connect(server)
            status, body = await admit(server, reader, writer)
            assert status == 200
            assert body["outcome"] == "admit"
            assert body["granted_mode"] == "strict"
            job_id = body["job_id"]
            status, released = await _post_json(
                reader, writer, "/v1/release", {"job_id": job_id}
            )
            assert status == 200 and released["released"] is True
            # Releasing again is harmlessly false.
            _, again = await _post_json(
                reader, writer, "/v1/release", {"job_id": job_id}
            )
            assert again["released"] is False
            writer.close()
            await server.drain()

        run(scenario())

    def test_malformed_body_is_accounted_as_invalid(self):
        async def scenario():
            server = await start_server()
            reader, writer = await connect(server)
            status, body = await _post_json(
                reader, writer, "/v1/admit", {"tenant": ""}
            )
            assert status == 400
            assert body["outcome"] == "reject-invalid"
            writer.close()
            await server.drain()
            accounting = server.controller.accounting
            assert accounting.offered == 1
            assert accounting.rejected == 1
            assert accounting.conserves

        run(scenario())

    def test_decision_carries_latency_and_retry_headers(self):
        async def scenario():
            server = await start_server()
            reader, writer = await connect(server)
            _, body = await admit(server, reader, writer)
            assert body["decision_latency"] >= 0.0
            writer.close()
            await server.drain()

        run(scenario())

    def test_unknown_route_404_and_wrong_method_405(self):
        async def scenario():
            server = await start_server()
            reader, writer = await connect(server)
            status, _ = await _get_json(reader, writer, "/nope")
            assert status == 404
            status, _ = await _get_json(reader, writer, "/v1/admit")
            assert status == 405
            writer.close()
            await server.drain()

        run(scenario())


class TestOverloadPaths:
    def test_full_queue_sheds_with_retry_hint(self):
        async def scenario():
            server = await start_server(queue_limit=1)
            # Freeze the decision worker so the bounded queue fills.
            for task in server._tasks:
                task.cancel()
            await asyncio.gather(
                *server._tasks, return_exceptions=True
            )
            server._tasks = []

            reader, writer = await connect(server)
            # With no worker, the first request occupies the queue...
            first = asyncio.ensure_future(
                admit(server, reader, writer, timeout=0.5)
            )
            await asyncio.sleep(0.05)
            # ...and a second connection's request finds it full.
            reader2, writer2 = await connect(server)
            status, body = await admit(
                server, reader2, writer2, timeout=0.5
            )
            assert status == 429
            assert body["outcome"] == "shed-queue-full"
            assert body["retry_after"] > 0.0
            writer2.close()
            first.cancel()
            writer.close()
            await server.drain()
            assert server.controller.accounting.conserves

        run(scenario())

    def test_overloaded_health_sheds_at_the_gate(self):
        async def scenario():
            server = await start_server()
            server.health.classify(
                queue_depth=server.config.queue_limit,
                inflight=0,
                loop_lag=0.0,
            )
            reader, writer = await connect(server)
            status, body = await admit(server, reader, writer)
            assert status == 429
            assert body["outcome"] == "shed-overload"
            writer.close()
            await server.drain()
            assert server.controller.accounting.shed == 1

        run(scenario())

    def test_stale_queued_request_sheds_on_deadline(self):
        async def scenario():
            server = await start_server()
            # Freeze the worker, enqueue with a tiny decision deadline,
            # then resume: the worker must shed, not decide late.
            for task in server._tasks:
                task.cancel()
            await asyncio.gather(
                *server._tasks, return_exceptions=True
            )
            server._tasks = []
            reader, writer = await connect(server)
            pending = asyncio.ensure_future(
                admit(server, reader, writer, timeout=0.05)
            )
            await asyncio.sleep(0.2)
            loop = asyncio.get_running_loop()
            server._tasks = [
                loop.create_task(server._decision_worker())
            ]
            status, body = await pending
            assert status == 429
            assert body["outcome"] == "shed-deadline"
            writer.close()
            await server.drain()
            assert server.controller.accounting.conserves

        run(scenario())


class TestIntrospection:
    def test_healthz_and_stats(self):
        async def scenario():
            server = await start_server()
            reader, writer = await connect(server)
            await admit(server, reader, writer)
            status, health = await _get_json(reader, writer, "/healthz")
            assert status == 200
            assert health["state"] == "healthy"
            assert health["draining"] is False
            status, stats = await _get_json(reader, writer, "/stats")
            assert status == 200
            assert stats["accounting"]["offered"] == 1
            assert stats["accounting"]["conserves"] is True
            assert stats["queue_depth"] == 0
            assert stats["breaker"]["ceiling"] == "strict"
            writer.close()
            await server.drain()

        run(scenario())

    def test_metrics_endpoint_serves_prometheus_text(self):
        async def scenario():
            with observed(Observer()):
                server = await start_server()
                reader, writer = await connect(server)
                await admit(server, reader, writer)
                writer.write(
                    b"GET /metrics HTTP/1.1\r\nHost: t\r\n\r\n"
                )
                await writer.drain()
                head = await reader.readuntil(b"\r\n\r\n")
                assert b"200 OK" in head
                length = int(
                    [
                        line.split(b":")[1]
                        for line in head.split(b"\r\n")
                        if line.lower().startswith(b"content-length")
                    ][0]
                )
                body = await reader.readexactly(length)
                assert b"serve_offered_total 1" in body.replace(b"\r", b"")
                writer.close()
                await server.drain()

        run(scenario())


class TestDrain:
    def test_drain_rejects_new_work_and_flushes(self, tmp_path):
        async def scenario():
            metrics = tmp_path / "metrics.jsonl"
            events = tmp_path / "events.jsonl"
            with observed(Observer()):
                server = await start_server(
                    metrics_out=str(metrics), events_out=str(events)
                )
                reader, writer = await connect(server)
                await admit(server, reader, writer)
                drain = asyncio.ensure_future(server.drain())
                await asyncio.sleep(0.02)
                status, body = await admit(server, reader, writer)
                assert status == 503
                assert body["outcome"] == "shed-draining"
                writer.close()
                await drain
            assert metrics.exists() and events.exists()
            lines = [
                json.loads(line)
                for line in events.read_text().splitlines()
            ]
            kinds = {line["kind"] for line in lines}
            assert "serve.drain.begin" in kinds
            assert "serve.drain.end" in kinds
            accounting = server.controller.accounting
            assert accounting.conserves
            assert accounting.unhandled_errors == 0

        run(scenario())

    def test_drain_is_idempotent(self):
        async def scenario():
            server = await start_server()
            await asyncio.gather(server.drain(), server.drain())
            await server.drain()
            assert server.stopped.is_set()

        run(scenario())

    def test_drain_sheds_undecided_queue_leftovers(self):
        async def scenario():
            server = await start_server(drain_grace=0.05)
            # Kill the worker so queued requests cannot be decided.
            for task in server._tasks:
                task.cancel()
            await asyncio.gather(
                *server._tasks, return_exceptions=True
            )
            server._tasks = []
            reader, writer = await connect(server)
            pending = asyncio.ensure_future(
                admit(server, reader, writer, timeout=5.0)
            )
            await asyncio.sleep(0.05)
            await server.drain()
            status, body = await pending
            assert status == 503
            assert body["outcome"] == "shed-draining"
            writer.close()
            assert server.controller.accounting.conserves

        run(scenario())


class TestHousekeeping:
    def test_expiry_frees_inflight_over_time(self):
        async def scenario():
            server = await start_server(housekeeping_interval=0.02)
            reader, writer = await connect(server)
            await admit(server, reader, writer, max_wall_clock=0.05)
            assert server.controller.inflight == 1
            await asyncio.sleep(0.3)
            assert server.controller.inflight == 0
            writer.close()
            await server.drain()

        run(scenario())

    def test_bandwidth_steal_policy_grants_on_an_idle_server(self):
        """``serve --policy bandwidth-steal``: each housekeeping tick is
        a policy epoch, and an idle server's low pressure earns the
        bus grant, surfaced in ``/stats``."""

        async def scenario():
            server = await start_server(
                housekeeping_interval=0.01, policy="bandwidth-steal"
            )
            reader, writer = await connect(server)
            for _ in range(200):  # a few ticks; bounded at ~2 s
                await asyncio.sleep(0.01)
                _, stats = await _get_json(reader, writer, "/stats")
                if stats["policy"]["decisions"]:
                    break
            assert stats["policy"]["name"] == "bandwidth-steal"
            assert stats["policy"]["granted"] is True
            assert stats["policy"]["decisions"] >= 1
            writer.close()
            await server.drain()

        run(scenario())

    def test_sustained_overload_walks_the_breaker(self):
        async def scenario():
            server = await start_server(
                housekeeping_interval=0.01, breaker_trip_after=2
            )
            # Pin the health monitor's inputs at overload by filling
            # the queue signal directly.
            server.lag_probe.observe(10.0)
            await asyncio.sleep(0.15)
            assert server.controller.breaker.ceiling.value != "strict"
            await server.drain()

        run(scenario())
