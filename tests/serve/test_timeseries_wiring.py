"""Serve-layer wiring of the time-series telemetry (DESIGN.md §14).

In-process servers on ephemeral ports, same harness as
``test_server.py``: the history endpoint, the drain-time forced
sample + artefact flush, the flight recorder's breaker-trip dump, the
new `/stats` fields, the per-tenant SLO counters, and the
zero-cost-when-disabled contract.
"""

import asyncio

from repro.obs import Observer, observed
from repro.obs.timeseries import load_history_jsonl
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


class TestHistoryEndpoint:
    def test_history_payload_shape_and_samples(self):
        async def scenario():
            with observed(Observer()):
                server = await start_server(
                    housekeeping_interval=0.01, sample_every=1
                )
                reader, writer = await connect(server)
                await admit(server, reader, writer)
                await asyncio.sleep(0.1)
                status, body = await _get_json(
                    reader, writer, "/metrics/history"
                )
                writer.close()
                await server.drain()
            assert status == 200
            assert body["version"] == 1
            assert body["offered"] >= 1
            samples = body["samples"]
            assert samples, "no samples taken"
            assert [s["seq"] for s in samples] == list(
                range(len(samples))
            )
            newest = samples[-1]["series"]
            assert newest["serve.offered"] == 1
            assert newest["serve.admitted"] == 1

        run(scenario())

    def test_post_to_history_is_405(self):
        async def scenario():
            server = await start_server()
            reader, writer = await connect(server)
            status, _ = await _post_json(
                reader, writer, "/metrics/history", {}
            )
            assert status == 405
            writer.close()
            await server.drain()

        run(scenario())

    def test_disabled_observer_takes_no_samples(self):
        # Zero-cost contract: with the default null observer no
        # points are ever constructed, so the ring stays empty even
        # with aggressive housekeeping.
        async def scenario():
            server = await start_server(
                housekeeping_interval=0.01, sample_every=1
            )
            reader, writer = await connect(server)
            await admit(server, reader, writer)
            await asyncio.sleep(0.1)
            status, body = await _get_json(
                reader, writer, "/metrics/history"
            )
            writer.close()
            await server.drain()
            assert status == 200
            assert body["samples"] == []
            assert body["offered"] == 0
            assert server.sampler.samples_taken == 0

        run(scenario())


class TestStatsExtensions:
    def test_stats_carries_uptime_and_fingerprint(self):
        async def scenario():
            server = await start_server()
            reader, writer = await connect(server)
            status, body = await _get_json(reader, writer, "/stats")
            writer.close()
            await server.drain()
            assert status == 200
            assert body["uptime"] >= 0.0
            assert "cache_backend" not in body
            fingerprint = body["fingerprint"]
            assert isinstance(fingerprint, str) and len(fingerprint) >= 12
            # Memoised: the digest is stable across calls.
            assert server.fingerprint() == fingerprint

        run(scenario())

    def test_breaker_rung_in_stats(self):
        async def scenario():
            server = await start_server()
            reader, writer = await connect(server)
            _, body = await _get_json(reader, writer, "/stats")
            writer.close()
            await server.drain()
            assert body["breaker"]["rung"] == 0

        run(scenario())


class TestDrainArtifacts:
    def test_drain_takes_forced_final_sample_and_flushes(self, tmp_path):
        async def scenario():
            history = tmp_path / "history.jsonl"
            flight = tmp_path / "flight.jsonl"
            with observed(Observer()):
                server = await start_server(
                    housekeeping_interval=0.01,
                    sample_every=1000,  # periodic sampling ~never fires
                    history_out=str(history),
                    flight_out=str(flight),
                )
                reader, writer = await connect(server)
                await admit(server, reader, writer)
                status, rejected = await admit(
                    server, reader, writer, cores=99
                )
                writer.close()
                await server.drain()
            records = load_history_jsonl(history)
            assert records, "drain wrote no final sample"
            final = records[-1]["series"]
            accounting = server.controller.accounting
            assert final["serve.offered"] == accounting.offered == 2
            assert final["serve.admitted"] == accounting.admitted
            assert final["serve.rejected"] == accounting.rejected
            total = (
                final["serve.admitted"]
                + final["serve.rejected"]
                + final.get("serve.shed", 0)
            )
            assert total == final["serve.offered"]
            flight_records = load_history_jsonl(flight)
            assert flight_records[0]["kind"] == "flight.meta"
            assert flight_records[0]["reason"] == "drain"
            kinds = {r["kind"] for r in flight_records[1:]}
            assert "sample" in kinds and "event" in kinds

        run(scenario())

    def test_no_artifacts_without_paths(self, tmp_path):
        async def scenario():
            with observed(Observer()):
                server = await start_server()
                await server.drain()
            assert list(tmp_path.iterdir()) == []

        run(scenario())


class TestFlightOnBreakerTrip:
    def test_rung_increase_dumps_flight(self, tmp_path):
        async def scenario():
            flight = tmp_path / "flight.jsonl"
            with observed(Observer()):
                server = await start_server(
                    housekeeping_interval=0.01,
                    breaker_trip_after=2,
                    sample_every=1,
                    flight_out=str(flight),
                )
                server.lag_probe.observe(10.0)  # pin overload
                for _ in range(200):
                    await asyncio.sleep(0.01)
                    if flight.exists():
                        break
                assert flight.exists(), "breaker trip never dumped"
                records = load_history_jsonl(flight)
                await server.drain()
            meta = records[0]
            assert meta["kind"] == "flight.meta"
            assert meta["reason"].startswith("breaker:")

        run(scenario())


class TestTenantCounters:
    def test_offered_and_violations_per_tenant(self):
        async def scenario():
            with observed(Observer()) as observer:
                server = await start_server()
                reader, writer = await connect(server)
                await admit(server, reader, writer, tenant="good")
                await admit(
                    server, reader, writer, tenant="bad", cores=99
                )
                writer.close()
                await server.drain()
                series = observer.metrics.scalar_series()
            assert series["serve.tenant.offered{tenant=good}"] == 1
            assert series["serve.tenant.offered{tenant=bad}"] == 1
            assert series["serve.tenant.violations{tenant=bad}"] == 1
            assert "serve.tenant.violations{tenant=good}" not in series

        run(scenario())
