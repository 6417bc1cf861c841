"""The serve daemon end-to-end: one in-process server per test class.

These tests embed :class:`repro.serve.ServerThread` and talk real
sockets through :class:`repro.serve.ServeClient` — the full wire path,
minus process isolation (``tests/serve/test_shutdown.py`` covers the
subprocess + signal side).
"""

import json

import pytest

import repro.obs as obs
from repro.core.realfmt import parse_real
from repro.functions import get_spec
from repro.serve import ServeClient, ServeConfig, ServerThread
from repro.store import open_store
from repro.synth import synthesize
from repro.verify import circuit_realizes


@pytest.fixture(autouse=True)
def _clean_obs():
    obs.reset_event_bus()
    obs.default_registry().reset()
    yield
    obs.reset_event_bus()
    obs.default_registry().reset()


@pytest.fixture()
def server(tmp_path):
    config = ServeConfig(port=0, store=str(tmp_path / "store"),
                         max_concurrency=2, drain_grace=0.5)
    thread = ServerThread(config)
    yield thread.start()
    thread.shutdown()


@pytest.fixture()
def client(server):
    with ServeClient(server.addresses[0], timeout=120.0) as connection:
        yield connection


class TestSynthPath:
    def test_hello_announces_protocol(self, client):
        assert client.hello["format"] == "repro-serve-v1"
        assert client.hello["v"] == 1

    def test_synthesis_then_store_hit(self, client):
        first = client.synth_wait(benchmark="3_17", engine="bdd")
        assert first["type"] == "result"
        assert first["status"] == "realized"
        assert first["depth"] == 6
        assert first["served"] == "synthesis"
        assert first["record"]["spec"] == "3_17"
        assert len(first["circuits"]) == first["num_solutions"]

        again = client.synth_wait(benchmark="3_17", engine="bdd")
        assert again["served"] == "store"
        assert again["status"] == "realized"
        assert again["record"]["store_hit"] is True
        # the replayed circuits realize the spec
        spec = get_spec("3_17")
        for text in again["circuits"]:
            circuit, _ = parse_real(text)
            assert circuit_realizes(circuit, spec)

    def test_record_matches_serial_run(self, client, tmp_path):
        reply = client.synth_wait(benchmark="mod5d1_s", engine="bdd")
        serial = synthesize(get_spec("mod5d1_s"), kinds=("mct",),
                            engine="bdd", store=str(tmp_path / "serial"))
        from repro.core.library import GateLibrary
        library = GateLibrary.from_kinds(4, ("mct",))
        expected = obs.canonical_record(obs.build_run_record(serial, library))
        got = obs.canonical_record(reply["record"])
        assert json.dumps(got, sort_keys=True) \
            == json.dumps(expected, sort_keys=True)

    def test_streaming_events_only_for_streaming_request(self, client):
        events = []
        final = None
        for frame in client.synth(benchmark="3_17", engine="bdd",
                                  stream=True):
            if frame["type"] == "event":
                events.append(frame["payload"])
            else:
                final = frame
        assert final["status"] == "realized"
        kinds = [event["event"] for event in events]
        assert "depth_started" in kinds
        assert "depth_refuted" in kinds
        assert "run_finished" in kinds
        assert all("scope" not in event for event in events)

        # a non-streaming request gets the result frame and nothing else
        frames = list(client.synth(benchmark="mod5d1_s", engine="bdd"))
        assert [frame["type"] for frame in frames] == ["result"]

    def test_permutation_request(self, client):
        reply = client.synth_wait(perm=[7, 1, 4, 3, 0, 2, 6, 5],
                                  name="my_3_17", engine="bdd")
        assert reply["status"] == "realized"
        assert reply["depth"] == 6
        assert reply["record"]["spec"] == "my_3_17"

    def test_ping_and_stats(self, client):
        assert client.ping() is True
        client.synth_wait(benchmark="3_17", engine="bdd")
        stats = client.stats()
        assert stats["format"] == "repro-serve-stats-v1"
        assert stats["serve"]["serve.requests"] >= 1
        assert stats["serve"]["serve.syntheses"] >= 1
        assert stats["pool"]["capacity"] == 8
        assert stats["store"]["format"] == "repro-cache-stats-v1"
        assert stats["draining"] is False
        # The manager's table bookkeeping surfaces in the "bdd" section.
        from repro.bdd.tables import kernel_available
        assert stats["bdd"]["bdd.compactions"] >= 1
        assert stats["bdd"]["bdd.utab_grows"] >= 1
        assert stats["bdd"]["bdd.kernel"] == int(kernel_available())

    def test_stats_store_section_is_cache_stats_payload(self, client,
                                                        server):
        client.synth_wait(benchmark="3_17", engine="bdd")
        via_rpc = client.stats()["store"]
        direct = open_store(server.config.store).stats_payload()
        # counters keep moving (the RPC itself doesn't touch the store),
        # so the documents must agree key-for-key.
        assert set(via_rpc) == set(direct)
        assert via_rpc["format"] == direct["format"]
        assert via_rpc["results"] == direct["results"]
        assert via_rpc["result_bytes"] == direct["result_bytes"]


class TestErrors:
    def test_bad_requests(self, client):
        reply = client.synth_wait(benchmark="no_such_benchmark")
        assert reply["type"] == "error"
        assert reply["code"] == "bad_request"
        reply = client.synth_wait(perm=[1, 2, 3])  # not a permutation
        assert reply["code"] == "bad_request"

    def test_unknown_op(self, client):
        request_id = client._send({"op": "dance"})
        reply = client._await(request_id)
        assert reply["type"] == "error"
        assert reply["code"] == "bad_request"

    def test_error_replies_keep_connection_usable(self, client):
        assert client.synth_wait(benchmark="nope")["type"] == "error"
        assert client.synth_wait(benchmark="3_17",
                                 engine="bdd")["status"] == "realized"


class TestAdmissionControl:
    def test_queue_full_rejection(self, tmp_path):
        config = ServeConfig(port=0, store=str(tmp_path / "store"),
                             max_concurrency=1, queue_limit=0,
                             drain_grace=0.2)
        thread = ServerThread(config)
        server = thread.start()
        try:
            with ServeClient(server.addresses[0], timeout=60.0) as blocker, \
                    ServeClient(server.addresses[0], timeout=60.0) as other:
                frames = blocker.synth(benchmark="hwb4", engine="sat",
                                       time_limit=10.0)
                # wait for the run to occupy the only worker
                import time
                for _ in range(100):
                    if other.stats()["active_jobs"] >= 1:
                        break
                    time.sleep(0.05)
                rejected = other.synth_wait(benchmark="3_17", engine="bdd")
                assert rejected["type"] == "error"
                assert rejected["code"] == "queue_full"
                stats = other.stats()
                assert stats["serve"]["serve.rejected"] == 1
                del frames  # the blocker reply arrives during drain
        finally:
            thread.shutdown()

    def test_deadline_exceeded_then_daemon_stays_healthy(self, tmp_path):
        config = ServeConfig(port=0, store=str(tmp_path / "store"),
                             max_concurrency=1, drain_grace=0.2)
        thread = ServerThread(config)
        server = thread.start()
        try:
            with ServeClient(server.addresses[0], timeout=60.0) as client:
                reply = client.synth_wait(benchmark="hwb4", engine="sat",
                                          time_limit=30.0, deadline=0.4)
                assert reply["type"] == "error"
                assert reply["code"] == "deadline_exceeded"
                # the orphaned job was cancelled; the daemon keeps serving
                healthy = client.synth_wait(benchmark="3_17", engine="bdd")
                assert healthy["status"] == "realized"
                stats = client.stats()
                assert stats["serve"]["serve.deadline_expired"] == 1
        finally:
            thread.shutdown()


class TestWarmSessions:
    def test_interrupted_run_parks_and_resumes_session(self, tmp_path):
        config = ServeConfig(port=0, store=str(tmp_path / "store"),
                             max_concurrency=1, drain_grace=0.2)
        thread = ServerThread(config)
        server = thread.start()
        try:
            with ServeClient(server.addresses[0], timeout=120.0) as client:
                first = client.synth_wait(benchmark="hwb4", engine="sat",
                                          time_limit=0.6)
                assert first["status"] == "timeout"
                stats = client.stats()
                assert stats["pool"]["sessions"] == 1
                second = client.synth_wait(benchmark="hwb4", engine="sat",
                                           time_limit=0.6)
                assert second["status"] in ("timeout", "realized")
                stats = client.stats()
                assert stats["serve"]["serve.warm_pool_hits"] == 1
                assert stats["pool"]["hits"] == 1
        finally:
            thread.shutdown()

    def test_definitive_run_is_not_pooled(self, client):
        reply = client.synth_wait(benchmark="3_17", engine="sat")
        assert reply["status"] == "realized"
        assert client.stats()["pool"]["sessions"] == 0


class TestEphemeralStore:
    def test_daemon_without_store_dir_still_caches_in_memory(self):
        config = ServeConfig(port=0, store=None, drain_grace=0.2)
        thread = ServerThread(config)
        server = thread.start()
        try:
            with ServeClient(server.addresses[0], timeout=60.0) as client:
                first = client.synth_wait(benchmark="3_17", engine="bdd")
                assert first["served"] == "synthesis"
                again = client.synth_wait(benchmark="3_17", engine="bdd")
                assert again["served"] == "store"
            root = server._ephemeral_store_root
        finally:
            thread.shutdown()
        import os
        assert root is not None and not os.path.exists(root)
