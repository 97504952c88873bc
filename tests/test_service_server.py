"""The asyncio JSON-lines server and blocking client, over real
sockets on the loopback interface."""

from __future__ import annotations

import asyncio
import contextlib
import json
import random
import socket
import struct
import threading
import time

import pytest

from repro.core.shared import SharedPlanConfig
from repro.errors import ProtocolError, ServiceError
from repro.service import QueryServer, QueryService, ServiceClient, \
    TenantQuota
from repro.service import protocol

PAIR = "EVENT SEQ(A x, B y)\nWHERE x.id = y.id\nWITHIN 10\n" \
       "RETURN x.id, y.v"
SINGLE = "EVENT A x\nWITHIN 10\nRETURN x.id, x.v"


@contextlib.contextmanager
def _served(service):
    """Serve *service* from a background thread; yields the running
    :class:`QueryServer` and always shuts it down."""
    box: dict = {}
    ready = threading.Event()

    async def run() -> None:
        box["server"] = server = QueryServer(service)
        await server.start()
        ready.set()
        await server.serve_until_shutdown()

    thread = threading.Thread(target=asyncio.run, args=(run(),),
                              daemon=True)
    thread.start()
    assert ready.wait(10), "server did not start"
    try:
        yield box["server"]
    finally:
        if thread.is_alive():
            try:
                with ServiceClient(port=box["server"].port) as client:
                    client.shutdown()
            except OSError:
                pass
            thread.join(10)
        assert not thread.is_alive()


@pytest.fixture
def server(abc_registry):
    """A served QueryService; yields (service, port) and always shuts
    the server down."""
    service = QueryService(abc_registry)
    with _served(service) as running:
        yield service, running.port


def _event(event_type: str, ts: float, id_value: int, v: int) -> dict:
    return {"type": event_type, "timestamp": ts,
            "attributes": {"id": id_value, "v": v}}


class TestRoundTrip:
    def test_register_feed_drain(self, server):
        _, port = server
        with ServiceClient(port=port) as client:
            assert client.ping()
            assert client.register("alice", "pairs", PAIR)["status"] \
                == "registered"
            assert client.feed("alice", _event("A", 1.0, 1, 7)) == 0
            assert client.feed("alice", _event("B", 2.0, 1, 8)) == 1
            results = client.drain("alice")
            assert len(results) == 1
            assert results[0]["attributes"] == {"x_id": 1, "y_v": 8}

    def test_quota_travels_over_the_wire(self, server):
        service, port = server
        with ServiceClient(port=port) as client:
            client.register("alice", "q", PAIR,
                            quota=TenantQuota(max_queries=1))
            with pytest.raises(ServiceError, match="query quota"):
                client.register("alice", "q2", PAIR)
        assert service.tenant("alice").quota.max_queries == 1

    def test_subscription_pushes(self, server):
        _, port = server
        with ServiceClient(port=port) as sub, \
                ServiceClient(port=port) as feeder:
            sub.register("alice", "all_a", SINGLE)
            sub.subscribe("alice")
            feeder.feed("alice", _event("A", 1.0, 1, 10))
            push = sub.wait_push()
            assert push["push"] == "result"
            assert push["tenant"] == "alice"
            assert push["attributes"] == {"x_id": 1, "x_v": 10}

    def test_two_subscribers_both_receive(self, server):
        _, port = server
        with ServiceClient(port=port) as one, \
                ServiceClient(port=port) as two, \
                ServiceClient(port=port) as feeder:
            one.register("alice", "all_a", SINGLE)
            one.subscribe("alice")
            two.subscribe("alice")
            feeder.feed("alice", _event("A", 1.0, 2, 5))
            assert one.wait_push()["attributes"]["x_id"] == 2
            assert two.wait_push()["attributes"]["x_id"] == 2

    def test_unsubscribe_stops_pushes(self, server):
        service, port = server
        with ServiceClient(port=port) as client:
            client.register("alice", "all_a", SINGLE)
            client.subscribe("alice")
            client.unsubscribe("alice")
            client.feed("alice", _event("A", 1.0, 1, 1))
            client.ping()
            assert client.take_pushes() == []
        assert len(service.tenant("alice").pending) == 1

    def test_stats_and_flush(self, server):
        _, port = server
        with ServiceClient(port=port) as client:
            client.register("alice", "pairs", PAIR)
            client.register("bob", "pairs", PAIR)
            client.feed("alice", _event("A", 1.0, 1, 1))
            client.feed("alice", _event("B", 2.0, 1, 2))
            payload = client.stats()
            assert payload["stats"]["tenants"] == 2
            assert payload["stats"]["shared_plans"]["max_fanout"] == 2
            assert payload["tenants"]["bob"]["pending_results"] == 1
            assert client.flush() == 0

    def test_drain_limit(self, server):
        _, port = server
        with ServiceClient(port=port) as client:
            client.register("alice", "all_a", SINGLE)
            for index in range(5):
                client.feed("alice", _event("A", float(index), index, 0))
            assert len(client.drain("alice", limit=2)) == 2
            assert len(client.drain("alice")) == 3


class TestErrors:
    def test_service_error_keeps_connection(self, server):
        _, port = server
        with ServiceClient(port=port) as client:
            with pytest.raises(ServiceError, match="unknown tenant"):
                client.drain("ghost")
            assert client.ping()   # still usable

    def test_malformed_json_reported(self, server):
        _, port = server
        with socket.create_connection(("127.0.0.1", port),
                                      timeout=10) as raw:
            raw.sendall(b"this is not json\n")
            reply = json.loads(raw.makefile("rb").readline())
            assert reply["ok"] is False
            assert "invalid JSON" in reply["error"]

    def test_unknown_op_reported(self, server):
        _, port = server
        with socket.create_connection(("127.0.0.1", port),
                                      timeout=10) as raw:
            raw.sendall(protocol.encode({"op": "explode", "id": 1}))
            reply = json.loads(raw.makefile("rb").readline())
            assert reply == {"id": 1, "ok": False,
                             "error": reply["error"]}
            assert "unknown op" in reply["error"]

    def test_subscribe_unknown_tenant(self, server):
        _, port = server
        with ServiceClient(port=port) as client:
            with pytest.raises(ServiceError, match="unknown tenant"):
                client.subscribe("ghost")

    def test_disconnect_cleans_subscription(self, server):
        service, port = server
        with ServiceClient(port=port) as client:
            client.register("alice", "all_a", SINGLE)
            client.subscribe("alice")
        # After the subscriber is gone, feeding must not fail and the
        # result stays pending for the next subscriber.
        with ServiceClient(port=port) as feeder:
            feeder.feed("alice", _event("A", 1.0, 1, 1))
            assert len(feeder.drain("alice")) == 1


class TestProtocolUnit:
    def test_decode_validates_fields(self):
        with pytest.raises(ProtocolError, match="unknown op"):
            protocol.decode_request(b'{"op": "nope"}')
        with pytest.raises(ProtocolError, match="tenant"):
            protocol.decode_request(b'{"op": "drain"}')
        with pytest.raises(ProtocolError, match="'name'"):
            protocol.decode_request(
                b'{"op": "register", "tenant": "t"}')
        with pytest.raises(ProtocolError, match="'query'"):
            protocol.decode_request(
                b'{"op": "register", "tenant": "t", "name": "n"}')
        with pytest.raises(ProtocolError, match="'event'"):
            protocol.decode_request(b'{"op": "feed", "tenant": "t"}')
        with pytest.raises(ProtocolError, match="JSON object"):
            protocol.decode_request(b'[1, 2]')

    def test_encode_is_one_line(self):
        line = protocol.encode({"op": "ping", "text": "a\nb"})
        assert line.endswith(b"\n")
        assert line.count(b"\n") == 1

    def test_push_has_no_id(self):
        push = protocol.push_result({"tenant": "t", "query": "q"})
        assert protocol.is_push(push)
        assert not protocol.is_push(protocol.ok(3))


class TestCli:
    def test_serve_and_client_commands(self, tmp_path):
        """The `repro serve` / `repro client` entry points end to end."""
        import io
        from repro.cli import main

        schemas = tmp_path / "schemas.json"
        schemas.write_text(json.dumps(
            {"A": {"id": "int", "v": "int"},
             "B": {"id": "int", "v": "int"}}))
        events = tmp_path / "events.jsonl"
        events.write_text("\n".join(json.dumps(record) for record in [
            _event("A", 1.0, 1, 10), _event("B", 2.0, 1, 20)]))
        manifest = tmp_path / "manifest.json"

        serve_out = io.StringIO()
        ready = threading.Event()
        original_print = print

        def watch_ready() -> None:
            for _ in range(200):
                if "listening on" in serve_out.getvalue():
                    ready.set()
                    return
                threading.Event().wait(0.05)

        thread = threading.Thread(
            target=main,
            args=(["serve", "--schemas", str(schemas), "--manifest",
                   str(manifest), "--port", "0"], serve_out),
            daemon=True)
        thread.start()
        watcher = threading.Thread(target=watch_ready, daemon=True)
        watcher.start()
        assert ready.wait(15), serve_out.getvalue()
        port = serve_out.getvalue().split(":")[-1].split()[0].strip()

        def run(*argv: str) -> str:
            out = io.StringIO()
            assert main(list(argv) + ["--port", port], out) == 0, \
                out.getvalue()
            return out.getvalue()

        assert "registered" in run("client", "register", "alice",
                                   "pairs", PAIR)
        assert "2 event(s), 1 result(s)" in run(
            "client", "feed", "alice", "--events", str(events))
        drained = run("client", "drain", "alice")
        assert json.loads(drained.splitlines()[0])["query"] == "pairs"
        stats = json.loads(run("client", "stats"))
        assert stats["stats"]["queries"] == 1
        run("client", "shutdown")
        thread.join(10)
        assert not thread.is_alive()
        assert json.loads(manifest.read_text())["tenants"]["alice"]


# -- pipelined bursts and the dirty-tenant pump ------------------------------

TRIPLE = "EVENT SEQ(A x, B y, C z)\nWHERE x.id = y.id AND y.id = z.id\n" \
         "WITHIN 10\nRETURN x.id, z.v"
# Tenant -> query.  alice and bob share one plan (they differ only in
# RETURN); carol and dave have plans of their own.
TENANT_QUERIES = {
    "alice": PAIR,
    "bob": "EVENT SEQ(A p, B q)\nWHERE p.id = q.id\nWITHIN 10\n"
           "RETURN p.v",
    "carol": TRIPLE,
    "dave": "EVENT C x\nWHERE x.v > 5\nWITHIN 10\nRETURN x.id, x.v",
}


def _events(count: int, seed: int = 3) -> list[dict]:
    rng = random.Random(seed)
    return [_event(rng.choice("ABC"), float(index), rng.randrange(4),
                   rng.randrange(10)) for index in range(count)]


def _feeds(events: list[dict], tenant: str = "alice") -> list[dict]:
    return [{"op": "feed", "tenant": tenant, "event": event}
            for event in events]


def _registered(abc_registry, shared: bool = True) -> QueryService:
    service = QueryService(abc_registry,
                           shared_plans=SharedPlanConfig(enabled=shared))
    for tenant, query in TENANT_QUERIES.items():
        service.register(tenant, "q", query)
    return service


def _exchange(port: int, requests: list[dict],
              pipelined: bool) -> tuple[list[dict], dict[str, list]]:
    """Send *requests* (ids assigned in order) on one raw connection —
    all in one ``sendall`` or one at a time, each after the previous
    ack — and return the acks in arrival order and the pushes received,
    grouped by tenant."""
    lines = [protocol.encode({**request, "id": index})
             for index, request in enumerate(requests)]
    acks: list[dict] = []
    pushes: dict[str, list] = {}
    with socket.create_connection(("127.0.0.1", port),
                                  timeout=10) as sock:
        stream = sock.makefile("rb")

        def read_ack() -> None:
            while True:
                message = json.loads(stream.readline())
                if not protocol.is_push(message):
                    acks.append(message)
                    return
                pushes.setdefault(message["tenant"], []).append(message)

        if pipelined:
            sock.sendall(b"".join(lines))
            for _ in lines:
                read_ack()
        else:
            for line in lines:
                sock.sendall(line)
                read_ack()
        # A ping's ack is written behind every push of the requests
        # before it.
        sock.sendall(protocol.encode({"op": "ping", "id": "last"}))
        read_ack()
    return acks[:-1], pushes


class TestPipelinedBurst:
    @pytest.mark.parametrize("shared", [True, False])
    def test_burst_equals_one_at_a_time(self, abc_registry, shared):
        events = _events(120)
        with _served(_registered(abc_registry, shared)) as running, \
                ServiceClient(port=running.port) as client:
            for tenant in TENANT_QUERIES:
                client.subscribe(tenant)
            counts = [client.feed("alice", event) for event in events]
            client.ping()
            expected: dict[str, list] = {}
            for push in client.take_pushes():
                expected.setdefault(push["tenant"], []).append(push)
        assert sum(counts) > 0 and set(expected) == set(TENANT_QUERIES)

        subscribes = [{"op": "subscribe", "tenant": tenant}
                      for tenant in TENANT_QUERIES]
        with _served(_registered(abc_registry, shared)) as running:
            acks, pushes = _exchange(running.port,
                                     subscribes + _feeds(events),
                                     pipelined=True)
        assert [ack["id"] for ack in acks] == list(range(len(acks)))
        assert all(ack["ok"] for ack in acks)
        assert [ack["results"] for ack in acks[len(subscribes):]] \
            == counts
        assert pushes == expected

    def test_mid_burst_ops_see_the_feeds_before_them(self, abc_registry):
        events = _events(160, seed=11)
        requests = (_feeds(events[:40])
                    + [{"op": "drain", "tenant": "alice"}]
                    + _feeds(events[40:80])
                    + [{"op": "subscribe", "tenant": "bob"}]
                    + _feeds(events[80:120])
                    + [{"op": "withdraw", "tenant": "carol", "name": "q"},
                       {"op": "drain", "tenant": "carol"}]
                    + _feeds(events[120:])
                    + [{"op": "drain", "tenant": "alice"},
                       {"op": "drain", "tenant": "carol"}])
        runs = []
        for pipelined in (False, True):
            with _served(_registered(abc_registry)) as running:
                runs.append(_exchange(running.port, requests, pipelined))
        (one_acks, one_pushes), (burst_acks, burst_pushes) = runs
        assert burst_acks == one_acks
        assert burst_pushes == one_pushes
        drains = [ack["results"] for ack in burst_acks
                  if isinstance(ack.get("results"), list)]
        assert drains[0] and drains[1] and drains[2]
        assert drains[3] == []   # nothing for carol after its withdraw
        assert burst_pushes["bob"]

    def test_refused_lines_answer_in_their_own_slot(self, abc_registry):
        service = QueryService(abc_registry)
        service.register("alice", "q", PAIR)
        service.register("slow", "q", SINGLE,
                         quota=TenantQuota(max_events_per_second=1.0))
        requests = [
            {"op": "feed", "tenant": "alice",
             "event": _event("A", 1.0, 1, 1)},
            {"op": "feed", "tenant": "slow",
             "event": _event("A", 2.0, 2, 2)},
            {"op": "feed", "tenant": "slow",           # over its rate
             "event": _event("A", 3.0, 3, 3)},
            None,                                      # malformed line
            {"op": "feed", "tenant": "alice",
             "event": _event("B", 4.0, 1, 4)},
        ]
        lines = [b"this is not json\n" if request is None
                 else protocol.encode({**request, "id": index})
                 for index, request in enumerate(requests)]
        with _served(service) as running, \
                socket.create_connection(("127.0.0.1", running.port),
                                         timeout=10) as sock:
            sock.sendall(b"".join(lines))
            stream = sock.makefile("rb")
            acks = [json.loads(stream.readline()) for _ in lines]
        assert [ack["id"] for ack in acks] == [0, 1, 2, None, 4]
        assert [ack["ok"] for ack in acks] == [True, True, False, False,
                                               True]
        assert "rate" in acks[2]["error"]
        assert "invalid JSON" in acks[3]["error"]
        # Each A matches slow's query; alice's B completes the pair her
        # A started, across the two refused lines.
        assert [acks[0]["results"], acks[1]["results"],
                acks[4]["results"]] == [1, 1, 1]
        assert service.tenant("slow").events_throttled == 1

    def test_line_split_across_sends(self, server):
        _, port = server
        first = protocol.encode({"op": "ping", "id": 1})
        second = protocol.encode({"op": "ping", "id": 2})
        payload = first + second
        cut = len(first) + 5
        with socket.create_connection(("127.0.0.1", port),
                                      timeout=10) as sock:
            sock.sendall(payload[:cut])
            stream = sock.makefile("rb")
            assert json.loads(stream.readline())["id"] == 1
            time.sleep(0.05)
            sock.sendall(payload[cut:])
            assert json.loads(stream.readline()) \
                == {"id": 2, "ok": True, "pong": True}

    def test_overlong_line_closes_connection(self, server):
        _, port = server
        line = protocol.encode({"op": "ping", "id": 1,
                                "pad": "x" * (64 * 1024 + 10)})
        with socket.create_connection(("127.0.0.1", port),
                                      timeout=10) as sock:
            sock.sendall(protocol.encode({"op": "ping", "id": 0}) + line)
            stream = sock.makefile("rb")
            try:
                assert json.loads(stream.readline())["id"] == 0
                assert stream.readline() == b""
            except ConnectionResetError:
                pass
        with ServiceClient(port=port) as client:
            assert client.ping()   # the server itself keeps serving


class TestPump:
    def test_request_without_results_drains_nothing(self, abc_registry):
        service = QueryService(abc_registry)
        service.register("alice", "all_a", SINGLE)
        calls = []
        drain = service.drain

        def counting(tenant, limit=0):
            calls.append(tenant)
            return drain(tenant, limit)

        service.drain = counting
        with _served(service) as running, \
                ServiceClient(port=running.port) as client:
            client.subscribe("alice")
            assert client.feed("alice", _event("B", 1.0, 1, 1)) == 0
            client.ping()
            assert calls == []
            assert client.feed("alice", _event("A", 2.0, 1, 1)) == 1
            assert client.wait_push()["attributes"]["x_id"] == 1
            assert calls == ["alice"]
            assert service.dirty == {}

    def test_results_wait_for_a_later_subscribe(self, server):
        service, port = server
        with ServiceClient(port=port) as client:
            client.register("alice", "all_a", SINGLE)
            client.feed("alice", _event("A", 1.0, 7, 3))
            client.ping()
            assert "alice" in service.dirty
            client.subscribe("alice")
            assert client.wait_push()["attributes"] == {"x_id": 7,
                                                        "x_v": 3}
        assert service.dirty == {}

    def test_reset_subscriber_is_forgotten(self, abc_registry):
        service = QueryService(abc_registry)
        service.register("alice", "all_a", SINGLE)
        service.register("bob", "all_a", SINGLE)
        with _served(service) as running:
            sock = socket.create_connection(("127.0.0.1", running.port),
                                            timeout=10)
            sock.sendall(b"".join(
                protocol.encode({"op": "subscribe", "id": index,
                                 "tenant": tenant})
                for index, tenant in enumerate(("alice", "bob"))))
            stream = sock.makefile("rb")
            assert all(json.loads(stream.readline())["ok"]
                       for _ in range(2))
            stream.close()
            # Linger 0: close() sends a reset instead of a FIN.
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                            struct.pack("ii", 1, 0))
            sock.close()
            with ServiceClient(port=running.port) as feeder:
                for index in range(3):
                    feeder.feed("alice", _event("A", float(index), 1, 1))
                    feeder.feed("bob", _event("A", float(index), 1, 1))
                deadline = time.monotonic() + 5
                while any(running._subscribers.values()) \
                        and time.monotonic() < deadline:
                    feeder.ping()
                    time.sleep(0.01)
                assert not any(running._subscribers.values())
                assert feeder.ping()

    def test_raising_chunk_fails_the_run_as_a_unit(self, abc_registry):
        service = QueryService(abc_registry)
        service.register("alice", "all_a", SINGLE)
        service.register("ratio", "q", "EVENT SEQ(A x, B y)\n"
                         "WHERE x.id = y.id\nWITHIN 10\n"
                         "RETURN x.v / y.v")
        burst = _feeds([_event("A", 1.0, 1, 4), _event("B", 2.0, 1, 2),
                        _event("A", 3.0, 2, 1), _event("B", 4.0, 2, 0)])
        with _served(service) as running:
            acks, pushes = _exchange(
                running.port,
                [{"op": "subscribe", "tenant": "alice"}] + burst,
                pipelined=True)
            assert acks[0]["ok"]
            assert all(not ack["ok"] and "division by zero" in ack["error"]
                       for ack in acks[1:])
            assert pushes == {}
            assert service.tenant("alice").results_total == 0
            assert service.tenant("ratio").results_total == 0
            with ServiceClient(port=running.port) as client:
                assert client.ping()
