"""The six workloads, with every size, rate and limit frozen here.

Open-loop rates and latency limits were set once, at about half the
closed-loop throughput the seed commit reached on the reference box (see
README.md); they are constants so that faster code is not handed more
load.  ``scale`` shrinks the inputs for ``--smoke`` only.

The system under test receives nothing but what ``generate`` made from
the seed.
"""

from __future__ import annotations

import json
import os
import select
import shutil
import socket
import subprocess
import sys
import tempfile
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from time import perf_counter
from types import SimpleNamespace
from typing import Any

from repro.core.plan import PlanConfig
from repro.persist import FsyncPolicy, PersistenceConfig
from repro.rfid import NoiseModel
from repro.service import AdmissionPolicy, QueryService, TenantQuota, \
    protocol
from repro.sharding.config import ShardingConfig
from repro.system import SaseSystem
from repro.system.processor import ComplexEventProcessor
from repro.workloads import (
    LOCATION_UPDATE_RULE,
    MISPLACED_INVENTORY_QUERY,
    RetailConfig,
    RetailScenario,
    SHOPLIFTING_QUERY,
)
from repro.workloads.synthetic import SyntheticConfig, SyntheticStream, \
    synthetic_registry

from harness import BENCH_DIR, WORK_DIR, PassResult, closed_loop, open_loop

BATCH = 64   # events per arrival unit on the CEP workloads

# -- retail (the paper's demo) ---------------------------------------------------

RETAIL_NOISE = NoiseModel(miss_rate=0.1, duplicate_rate=0.1,
                          truncate_rate=0.02, ghost_rate=0.01)
# 36 scripted actors arrive about every 2 s, so they are all gone after
# ~150 s of store time and every seed's script has nearly the same shape:
# what a pass costs depends on *when* things happen (the shoplifting query
# pairs every shelf reading of a tag with every exit reading; every tick
# after a misplacement re-reports it with its `_movementHistory`), and
# widely spaced arrivals made throughput differ by 25 % between seeds.
# Scanning runs to RETAIL_HORIZON either way, so every seed offers the same
# number of ticks.  Counter and exit dwell are long enough that reader
# noise cannot hide a whole visit (0.12^6 per incident), which keeps
# precision = recall = 1.0 on every seed.
RETAIL_HORIZON = 200.0
RETAIL_ACTORS = dict(n_products=120, n_shoppers=24, n_shoplifters=6,
                     n_misplacements=6, shopper_spacing=0.5,
                     counter_dwell=8.0, exit_dwell=6.0)
RETAIL_INGEST_BATCH = 64
RETAIL_OPEN_TICKS_PER_S = 40.0   # both retail workloads, so they compare
RETAIL_LATENCY_LIMIT_MS = 100.0
DURABLE_CHECKPOINT_EVERY = 3_000
DURABLE_FSYNC = FsyncPolicy("every_n", 64)
# The abandoned data directory recovery is timed on: two checkpoints,
# then this many more WAL records, then the process "dies".
RECOVERY_WAL_TAIL = 2_000
TRACK_TRACE_SQL = (
    "SELECT area_id, COUNT(*) AS n FROM locations "
    "WHERE time_out IS NULL GROUP BY area_id ORDER BY area_id",
    "SELECT tag_id, area_id, time_in FROM locations "
    "WHERE area_id = 4 ORDER BY time_in",
    "SELECT tag_id, COUNT(*) AS moves FROM locations "
    "GROUP BY tag_id ORDER BY tag_id",
)

# -- synthetic CEP streams ---------------------------------------------------------

CEP_STREAM = dict(n_types=4, id_domain=256, v_domain=10, mean_gap=1.0)
SELECTIVE_EVENTS = 200_000
SELECTIVE_OPEN_BATCHES_PER_S = 2_500.0
SELECTIVE_LATENCY_LIMIT_MS = 5.0
# E16's filter-reject / multi-filter / single-filter shapes over two type
# pairs: about 2 % of the events offered to a component are admitted.
SELECTIVE_QUERIES = {
    "reject_ab": "EVENT SEQ(A x, B y) WHERE x.v < 1 AND y.v < 1 AND "
                 "x.id < 32 WITHIN 10 RETURN x.id",
    "reject_cd": "EVENT SEQ(C x, D y) WHERE x.v < 1 AND y.v < 1 AND "
                 "x.id < 32 WITHIN 10 RETURN x.id",
    "multi_ab": "EVENT SEQ(A x, B y) WHERE x.v < 3 AND x.id < 16 AND "
                "x.v != 1 AND y.v < 3 AND y.id < 16 AND y.v != 1 "
                "WITHIN 10 RETURN x.id",
    "multi_cd": "EVENT SEQ(C x, D y) WHERE x.v < 3 AND x.id < 16 AND "
                "x.v != 1 AND y.v < 3 AND y.id < 16 AND y.v != 1 "
                "WITHIN 10 RETURN x.id",
    "single_a": "EVENT A x WHERE x.v < 1 AND x.id < 40 RETURN x.id",
    "single_b": "EVENT B x WHERE x.v > 8 AND x.id < 40 RETURN x.id, x.v",
    "single_c": "EVENT C x WHERE x.v = 5 AND x.id < 40 RETURN x.id",
    "single_d": "EVENT D x WHERE x.v < 1 AND x.price < 20 "
                "RETURN x.id, x.price",
}

STATEFUL_EVENTS = 100_000
STATEFUL_OPEN_BATCHES_PER_S = 800.0
STATEFUL_LATENCY_LIMIT_MS = 20.0
STATEFUL_QUERIES = {
    "pair": "EVENT SEQ(A x, B y) WHERE x.id = y.id WITHIN 60 "
            "RETURN x.id, y.v",
    "triple": "EVENT SEQ(A x, B y, C z) WHERE x.id = y.id AND "
              "y.id = z.id WITHIN 90 RETURN x.id",
    "kleene": "EVENT SEQ(A a, B+ b) WHERE a.id = b.id WITHIN 60 "
              "RETURN a.id, COUNT(b)",
    "mid_negation": "EVENT SEQ(A x, !(C n), B y) WHERE x.id = y.id AND "
                    "x.id = n.id WITHIN 120 RETURN x.id",
    "trail_negation": "EVENT SEQ(C x, D y, !(A n)) WHERE x.id = y.id AND "
                      "x.id = n.id WITHIN 60 RETURN x.id",
}

SHARDED_EVENTS = 50_000    # a prefix of cep_stateful's stream
SHARDED_OPEN_BATCHES_PER_S = 200.0
SHARDED_LATENCY_LIMIT_MS = 100.0
SHARDED_CONFIG = ShardingConfig(shards=2, backend="process",
                                transport="ring", batch_size=BATCH,
                                queue_capacity=8)

# -- multi-tenant service ------------------------------------------------------------

SERVICE_EVENTS = 6_500
SERVICE_STREAM = dict(n_types=3, id_domain=64, mean_gap=1.0)
SERVICE_TENANTS = 64
SERVICE_WINDOW = 256        # feeds in flight in the closed loop
SERVICE_OPEN_EVENTS_PER_S = 1_800.0
SERVICE_LATENCY_LIMIT_MS = 50.0
SERVICE_RUNG_SECONDS = 1.5  # the two diagnostic rungs of a traced run
# E21's eight templates; the first three differ only in RETURN and share
# one plan, the rest are distinct.
SERVICE_TEMPLATES = (
    "EVENT SEQ(A x, B y)\nWHERE x.id = y.id\nWITHIN 8\nRETURN x.id, y.v",
    "EVENT SEQ(A p, B q)\nWHERE p.id = q.id\nWITHIN 8\nRETURN p.v",
    "EVENT SEQ(A x, B y)\nWHERE x.id = y.id\nWITHIN 8\nRETURN x.v + y.v",
    "EVENT SEQ(A x, B y)\nWHERE x.id = y.id\nWITHIN 16\nRETURN y.v",
    "EVENT SEQ(B x, C y)\nWHERE x.id = y.id\nWITHIN 8\nRETURN x.id",
    "EVENT SEQ(A x, C y)\nWHERE x.id = y.id\nWITHIN 8\nRETURN y.v",
    "EVENT SEQ(A x, B y, C z)\nWHERE x.id = y.id AND y.id = z.id\n"
    "WITHIN 12\nRETURN x.id",
    "EVENT C x\nWHERE x.v > 40\nWITHIN 8\nRETURN x.id, x.v",
)


@dataclass
class Material:
    """One seed's input to one workload."""

    units: list            # arrival units, in order
    stamps: list[float]    # newest stream timestamp inside each unit
    items: int             # items offered per pass (readings or events)
    context: Any = None    # what setup needs besides the units


def result_keys(results: list) -> list[tuple]:
    """The comparison key of each ``(query name, composite event)``."""
    return [(name, result.start, result.end,
             tuple(result.attributes.items())) for name, result in results]


class Workload:
    """What the harness needs from a workload."""

    name = ""
    why = ""
    item = "events"              # what ``throughput_eps`` counts
    open_rate = 0.0              # arrival units per second, open loop
    latency_limit_ms = 0.0
    by_end_stamp = False         # results come back on a later call

    def generate(self, seed: int, scale: float) -> Material:
        raise NotImplementedError

    def setup(self, material: Material, recorder=None,
              profile: bool = False):
        """Build the system under test until it accepts input.  Timed as
        ``setup_s``.  With a *recorder*, spans are opened around the
        public methods of the instances built here."""
        raise NotImplementedError

    def closed_pass(self, handle, material: Material) -> PassResult:
        raise NotImplementedError

    def open_pass(self, handle, material: Material) -> PassResult:
        raise NotImplementedError

    def teardown(self, handle) -> None:
        raise NotImplementedError

    def reference(self, material: Material) -> list[tuple]:
        """Keys of the expected results: interpreted, per-event,
        single-process, on the same input."""
        raise NotImplementedError

    def keys(self, results: list) -> list[tuple]:
        return result_keys(results)

    def extra_failures(self, material: Material, results: list) -> int:
        """Failures the key comparison cannot see (retail: detections
        scored against ground truth)."""
        return 0

    def sizes(self) -> dict:
        """The frozen constants, for the output record."""
        return {"open_rate_units_per_s": self.open_rate,
                "latency_limit_ms": self.latency_limit_ms}


class InProcessWorkload(Workload):
    """A system driven by synchronous calls in this process."""

    def feeder(self, handle):
        """The callable that offers one arrival unit."""
        raise NotImplementedError

    def drain(self, handle) -> list:
        return handle.processor.drain()

    def finish(self, handle) -> list:
        return handle.processor.flush()

    def closed_pass(self, handle, material):
        return closed_loop(material.units, self.feeder(handle),
                           lambda: self.finish(handle), handle.pending)

    def open_pass(self, handle, material):
        return open_loop(material.units, material.stamps, self.open_rate,
                         self.feeder(handle), lambda: self.drain(handle),
                         lambda: self.finish(handle), handle.pending,
                         self.by_end_stamp)


def trace_processor(recorder, processor, feed_span: str) -> None:
    """Spans around registration and ingestion on *processor*."""
    recorder.wrap(processor, "register", "core.compile")
    for method in ("feed_batch", "drain", "flush"):
        recorder.wrap(processor, method, feed_span)


def trace_runtimes(recorder, processor) -> None:
    """One ``core.scan`` span per call into a registered query's runtime
    (scan, construction, RETURN evaluation)."""
    for registered in processor.queries():
        for method in ("feed", "feed_batch_grouped", "advance", "flush"):
            recorder.wrap(registered.runtime, method, "core.scan")


# -- 1 and 2: retail ------------------------------------------------------------------

class Retail(InProcessWorkload):
    item = "readings"
    open_rate = RETAIL_OPEN_TICKS_PER_S
    latency_limit_ms = RETAIL_LATENCY_LIMIT_MS

    def __init__(self, durable: bool):
        self.durable = durable
        self.name = "retail_durable" if durable else "retail_e2e"
        self.why = (
            "same input and queries with WAL + checkpoints on: a change "
            "that costs the persistence hook shows as a gap to retail_e2e"
            if durable else
            "the paper's demo: cleaning and the event database do most "
            "of the work and the pattern engine little")

    def sizes(self):
        sizes = dict(super().sizes(), horizon_ticks=RETAIL_HORIZON,
                     ingest_batch=RETAIL_INGEST_BATCH, **RETAIL_ACTORS)
        if self.durable:
            sizes.update(checkpoint_every=DURABLE_CHECKPOINT_EVERY,
                         fsync="every_n:64",
                         recovery_wal_tail=RECOVERY_WAL_TAIL)
        return sizes

    def scenario(self, seed: int) -> RetailScenario:
        return RetailScenario.generate(RetailConfig(seed=seed,
                                                    **RETAIL_ACTORS))

    def generate(self, seed, scale):
        scenario = self.scenario(seed)
        simulator = scenario.simulator(RETAIL_NOISE, seed=seed)
        horizon = RETAIL_HORIZON * scale
        ticks = list(simulator.run_script(scenario.script, until=horizon))
        return Material(
            units=ticks, stamps=[now for now, _ in ticks],
            items=sum(len(readings) for _, readings in ticks),
            context=SimpleNamespace(scenario=scenario, horizon=horizon,
                                    seed=seed, scale=scale))

    def new_data_dir(self) -> str:
        """A fresh directory inside the checkout (the run removes the
        whole ``<workload>-<pid>`` tree when it ends)."""
        base = os.path.join(WORK_DIR, f"{self.name}-{os.getpid()}")
        os.makedirs(base, exist_ok=True)
        return tempfile.mkdtemp(prefix="data-", dir=base)

    def build(self, scenario: RetailScenario, data_dir: str | None = None,
              recorder=None, profile: bool = False, reference: bool = False,
              recover: bool = True):
        """The wired system with the demo's five queries registered and,
        when durable, the data directory opened (*recover*)."""
        persistence = None if data_dir is None else PersistenceConfig(
            data_dir=data_dir, fsync=DURABLE_FSYNC,
            checkpoint_every=DURABLE_CHECKPOINT_EVERY)
        system = SaseSystem(
            scenario.layout, scenario.ons, persistence=persistence,
            plan_config=PlanConfig(use_codegen=False) if reference else None,
            ingest_batch=self.reference_ingest_batch() if reference
            else RETAIL_INGEST_BATCH)
        processor = system.processor
        if recorder is not None:
            recorder.wrap(system, "process_tick", "system.tick")
            recorder.wrap(system.cleaning, "process_tick", "cleaning")
            trace_processor(recorder, processor, "system.feed")
            for method in ("update_location", "update_containment",
                           "archive_event"):
                recorder.wrap(system.event_db, method, "db.write")
            for method in ("movement_history", "area_description"):
                recorder.wrap(system.event_db, method, "db.read")
            if system.persistence is not None:
                recorder.wrap(system.persistence, "checkpoint",
                              "persist.checkpoint")
                recorder.wrap(system.persistence, "sync", "persist.sync")
                install = processor.set_persistence_hooks

                def traced_hooks(log, post):
                    install(
                        log and recorder.traced(log, "persist.wal_append"),
                        post and recorder.traced(post, "persist.after_feed"))

                processor.set_persistence_hooks = traced_hooks
        system.register_monitoring_query("shoplifting", SHOPLIFTING_QUERY)
        system.register_monitoring_query("misplaced",
                                         MISPLACED_INVENTORY_QUERY)
        for event_type in ("SHELF_READING", "COUNTER_READING",
                           "EXIT_READING"):
            system.register_archiving_rule(
                f"loc_{event_type}", LOCATION_UPDATE_RULE(event_type))
        if recorder is not None:
            trace_runtimes(recorder, processor)
        if profile:
            processor.enable_profiling()
        if persistence is not None and recover:
            system.recover()   # opens the WAL
        return system

    def setup(self, material, recorder=None, profile=False):
        data_dir = self.new_data_dir() if self.durable else None
        system = self.build(material.context.scenario, data_dir, recorder,
                            profile)
        return SimpleNamespace(
            system=system, processor=system.processor, pending=[],
            data_dir=data_dir, queue_depth_max=0,
            sample_queue=self.durable and recorder is not None)

    def feeder(self, handle):
        tick = handle.system.process_tick
        if not handle.sample_queue:
            return lambda unit: tick(unit[1], unit[0])
        gauges = handle.system.persistence.gauges

        def feed_and_sample(unit):
            produced = tick(unit[1], unit[0])
            handle.queue_depth_max = max(handle.queue_depth_max,
                                         gauges()["wal_queue_depth"])
            return produced

        return feed_and_sample

    def finish(self, handle):
        released = handle.processor.flush()
        if handle.system.persistence is not None:
            handle.system.persistence.sync()   # the durability barrier
        return released

    def teardown(self, handle):
        handle.system.close()
        if handle.data_dir is not None:
            shutil.rmtree(handle.data_dir, ignore_errors=True)

    def reference_ingest_batch(self) -> int:
        """The reference is interpreted, but it must offer events in the
        grouping the measured system sees: ``_movementHistory`` in one
        query's RETURN reads rows that another query's
        ``_updateLocation`` writes, and a batch runs query by query
        where per-event feeding runs event by event, so the two orders
        produce different history strings.  With the WAL hook installed
        the processor feeds per event whatever the ingest batch."""
        return 1 if self.durable else RETAIL_INGEST_BATCH

    def reference(self, material):
        system = self.build(material.context.scenario, reference=True)
        results = system.run_simulation(iter(material.units))
        system.close()
        return result_keys(results)

    def extra_failures(self, material, results):
        """Detections scored against the scenario's ground truth: every
        detected tag must be a real incident (precision 1.0) and every
        incident that finished inside the horizon must be detected
        (recall 1.0).  Each wrong or missing tag is one failure."""
        truth = material.context.scenario.truth
        horizon = material.context.horizon - 2.0
        config = material.context.scenario.config
        wrong = 0
        for query, incidents, finished in (
                ("shoplifting", truth.shoplifted,
                 lambda incident: incident.exit_time + config.exit_dwell),
                ("misplaced", truth.misplaced,
                 lambda incident: incident.time + 5.0)):
            detected = {result["x_TagId"] for name, result in results
                        if name == query}
            real = {incident.tag_id for incident in incidents}
            due = {incident.tag_id for incident in incidents
                   if finished(incident) <= horizon}
            wrong += len(detected - real) + len(due - detected)
        return wrong

    # -- recovery (retail_durable, traced runs only) -------------------------------

    def abandon_data_dir(self, material) -> tuple[str, int]:
        """Run until two checkpoints plus ``RECOVERY_WAL_TAIL`` records
        are on disk, then close the logs without a final checkpoint, as
        a killed process would leave them.  Returns the directory and
        the number of WAL records in it."""
        data_dir = self.new_data_dir()
        system = self.build(material.context.scenario, data_dir)
        tail = int(RECOVERY_WAL_TAIL * material.context.scale)
        for now, readings in material.units:
            system.process_tick(readings, now)
            gauges = system.persistence.gauges()
            if gauges["checkpoints_written"] >= 2 and \
                    gauges["wal_records"] - gauges["last_checkpoint_lsn"] \
                    >= tail:
                break
        records = system.persistence.gauges()["wal_records"]
        system.close()
        return data_dir, records

    def time_recovery(self, material, data_dir: str) -> dict:
        """``recover()`` over a copy of *data_dir* in a fresh process."""
        copy = shutil.copytree(data_dir, self.new_data_dir(),
                               dirs_exist_ok=True)
        try:
            completed = subprocess.run(
                [sys.executable, os.path.join(BENCH_DIR, "child.py"),
                 "recover", "--data-dir", copy,
                 "--seed", str(material.context.seed)],
                capture_output=True, text=True, timeout=120, check=True)
            return json.loads(completed.stdout.strip().splitlines()[-1])
        finally:
            shutil.rmtree(copy, ignore_errors=True)


# -- 3, 4 and 5: synthetic CEP streams -----------------------------------------------------

class Cep(InProcessWorkload):
    def __init__(self, name: str, why: str, queries: dict[str, str],
                 events: int, open_rate: float, latency_limit_ms: float,
                 sharding: ShardingConfig | None = None):
        self.name = name
        self.why = why
        self.queries = queries
        self.events = events
        self.open_rate = open_rate
        self.latency_limit_ms = latency_limit_ms
        self.sharding = sharding
        # Shard workers answer on a later call, so a result is charged
        # to the batch holding its last event, not to the returning call.
        self.by_end_stamp = sharding is not None

    def sizes(self):
        sizes = dict(super().sizes(), events=self.events, batch=BATCH,
                     queries=len(self.queries), **CEP_STREAM)
        if self.sharding is not None:
            sizes.update(shards=self.sharding.shards,
                         backend=self.sharding.backend,
                         transport=self.sharding.transport,
                         queue_capacity=self.sharding.queue_capacity)
        return sizes

    def generate(self, seed, scale):
        stream = SyntheticStream.generate(SyntheticConfig(
            n_events=max(2 * BATCH, int(self.events * scale)), seed=seed,
            **CEP_STREAM))
        return self.material(stream)

    def material(self, stream: SyntheticStream) -> Material:
        events = stream.events
        # Under sharding the first event is fed during setup: the
        # router, and with it the worker processes, only start on the
        # first feed, and setup ends when the system accepts input.
        first = 1 if self.sharding is not None else 0
        units = [events[start:start + BATCH]
                 for start in range(first, len(events), BATCH)]
        return Material(units=units,
                        stamps=[unit[-1].timestamp for unit in units],
                        items=len(events),
                        context=SimpleNamespace(stream=stream))

    def without_sharding(self) -> "Cep":
        """The same queries and stream in one process."""
        return Cep(self.name, self.why, self.queries, self.events,
                   self.open_rate, self.latency_limit_ms)

    def processor(self, material, config: PlanConfig | None = None,
                  sharding: ShardingConfig | None = None,
                  recorder=None) -> ComplexEventProcessor:
        processor = ComplexEventProcessor(
            material.context.stream.registry, config=config,
            sharding=sharding)
        if recorder is not None:
            trace_processor(recorder, processor,
                            "sharding.router" if sharding is not None
                            else "system.feed")
        for name, text in self.queries.items():
            processor.register(name, text)
        return processor

    def setup(self, material, recorder=None, profile=False):
        processor = self.processor(material, sharding=self.sharding,
                                   recorder=recorder)
        pending = []
        if self.sharding is not None:
            pending = processor.feed(material.context.stream.events[0])
        else:
            if recorder is not None:
                trace_runtimes(recorder, processor)
            if profile:
                processor.enable_profiling()
        return SimpleNamespace(processor=processor, pending=pending)

    def feeder(self, handle):
        return handle.processor.feed_batch

    def teardown(self, handle):
        handle.processor.close()

    def reference(self, material):
        processor = self.processor(material,
                                   config=PlanConfig(use_codegen=False))
        results = []
        for event in material.context.stream.events:
            results.extend(processor.feed(event))
        results.extend(processor.flush())
        return result_keys(results)


# -- 6: the service over TCP ------------------------------------------------------------------

def tenant_name(index: int) -> str:
    return f"tenant{index}"


def build_service() -> QueryService:
    """The service with every tenant's query registered, as both the
    server child and the in-process replay run it."""
    service = QueryService(
        synthetic_registry(SERVICE_STREAM["n_types"]),
        policy=AdmissionPolicy(max_tenants=SERVICE_TENANTS,
                               max_total_queries=SERVICE_TENANTS),
        # The backlog only has to hold what one feed produces: it is
        # drained after every request.
        default_quota=TenantQuota(max_queries=1, max_pending_results=1024))
    for index in range(SERVICE_TENANTS):
        service.register(tenant_name(index), "q",
                         SERVICE_TEMPLATES[index % len(SERVICE_TEMPLATES)])
    return service


class Service(Workload):
    name = "service_openloop"
    why = ("the north-star surface: JSON framing, the asyncio server and "
           "shared-plan fan-out to 64 tenants dominate; the only true "
           "client/server latency path")
    open_rate = SERVICE_OPEN_EVENTS_PER_S
    latency_limit_ms = SERVICE_LATENCY_LIMIT_MS
    by_end_stamp = True

    def sizes(self):
        return dict(super().sizes(), events=SERVICE_EVENTS,
                    tenants=SERVICE_TENANTS,
                    templates=len(SERVICE_TEMPLATES),
                    closed_loop_window=SERVICE_WINDOW, **SERVICE_STREAM)

    def generate(self, seed, scale):
        stream = SyntheticStream.generate(SyntheticConfig(
            n_events=max(200, int(SERVICE_EVENTS * scale)), seed=seed,
            **SERVICE_STREAM))
        lines = [protocol.encode({
            "op": "feed", "id": index, "tenant": tenant_name(0),
            "event": {"type": event.type, "timestamp": event.timestamp,
                      "attributes": event.attributes}})
            for index, event in enumerate(stream.events)]
        return Material(units=lines,
                        stamps=[event.timestamp for event in stream.events],
                        items=len(lines),
                        context=SimpleNamespace(stream=stream))

    # A handle is the server process plus the two client connections.

    def setup(self, material, recorder=None, profile=False):
        server = subprocess.Popen(
            [sys.executable, os.path.join(BENCH_DIR, "child.py"), "serve"],
            stdout=subprocess.PIPE, text=True)
        try:
            ready = json.loads(server.stdout.readline())
            feeder = _connect(ready["port"])
            subscriber = _connect(ready["port"])
            for index in range(SERVICE_TENANTS):
                subscriber.sendall(protocol.encode({
                    "op": "subscribe", "id": index,
                    "tenant": tenant_name(index)}))
            reader = _LineReader(subscriber)
            handle = SimpleNamespace(
                server=server, feeder=feeder, subscriber=subscriber,
                feeder_lines=_LineReader(feeder), subscriber_lines=reader,
                register_s=ready["register_s"])
            acks = 0
            while acks < SERVICE_TENANTS:
                acks += sum(1 for _, line in reader.wait()
                            if b'"ok":true' in line)
            self._round_trip(handle.feeder, handle.feeder_lines, "ping")
            return handle
        except BaseException:
            server.kill()
            server.wait()
            raise

    def teardown(self, handle):
        try:
            handle.feeder.sendall(protocol.encode(
                {"op": "shutdown", "id": "bye"}))
        except OSError:
            pass
        try:
            handle.server.wait(timeout=10)
        except subprocess.TimeoutExpired:
            handle.server.kill()
            handle.server.wait()
        handle.server.stdout.close()
        handle.feeder.close()
        handle.subscriber.close()

    @staticmethod
    def _round_trip(sock, lines, op: str) -> tuple[dict, list]:
        """One request on *sock*; returns the response and every other
        line (pushes) that arrived on that connection before it."""
        sock.sendall(protocol.encode({"op": op, "id": op}))
        others = []
        while True:
            for at, line in lines.wait():
                if line.startswith(b'{"id":"' + op.encode() + b'"'):
                    return json.loads(line), others
                others.append((at, line))

    def closed_pass(self, handle, material):
        return self._pump(handle, material, rate=None)

    def open_pass(self, handle, material, rate: float | None = None,
                  limit: int | None = None):
        return self._pump(handle, material, rate=rate or self.open_rate,
                          limit=limit)

    def _pump(self, handle, material, rate: float | None,
              limit: int | None = None) -> PassResult:
        """Send every feed line and collect acks and pushes, from one
        thread over two connections.  Closed loop (*rate* None): as many
        lines as keep ``SERVICE_WINDOW`` feeds in flight.  Open loop:
        each line when it is due, whatever is in flight."""
        lines = material.units if limit is None else material.units[:limit]
        total = len(lines)
        feeder, subscriber = handle.feeder, handle.subscriber
        acks, pushes = handle.feeder_lines, handle.subscriber_lines
        sent_at = [0.0] * total
        ack_latency: list[float] = []
        outcome = PassResult([], 0.0)
        raw_pushes: list[tuple[float, bytes]] = []
        refused = 0
        sent = acked = 0
        backlog: list[tuple[float, int]] = []   # (time, feeds in flight)
        interval = 1.0 / rate if rate else 0.0
        outbox = b""
        start = perf_counter() + 0.005
        while acked < total:
            now = perf_counter()
            if not outbox and sent < total:
                if rate is None:
                    allowed = min(total, acked + SERVICE_WINDOW)
                else:
                    allowed = min(total,
                                  int((now - start) / interval) + 1) \
                        if now >= start else 0
                if allowed > sent:
                    if rate is not None:
                        for index in range(sent, allowed):
                            outcome.lateness.append(
                                now - (start + index * interval))
                        outcome.idle_lag.append(outcome.lateness[-1])
                        backlog.append((now - start, allowed - acked))
                    outbox = b"".join(lines[sent:allowed])
                    for index in range(sent, allowed):
                        sent_at[index] = now
                    sent = allowed
            # Open loop: poll instead of sleeping, so the client's own
            # wake-up delay (hundreds of microseconds on an idle virtual
            # CPU) is not measured as the service's latency.
            timeout = 0.0 if rate is not None else None
            readable, writable, _ = select.select(
                [feeder, subscriber], [feeder] if outbox else [], [],
                timeout)
            if writable:
                outbox = outbox[feeder.send(outbox):]
            if feeder in readable:
                for at, line in acks.read():
                    if b'"ok":true' not in line:
                        refused += 1
                    ack_latency.append(at - sent_at[acked])
                    acked += 1
            if subscriber in readable:
                raw_pushes.extend(pushes.read())
        # Everything the server pushed for an acknowledged feed was
        # written to the subscriber connection before the next request
        # was read, so a ping on that connection returns behind it.
        _, late = self._round_trip(subscriber, pushes, "ping")
        raw_pushes.extend(late)
        outcome.elapsed = perf_counter() - start
        stamps = material.stamps
        for at, line in raw_pushes:
            push = json.loads(line)
            outcome.results.append(push)
            if rate is not None:
                due = start + bisect_left(stamps, push["end"]) * interval
                outcome.latencies.append(at - due)
                outcome.emitted_at.append(at - start)
        outcome.extras = {"refused": refused, "ack_latency": ack_latency,
                          "backlog": backlog}
        return outcome

    def server_stats(self, handle) -> dict:
        response, _ = self._round_trip(handle.feeder, handle.feeder_lines,
                                       "stats")
        return response

    def keys(self, results):
        return [(push["tenant"], push["query"], push["start"], push["end"],
                 tuple(push["attributes"].items())) for push in results]

    def reference(self, material):
        """Each template once, interpreted and per event, on a plain
        processor; tenant *i* must receive template ``i mod 8``'s
        results, in wire form."""
        stream = material.context.stream
        processor = ComplexEventProcessor(
            stream.registry, config=PlanConfig(use_codegen=False))
        for index, template in enumerate(SERVICE_TEMPLATES):
            processor.register(str(index), template)
        per_template: dict[int, list] = {index: [] for index
                                         in range(len(SERVICE_TEMPLATES))}
        for event in stream.events:
            for name, result in processor.feed(event):
                per_template[int(name)].append(result)
        for name, result in processor.flush():
            per_template[int(name)].append(result)
        keys = []
        for tenant in range(SERVICE_TENANTS):
            for result in per_template[tenant % len(SERVICE_TEMPLATES)]:
                wire = json.loads(json.dumps(dict(result.attributes)))
                keys.append((tenant_name(tenant), "q", result.start,
                             result.end, tuple(wire.items())))
        return keys


def _connect(port: int) -> socket.socket:
    sock = socket.create_connection(("127.0.0.1", port), timeout=30)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return sock


class _LineReader:
    """Complete lines off one socket, each stamped with the time the
    bytes holding its end were received."""

    def __init__(self, sock: socket.socket):
        self._sock = sock
        self._buffer = b""

    def read(self) -> list[tuple[float, bytes]]:
        data = self._sock.recv(1 << 16)
        at = perf_counter()
        if not data:
            raise ConnectionError("the server closed the connection")
        *lines, self._buffer = (self._buffer + data).split(b"\n")
        return [(at, line) for line in lines]

    def wait(self) -> list[tuple[float, bytes]]:
        select.select([self._sock], [], [], 30)
        return self.read()


def multiset_difference(expected: list[tuple], got: list[tuple]) \
        -> tuple[int, int]:
    """``(missing, unexpected)`` result counts, order ignored."""
    if expected == got:
        return 0, 0
    want, have = Counter(expected), Counter(got)
    return sum((want - have).values()), sum((have - want).values())


WORKLOADS: dict[str, Workload] = {workload.name: workload for workload in (
    Retail(durable=False),
    Retail(durable=True),
    Cep("cep_selective",
        "filter-dominated queries admitting about 2 % of events: pushed "
        "predicates and processor dispatch do nearly all the work, "
        "window state almost none",
        SELECTIVE_QUERIES, SELECTIVE_EVENTS,
        SELECTIVE_OPEN_BATCHES_PER_S, SELECTIVE_LATENCY_LIMIT_MS),
    Cep("cep_stateful",
        "pair, triple, Kleene and negation queries keyed on id with "
        "60-120 s windows: stack and partition upkeep, construction and "
        "pruning dominate and filters are trivial",
        STATEFUL_QUERIES, STATEFUL_EVENTS,
        STATEFUL_OPEN_BATCHES_PER_S, STATEFUL_LATENCY_LIMIT_MS),
    Cep("sharded_ring",
        "a prefix of cep_stateful's stream over two worker processes on "
        "the shared-memory ring: router, wire codec, ring and merge do "
        "most of the work and none elsewhere",
        STATEFUL_QUERIES, SHARDED_EVENTS,
        SHARDED_OPEN_BATCHES_PER_S, SHARDED_LATENCY_LIMIT_MS,
        sharding=SHARDED_CONFIG),
    Service(),
)}
