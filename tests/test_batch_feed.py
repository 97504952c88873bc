"""Batched ingest at the system layer: ``feed_batch`` edge cases.

The batched API's contract is strict result identity with per-event
feeding — including negation watermarks advancing mid-batch, empty
batches, registration changes around (but never inside) a batch, and
every sharding backend.  These tests pin that contract at the
processor, system, and service layers.
"""

from __future__ import annotations

import pytest

from repro.core.shared import SharedPlanConfig
from repro.errors import SaseError
from repro.funcs import FunctionRegistry
from repro.persist import PersistenceConfig
from repro.service import QueryService, TenantQuota
from repro.sharding import ShardingConfig
from repro.system import ComplexEventProcessor, SaseSystem
from repro.workloads import LOCATION_UPDATE_RULE, \
    MISPLACED_INVENTORY_QUERY, RetailConfig, RetailScenario, \
    SHOPLIFTING_QUERY
from repro.workloads.synthetic import SyntheticConfig, SyntheticStream, \
    seq_query


def fingerprint(results):
    return [(name, result.start, result.end,
             tuple(sorted(result.attributes.items())))
            for name, result in results]


@pytest.fixture(scope="module")
def stream() -> SyntheticStream:
    return SyntheticStream.generate(SyntheticConfig(
        n_events=400, n_types=4, id_domain=8, seed=31))


def build_processor(stream, sharding=None) -> ComplexEventProcessor:
    processor = ComplexEventProcessor(stream.registry, sharding=sharding)
    processor.register("pair", seq_query(2, window=5.0, partitioned=True))
    processor.register("neg", seq_query(2, window=5.0, partitioned=True,
                                        negation_at=2))
    return processor


@pytest.fixture(scope="module")
def per_event_baseline(stream):
    processor = build_processor(stream)
    produced = []
    for event in stream.events:
        produced.extend(processor.feed(event))
    produced.extend(processor.flush())
    return fingerprint(produced)


def test_empty_batch_is_a_noop(stream):
    processor = build_processor(stream)
    assert processor.feed_batch([]) == []
    assert processor.feed_batch(iter([])) == []
    assert processor.metrics.query("pair").events_in == 0


@pytest.mark.parametrize("batch", [1, 3, 64, 1000])
def test_batched_equals_per_event(stream, per_event_baseline, batch):
    """Batches spanning watermark advances (the negation query skips
    most types, advancing its watermark mid-batch) still produce the
    per-event result sequence."""
    processor = build_processor(stream)
    produced = []
    events = stream.events
    for start in range(0, len(events), batch):
        produced.extend(processor.feed_batch(events[start:start + batch]))
    produced.extend(processor.flush())
    assert fingerprint(produced) == per_event_baseline


@pytest.mark.parametrize("backend", ["inline", "thread", "process"])
@pytest.mark.parametrize("shards", [1, 2, 4])
def test_sharded_batched_equals_per_event(stream, per_event_baseline,
                                          backend, shards):
    processor = build_processor(stream, sharding=ShardingConfig(
        shards=shards, backend=backend, batch_size=16))
    produced = []
    events = stream.events
    for start in range(0, len(events), 64):
        produced.extend(processor.feed_batch(events[start:start + 64]))
    produced.extend(processor.flush())
    assert fingerprint(produced) == per_event_baseline


def test_mid_batch_deregistration_rejected(stream):
    """A result callback must not mutate the query set while a batch is
    in flight — the per-event path allows it, so the batch path fails
    loudly instead of silently diverging."""
    processor = build_processor(stream)
    errors: list = []

    def deregister_now(name, result):
        try:
            processor.deregister("neg")
        except SaseError as error:
            errors.append(error)

    processor.query("pair").on_result = deregister_now
    processor.feed_batch(stream.events[:200])
    assert errors, "expected mid-batch deregistration to be rejected"
    assert "batch" in str(errors[0])
    # Between batches the same call is fine.
    processor.deregister("neg")
    assert processor.feed_batch(stream.events[200:250]) is not None


def test_mid_batch_registration_rejected(stream):
    processor = build_processor(stream)
    errors: list = []

    def register_now(name, result):
        try:
            processor.register("late", seq_query(2, window=5.0))
        except SaseError as error:
            errors.append(error)

    processor.query("pair").on_result = register_now
    processor.feed_batch(stream.events[:200])
    assert errors, "expected mid-batch registration to be rejected"


def test_registration_from_callback_allowed_on_single_event_feed(stream):
    """Nothing has been matched ahead in a chunk of one, so a callback
    may change the query set — as per-event feeding always allowed."""
    processor = build_processor(stream)

    def register_once(name, result):
        if "late" not in {query.name for query in processor.queries()}:
            processor.register("late", seq_query(2, window=5.0))

    processor.query("pair").on_result = register_once
    for event in stream.events[:200]:
        processor.feed(event)
    assert processor.query("late").runtime.stats.events_consumed > 0


def test_reentrant_feed_leaves_outer_chunk_guarded(stream):
    """A callback that feeds another stream from inside a chunk's
    delivery must not switch the outer chunk's guard off."""
    processor = build_processor(stream)
    outcomes: list = []

    def feed_then_register(name, result):
        processor.feed(stream.events[0], stream="elsewhere")
        try:
            processor.register(f"late{len(outcomes)}",
                               seq_query(2, window=5.0))
            outcomes.append("registered")
        except SaseError:
            outcomes.append("rejected")

    processor.query("pair").on_result = feed_then_register
    processor.feed_batch(stream.events[:200])
    assert outcomes and set(outcomes) == {"rejected"}
    processor.register("afterwards", seq_query(2, window=5.0))


def test_cascades_match_per_event(stream):
    """INTO composites are cascaded inside the chunk, right behind the
    event that produced them, so results stay identical to per-event
    feeding."""
    def build():
        processor = ComplexEventProcessor(stream.registry)
        processor.register(
            "pair", seq_query(2, window=5.0, partitioned=True)
            + " INTO PAIRS")
        return processor

    reference = build()
    expected = []
    for event in stream.events[:200]:
        expected.extend(reference.feed(event))
    expected.extend(reference.flush())

    batched = build()
    produced = list(batched.feed_batch(stream.events[:200]))
    produced.extend(batched.flush())
    assert fingerprint(produced) == fingerprint(expected)


def test_shared_group_batched_equals_per_event(stream):
    """Three queries holding the same template form one plan group with
    fan-out 3; a chunk runs the group's pipeline once and must hand
    every member what per-event feeding and unshared evaluation do."""
    template = seq_query(2, window=5.0, partitioned=True)

    def run(shared: bool, batch: int):
        processor = ComplexEventProcessor(
            stream.registry,
            shared_plans=SharedPlanConfig() if shared else None)
        for name in ("first", "second", "third"):
            processor.register(name, template)
        if shared:
            assert processor.shared_plan_report()["max_fanout"] == 3
        produced = []
        events = stream.events
        for start in range(0, len(events), batch):
            produced.extend(processor.feed_batch(
                events[start:start + batch]))
        produced.extend(processor.flush())
        return fingerprint(produced)

    expected = run(shared=False, batch=1)
    assert expected
    assert run(shared=True, batch=1) == expected
    assert run(shared=True, batch=64) == expected
    assert run(shared=False, batch=64) == expected


# -- WHERE clauses that read what RETURN clauses write ------------------------

def _store_processor(stream, order, shared=False):
    """A processor whose queries talk through a dict: ``put*`` RETURN
    clauses write ``store[id]``, ``seen``'s WHERE clause reads it."""
    store: dict[int, int] = {}
    functions = FunctionRegistry()
    functions.register("_put", lambda key, value:
                       store.__setitem__(key, value) or value)
    functions.register("_seen", lambda key: store.get(key, -1))
    queries = {
        "put": "EVENT A x RETURN _put(x.id, x.v)",
        "put_minus": "EVENT A x RETURN _put(x.id, 0 - 1)",
        "seen": "EVENT A x WHERE _seen(x.id) = x.v RETURN x.id, x.v",
    }
    processor = ComplexEventProcessor(
        stream.registry, functions=functions,
        shared_plans=SharedPlanConfig() if shared else None)
    for name in order:
        processor.register(name, queries[name])
    return processor


@pytest.mark.parametrize("batch", [1, 7, 400])
def test_where_reads_what_an_earlier_return_wrote(stream, batch):
    """Within one event queries run match-then-RETURN in registration
    order, so a WHERE clause that reads the database sees the rows an
    earlier-registered query's RETURN wrote *for the same event* — and
    not those of a later-registered one.  Checked against a plain
    Python model of that order, at every chunk length."""
    hits = [event for event in stream.events if event.type == "A"]
    assert len({event.attributes["v"] for event in hits}) > 1

    for order in (("put", "seen"), ("seen", "put")):
        store: dict[int, int] = {}
        expected = []
        for event in hits:
            key, value = event.attributes["id"], event.attributes["v"]
            for name in order:
                if name == "put":
                    store[key] = value
                    expected.append(("put", event.timestamp))
                elif store.get(key, -1) == value:
                    expected.append(("seen", event.timestamp))
        processor = _store_processor(stream, order)
        produced = []
        for start in range(0, len(stream.events), batch):
            produced.extend(processor.feed_batch(
                stream.events[start:start + batch]))
        assert [(name, result.end) for name, result in produced] \
            == expected
    # Written first, every A event is seen; read first, only repeats are.
    assert sum(name == "seen" for name, _ in expected) < len(hits)


@pytest.mark.parametrize("batch", [1, 7, 400])
def test_late_group_keeps_its_place_between_shared_members(stream, batch):
    """``put`` and ``put_minus`` share one plan group whose members sit
    on either side of ``seen``: the group is matched once, but its
    second member's RETURN (which overwrites the row) still runs after
    ``seen``'s WHERE clause has read it."""
    processor = _store_processor(stream, ("put", "seen", "put_minus"),
                                 shared=True)
    assert processor.shared_plan_report()["max_fanout"] == 2
    produced = []
    for start in range(0, len(stream.events), batch):
        produced.extend(processor.feed_batch(
            stream.events[start:start + batch]))
    hits = [event for event in stream.events if event.type == "A"]
    assert [(name, result.end) for name, result in produced] == [
        (name, event.timestamp) for event in hits
        for name in ("put", "seen", "put_minus")]


@pytest.mark.parametrize("moved_first, moved", [(False, 2373), (True, 2348)])
def test_retail_where_lookup_follows_registration_order(moved_first, moved):
    """The paper's ``_currentLocation`` lookup in a WHERE clause behind
    (or ahead of) the location rules that write the rows it reads.  The
    counts are the per-event run's at the commit before the execution
    forks were merged; every chunk length must reproduce that run."""
    def run(ingest_batch):
        scenario = RetailScenario.generate(RetailConfig(
            seed=7, n_products=20, n_shoppers=4, n_shoplifters=1,
            n_misplacements=1))
        system = SaseSystem(scenario.layout, scenario.ons,
                            ingest_batch=ingest_batch)
        names = ["SHELF_READING", "COUNTER_READING", "EXIT_READING"]
        names.insert(0 if moved_first else 3, "moved")
        for name in names:
            if name == "moved":
                system.register_monitoring_query(
                    "moved", "EVENT SHELF_READING x WHERE "
                    "_currentLocation(x.TagId) = x.AreaId "
                    "RETURN x.TagId, x.AreaId")
            else:
                system.register_archiving_rule(
                    f"loc_{name}", LOCATION_UPDATE_RULE(name))
        results = system.run_simulation(scenario.ticks())
        return [(name, result.end, tuple(result.attributes.items()))
                for name, result in results]

    per_event = run(1)
    assert sum(name == "moved" for name, _, _ in per_event) == moved
    assert run(64) == per_event
    assert run(None) == per_event


def test_batched_metrics_aggregates_match(stream):
    per_event = build_processor(stream)
    for event in stream.events:
        per_event.feed(event)
    batched = build_processor(stream)
    for start in range(0, len(stream.events), 64):
        batched.feed_batch(stream.events[start:start + 64])
    for name in ("pair", "neg"):
        reference = per_event.metrics.query(name)
        measured = batched.metrics.query(name)
        assert measured.events_in == reference.events_in
        assert measured.results_out == reference.results_out
        assert measured.last_result_at == reference.last_result_at


# -- system layer ------------------------------------------------------------

def _run_retail(ingest_batch, data_dir=None):
    """The demo's five queries: the two monitoring queries read (in
    RETURN, through ``_movementHistory``) the location rows the three
    archiving rules write, so results depend on RETURN clauses running
    in event order.  Returns the results and the chunk lengths the
    processor's dataflow saw."""
    scenario = RetailScenario.generate(RetailConfig(
        seed=7, n_products=60, n_shoppers=12, n_shoplifters=3,
        n_misplacements=3))
    persistence = None if data_dir is None else PersistenceConfig(
        data_dir=str(data_dir), checkpoint_every=500)
    system = SaseSystem(scenario.layout, scenario.ons,
                        persistence=persistence, ingest_batch=ingest_batch)
    system.register_monitoring_query("shoplifting", SHOPLIFTING_QUERY)
    system.register_monitoring_query("misplaced",
                                     MISPLACED_INVENTORY_QUERY)
    for event_type in ("SHELF_READING", "COUNTER_READING",
                       "EXIT_READING"):
        system.register_archiving_rule(
            f"loc_{event_type}", LOCATION_UPDATE_RULE(event_type))
    chunks: list[int] = []
    run_chunk = system.processor._run_chunk

    def counting(events, *args, **kwargs):
        chunks.append(len(events))
        return run_chunk(events, *args, **kwargs)

    system.processor._run_chunk = counting
    system.recover()
    results = system.run_simulation(scenario.ticks())
    system.close()
    return [(name, result.start, result.end,
             tuple(result.attributes.items()))
            for name, result in results], chunks


@pytest.fixture(scope="module")
def retail_per_event():
    results, chunks = _run_retail(ingest_batch=1)
    assert max(chunks) == 1
    assert any("History" in key for _, _, _, attributes in results
               for key, _ in attributes)
    return results


@pytest.mark.parametrize("ingest_batch", [7, 64, None])
def test_system_ingest_batch_identical(retail_per_event, ingest_batch):
    """An integer caps the chunk length; None feeds each tick's cleaned
    events (up to 60 here) as one chunk.  Ordered lists, attributes
    included, so ``_movementHistory`` strings are compared."""
    results, chunks = _run_retail(ingest_batch=ingest_batch)
    assert results == retail_per_event
    assert max(chunks) == (7 if ingest_batch == 7 else 60)


def test_system_durable_keeps_chunks(retail_per_event, tmp_path):
    """The WAL hook logs the chunk and the checkpoint hook runs after
    it: durability does not shorten chunks, and results (checkpoints now
    landing on chunk boundaries) are the plain per-event run's."""
    results, chunks = _run_retail(ingest_batch=64, data_dir=tmp_path)
    assert results == retail_per_event
    assert max(chunks) > 1


# -- service layer -----------------------------------------------------------

def test_service_feed_many_batches(stream):
    """Three tenants hold the same template (one shared group, fan-out
    3): ``feed_many`` must give each of them, in order, what per-event
    ``feed`` does, and what they get with plan sharing off."""
    tenants = ("t0", "t1", "t2")

    def build(shared: bool = True):
        service = QueryService(
            stream.registry, default_quota=TenantQuota(),
            shared_plans=SharedPlanConfig(enabled=shared))
        for tenant in tenants:
            service.register(tenant, "pairs",
                             seq_query(2, window=5.0, partitioned=True))
        return service

    batched = build()
    assert batched.stats()["shared_plans"]["max_fanout"] == 3
    count = batched.feed_many(stream.events[:200])
    reference = build()
    expected = sum(reference.feed(event)
                   for event in stream.events[:200])
    unshared = build(shared=False)
    assert unshared.stats()["shared_plans"]["groups"] == 0
    assert unshared.feed_many(stream.events[:200]) == expected
    assert count == expected > 0
    assert batched.events_fed == reference.events_fed == 200
    for tenant in tenants:
        delivered = batched.drain(tenant)
        assert delivered
        assert delivered == reference.drain(tenant)
        assert delivered == unshared.drain(tenant)
