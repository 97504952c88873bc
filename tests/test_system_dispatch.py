"""Tests for the processor's multi-query type-dispatch index.

The index must be semantically transparent: with many registered queries
the event stream produces exactly what each query produces alone on a
processor of its own, in event order and, per event, registration order
— including negation timeouts (which depend on watermark progress from
events the query does not subscribe to) and INTO/FROM cascades.
"""

from __future__ import annotations

import random

import pytest

from repro.events.event import Event
from repro.events.model import AttributeType
from repro.sharding.config import ShardingConfig
from repro.system.processor import ComplexEventProcessor

QUERIES = [
    ("ab", "EVENT SEQ(A x, B y) WHERE x.id = y.id WITHIN 10 RETURN x.id"),
    ("bc", "EVENT SEQ(B x, C y) WHERE x.id = y.id WITHIN 10 RETURN x.id"),
    ("a_only", "EVENT A x WHERE x.v > 3 RETURN x.id"),
    ("neg", "EVENT SEQ(A x, B y, !(C w)) WHERE x.id = y.id AND "
     "w.id = x.id WITHIN 6 RETURN x.id"),
    ("dd", "EVENT SEQ(D x, D y) WHERE x.id = y.id WITHIN 10 RETURN x.id"),
]


def _stream(seed: int, size: int) -> list[Event]:
    rng = random.Random(seed)
    events, ts = [], 0.0
    for index in range(size):
        ts += rng.choice([0.5, 1.0, 2.0])
        events.append(Event(
            rng.choice(["A", "B", "C", "D"]), ts,
            {"id": rng.randrange(3), "v": rng.randrange(10)},
        ).with_seq(index))
    return events


def _key(produced):
    return [(name, result.type, tuple(result.attributes.items()),
             result.start, result.end) for name, result in produced]


def _run(registry, events, *, queries=QUERIES, sharding=None):
    processor = ComplexEventProcessor(registry, sharding=sharding)
    for name, text in queries:
        processor.register_monitoring_query(name, text)
    produced = processor.feed_many(events)
    produced.extend(processor.flush())
    return _key(produced), processor


def _run_solo(registry, events, queries=QUERIES):
    """The oracle: every query alone on its own processor, all fed the
    same stream; per event the results are concatenated in registration
    order, which is the order one processor holding them all emits."""
    solos = []
    for name, text in queries:
        processor = ComplexEventProcessor(registry)
        processor.register_monitoring_query(name, text)
        solos.append(processor)
    produced = []
    for event in events:
        for processor in solos:
            produced.extend(processor.feed(event))
    for processor in solos:
        produced.extend(processor.flush())
    return _key(produced)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_dispatch_index_is_transparent(abc_registry, seed):
    events = _stream(seed, 120)
    together, _ = _run(abc_registry, events)
    assert together == _run_solo(abc_registry, events)
    assert {name for name, *_ in together} >= {"ab", "neg", "dd"}


def test_negation_timeout_released_by_unsubscribed_event(abc_registry):
    """The 'neg' query does not subscribe to D events, but a D event's
    timestamp must still advance its watermark so the trailing negation
    times out when stream time passes its deadline, not at flush."""
    events = [
        Event("A", 1.0, {"id": 1, "v": 1}).with_seq(0),
        Event("B", 2.0, {"id": 1, "v": 1}).with_seq(1),
        # No C arrives; only D events move time past the 6s deadline.
        Event("D", 9.5, {"id": 1, "v": 1}).with_seq(2),
        Event("D", 20.0, {"id": 1, "v": 1}).with_seq(3),
    ]
    processor = ComplexEventProcessor(abc_registry)
    for name, text in QUERIES:
        processor.register_monitoring_query(name, text)
    per_event = [[name for name, _ in processor.feed(event)]
                 for event in events]
    assert "neg" not in per_event[0] + per_event[1]
    assert "neg" in per_event[2]       # released by the first D
    assert "neg" not in per_event[3]
    assert "neg" not in [name for name, _ in processor.flush()]
    together, _ = _run(abc_registry, events)
    assert together == _run_solo(abc_registry, events)


def test_dispatch_index_skips_nonsubscribers(abc_registry):
    _, processor = _run(abc_registry, _stream(5, 60))
    # The D-only query never saw the A/B/C traffic.
    dd = processor.metrics.query("dd")
    d_count = sum(1 for event in _stream(5, 60) if event.type == "D")
    assert dd.events_in == d_count
    ab = processor.metrics.query("ab")
    ab_count = sum(1 for event in _stream(5, 60)
                   if event.type in ("A", "B"))
    assert ab.events_in == ab_count


def test_dispatch_index_cached_and_invalidated(abc_registry):
    processor = ComplexEventProcessor(abc_registry)
    processor.register_monitoring_query("ab", QUERIES[0][1])
    processor.feed(Event("A", 1.0, {"id": 1, "v": 1}))
    key = (processor.DEFAULT_STREAM, None)
    assert key in processor._dispatch_cache
    first = processor._dispatch_cache[key]
    processor.feed(Event("A", 2.0, {"id": 1, "v": 1}))
    assert processor._dispatch_cache[key] is first  # memoized
    # Registration mid-stream must rebuild the index so the new query
    # sees subsequent events.
    seen = []
    processor.register_monitoring_query(
        "a_late", "EVENT A x RETURN x.id",
        on_result=lambda name, result: seen.append(result))
    assert processor._dispatch_cache == {}
    processor.feed(Event("A", 3.0, {"id": 2, "v": 1}))
    assert len(seen) == 1
    processor.deregister("a_late")
    assert processor._dispatch_cache == {}
    processor.feed(Event("A", 4.0, {"id": 2, "v": 1}))
    assert len(seen) == 1  # deregistered query no longer fed


def test_into_cascade_crosses_dispatch_index(abc_registry):
    """Composite events published INTO a stream must reach consumers on
    that stream through the per-stream dispatch index: the consumer
    produces what it produces alone when handed the producer's
    composites, right behind the event that triggered them."""
    abc_registry.declare("Pair", id=AttributeType.INT)
    queries = [
        ("producer", "EVENT SEQ(A x, B y) WHERE x.id = y.id WITHIN 10 "
         "RETURN Pair(x.id AS id) INTO pairs"),
        ("consumer", "FROM pairs EVENT SEQ(Pair p, Pair q) WITHIN 50 "
         "RETURN p.id"),
    ]
    events = _stream(7, 80)
    together, _ = _run(abc_registry, events, queries=queries)

    producer = ComplexEventProcessor(abc_registry)
    producer.register_monitoring_query(*queries[0])
    consumer = ComplexEventProcessor(abc_registry)
    consumer.register_monitoring_query(*queries[1])
    expected = []
    for event in events:
        published = producer.feed(event)
        expected.extend(published)
        for _, composite in published:
            expected.extend(consumer.feed(composite.to_event(), "pairs"))
    expected.extend(producer.flush())
    expected.extend(consumer.flush())
    assert together == _key(expected)
    assert any(name == "consumer" for name, *_ in together)


def test_sharded_run_matches_synchronous(abc_registry):
    events = _stream(9, 150)
    sharded = ShardingConfig(shards=3, backend="inline", batch_size=4)
    with_shards, _ = _run(abc_registry, events, sharding=sharded)
    synchronous, _ = _run(abc_registry, events)
    assert with_shards == synchronous
    assert synchronous == _run_solo(abc_registry, events)
