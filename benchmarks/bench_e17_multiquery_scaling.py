"""E17 — multi-query scaling: throughput vs registered-query count.

Offering every event to every query — here: each query alone on a
processor of its own, all fed the whole stream — costs time linear in the
number of queries even when most can never match the event's type.  One
``ComplexEventProcessor`` holding them all looks the event's type up in
its dispatch index (stream -> event type -> subscribing plan groups) and
hands the event only to the queries whose pattern mentions it, so
per-event cost tracks the *subscriber* count instead.

The workload models a multi-tenant processor: 90% of the traffic is one
hot type pair handled by the first query, and each additional query
watches a different pair drawn from the remaining 14-type alphabet.
Adding queries multiplies the naive loop's per-event cost but barely
moves the indexed cost — the hot events touch one query either way.
The solo processors are also the oracle: result equality between the two
is asserted at every k.
"""

from __future__ import annotations

import argparse
import time

from repro.system.processor import ComplexEventProcessor
from repro.workloads.synthetic import SyntheticConfig, SyntheticStream, \
    type_names

from common import print_table

FULL_EVENTS = 8_000
SMOKE_EVENTS = 1_200
QUERY_COUNTS = [1, 2, 4, 8, 16, 32]
N_TYPES = 16


def build_stream(n_events: int) -> SyntheticStream:
    # The first two types carry 90% of the traffic; the remaining 14
    # share the rest uniformly.
    weights = (45.0, 45.0) + (10.0 / (N_TYPES - 2),) * (N_TYPES - 2)
    return SyntheticStream.generate(SyntheticConfig(
        n_events=n_events, n_types=N_TYPES, id_domain=32, mean_gap=1.0,
        seed=17, type_weights=weights))


def build_queries(count: int) -> list[tuple[str, str]]:
    """The hot-pair query plus ``count - 1`` queries cycling over the
    cold type pairs."""
    names = type_names(N_TYPES)
    queries = []
    for index in range(count):
        if index == 0:
            first, second = names[0], names[1]
        else:
            offset = 2 + 2 * (index - 1) % (N_TYPES - 2)
            first, second = names[offset], names[offset + 1]
        queries.append((
            f"q{index}",
            f"EVENT SEQ({first} x, {second} y) WHERE x.id = y.id "
            f"WITHIN 30 RETURN x.id"))
    return queries


def run_once(stream: SyntheticStream, count: int,
             together: bool) -> tuple[float, list]:
    """Time the stream through *count* queries on one processor
    (*together*) or on one processor each (the naive loop)."""
    queries = build_queries(count)
    groups = [queries] if together else [[query] for query in queries]
    processors = []
    for group in groups:
        processor = ComplexEventProcessor(stream.registry)
        for name, text in group:
            processor.register(name, text)
        processors.append(processor)
    produced = []
    started = time.perf_counter()
    for event in stream.events:
        for processor in processors:
            produced.extend(processor.feed(event))
    for processor in processors:
        produced.extend(processor.flush())
    elapsed = time.perf_counter() - started
    fingerprint = [(name, result.start, result.end)
                   for name, result in produced]
    return elapsed, fingerprint


def sweep(n_events: int, query_counts: list[int]) -> list[list]:
    stream = build_stream(n_events)
    rows = []
    base_indexed = base_naive = None
    for count in query_counts:
        naive_elapsed, naive_fp = run_once(stream, count, False)
        indexed_elapsed, indexed_fp = run_once(stream, count, True)
        assert indexed_fp == naive_fp, \
            f"dispatch index diverged at {count} queries"
        naive_us = naive_elapsed / n_events * 1e6
        indexed_us = indexed_elapsed / n_events * 1e6
        if base_indexed is None:
            base_indexed, base_naive = indexed_us, naive_us
        rows.append([count, naive_us, indexed_us,
                     naive_us / base_naive, indexed_us / base_indexed,
                     naive_elapsed / indexed_elapsed,
                     len(indexed_fp)])
    return rows


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(
        description="throughput vs registered-query count: one "
                    "indexed processor vs one processor per query")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny configuration for CI (seconds)")
    args = parser.parse_args(argv)
    n_events = SMOKE_EVENTS if args.smoke else FULL_EVENTS
    counts = QUERY_COUNTS[:4] if args.smoke else QUERY_COUNTS
    rows = sweep(n_events, counts)
    print_table(
        f"E17 — multi-query scaling ({n_events} events, {N_TYPES} "
        f"types, keyed pair queries)",
        ["queries", "naive us/ev", "indexed us/ev", "naive growth",
         "indexed growth", "index speedup", "results"],
        rows)
    top = rows[-1]
    print(f"at {top[0]} queries the naive loop costs {top[3]:.1f}x its "
          f"1-query cost; the dispatch index costs {top[4]:.1f}x "
          f"(linear would be {top[0]:.0f}x).")


def test_benchmark_indexed_16_queries(benchmark):
    stream = build_stream(SMOKE_EVENTS)
    result = benchmark.pedantic(lambda: run_once(stream, 16, True),
                                rounds=3, iterations=1)
    assert result[1]


def test_benchmark_naive_16_queries(benchmark):
    stream = build_stream(SMOKE_EVENTS)
    result = benchmark.pedantic(lambda: run_once(stream, 16, False),
                                rounds=3, iterations=1)
    assert result[1]


if __name__ == "__main__":
    main()
