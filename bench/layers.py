"""Per-layer metrics of a traced run (``--trace 1``).

Three sources, all outside the program: spans the recorder opened around
public methods of the instances a workload built, standalone replays of
one layer on the workload's own material, and counters the program
already publishes.  Every workload reports every name; a layer the
workload does not use reports 0.
"""

from __future__ import annotations

import gc
import statistics
from time import perf_counter

from repro.cleaning import (
    AnomalyFilter,
    Deduplication,
    EventGeneration,
    TemporalSmoothing,
    TimeConversion,
)
from repro.service import protocol
from repro.sharding import wire

import workloads
from harness import PassResult, percentile, run_pass, settle
from trace import SpanRecorder, span_total

PER_LAYER: dict[str, str] = {
    # harness
    "bench.generate_s": "s",
    "bench.reference_s": "s",
    "bench.generator_lag_p99_ms": "ms",
    "bench.schedule_slip_ms": "ms",
    "bench.trace_overhead_share": "ratio",
    "bench.self_time_sum_share": "ratio",
    # end-to-end quantities that cannot carry a relative bound: too
    # noisy on a two-core sandbox (p99), 0 at the seed, or defined on
    # one workload only
    "detect_latency_p99_ms": "ms",
    "late_share": "ratio",
    "failed_share": "ratio",
    "recovery_s": "s",
    # share of the traced pass's wall time spent in each layer itself
    "share.cleaning": "ratio",
    "share.system": "ratio",
    "share.core_scan": "ratio",
    "share.db": "ratio",
    "share.persist": "ratio",
    "share.sharding": "ratio",
    "share.service": "ratio",
    "cleaning.busy_s": "s",
    "cleaning.readings_in": "count",
    "cleaning.events_out": "count",
    "cleaning.us_per_reading": "us",
    "cleaning.quarantined": "count",
    "cleaning.anomaly.busy_s": "s",
    "cleaning.smoothing.busy_s": "s",
    "cleaning.timeconv.busy_s": "s",
    "cleaning.dedup.busy_s": "s",
    "cleaning.eventgen.busy_s": "s",
    "system.tick.busy_s": "s",
    "system.feed.busy_s": "s",
    "system.events_in": "count",
    "system.results_out": "count",
    "system.dispatch_us_per_event": "us",
    "core.compile_ms_per_query": "ms",
    "core.scan.busy_s": "s",
    "core.scan.us_per_event": "us",
    "core.scan.matches_out": "count",
    "core.scan.admit_ratio": "ratio",
    "core.scan.construct_ratio": "ratio",
    "core.scan.compiled_share": "ratio",
    "core.stack_high_water": "count",
    "core.partitions_high_water": "count",
    "db.write.busy_s": "s",
    "db.rows_written": "count",
    "db.us_per_row": "us",
    "db.query_p50_ms": "ms",
    "db.snapshot_ms": "ms",
    "persist.wal.records": "count",
    "persist.wal.bytes": "B",
    "persist.wal.fsyncs": "count",
    "persist.wal.queue_depth_max": "count",
    "persist.checkpoint.count": "count",
    "persist.checkpoint.busy_s": "s",
    "persist.overhead_share": "ratio",
    "persist.recover.replayed_events": "count",
    "persist.recover.events_per_s": "1/s",
    "sharding.router.busy_s": "s",
    "sharding.wire.encode_us_per_batch": "us",
    "sharding.wire.decode_us_per_batch": "us",
    "sharding.wire.bytes_per_event": "B",
    "sharding.batches_sent": "count",
    "sharding.queue_full_stalls": "count",
    "sharding.spin_waits": "count",
    "sharding.park_waits": "count",
    "sharding.pipe_fallbacks": "count",
    "sharding.skew": "ratio",
    "sharding.overhead_share": "ratio",
    "service.protocol.encode_us": "us",
    "service.protocol.parse_us": "us",
    "service.feed_record.us_per_event": "us",
    "service.tcp_overhead_share": "ratio",
    "service.ack_latency_p50_ms": "ms",
    "service.results_pushed": "count",
    "service.results_shed": "count",
    "service.events_throttled": "count",
    "service.shared_groups": "count",
    "service.rung_lo.p99_ms": "ms",
    "service.rung_hi.p99_ms": "ms",
    "service.rung_hi.backlog_growth_per_s": "1/s",
}

# Which share each span name's self time is counted into.
SPAN_LAYER = {
    "cleaning": "share.cleaning",
    "system.tick": "share.system",
    "system.feed": "share.system",
    "core.scan": "share.core_scan",
    "db.write": "share.db",
    "db.read": "share.db",
    "persist.wal_append": "share.persist",
    "persist.after_feed": "share.persist",
    "persist.checkpoint": "share.persist",
    "persist.sync": "share.persist",
    "service.core": "share.service",
}


# -- the traced run -----------------------------------------------------------------

def trace_run(workload, material, recorder: SpanRecorder) -> dict:
    """Every per-layer metric for *workload* (except the ones the caller
    owns: generate/reference time, late/failed share, open-loop lag)."""
    metrics = dict.fromkeys(PER_LAYER, 0.0)
    if isinstance(workload, workloads.Service):
        passes = _trace_service(workload, material, recorder, metrics)
    else:
        passes = _trace_in_process(workload, material, recorder, metrics)
    metrics["passes"] = passes
    return metrics


def _events_per_second(material, outcome: PassResult) -> float:
    return material.items / outcome.elapsed


def _shares(recorder: SpanRecorder, pass_id: int, metrics: dict,
            scale: float = 1.0) -> dict:
    """Fill the ``share.*`` metrics from one traced pass; returns the
    pass's span totals."""
    totals = recorder.totals(pass_id)
    streaming = [entry for name, entry in totals.items()
                 if name != "core.compile"]   # registration is set-up
    root = sum(entry["root_s"] for entry in streaming)
    if root <= 0:
        return totals
    for name, entry in totals.items():
        share = SPAN_LAYER.get(name)
        if share is not None:
            metrics[share] += scale * entry["self_s"] / root
    metrics["bench.self_time_sum_share"] = \
        sum(entry["self_s"] for entry in streaming) / root
    return totals


def _trace_in_process(workload, material, recorder, metrics) -> list:
    sharded = getattr(workload, "sharding", None) is not None
    run_pass(workload, material)                      # warm-up, discarded
    plain = run_pass(workload, material)
    recorder.pass_id = 1
    traced = run_pass(workload, material, recorder=recorder,
                      inspect=lambda handle, _: metrics.update(
                          _read_counters(handle)))
    recorder.pass_id = 0
    totals = recorder.totals(1)
    metrics["core.compile_ms_per_query"] = _compile_ms(totals)
    metrics["bench.trace_overhead_share"] = \
        1.0 - _events_per_second(material, traced) \
        / _events_per_second(material, plain)
    passes = [plain, traced]

    if sharded:
        # The same prefix through one process: what sharding costs, and
        # what the layers below it would have spent.
        single = workload.without_sharding()
        unsharded = single.material(material.context.stream)
        run_pass(single, unsharded)
        alone = run_pass(single, unsharded)
        overhead = 1.0 - _events_per_second(material, plain) \
            / _events_per_second(unsharded, alone)
        metrics["sharding.overhead_share"] = overhead
        metrics["share.sharding"] = max(0.0, overhead)
        recorder.pass_id = 2
        run_pass(single, unsharded, recorder=recorder)
        recorder.pass_id = 0
        metrics["sharding.router.busy_s"] = span_total(
            totals, "sharding.router")
        totals = _shares(recorder, 2, metrics,
                         scale=1.0 - metrics["share.sharding"])
        _wire_codec(material, metrics)
        profiled_workload, profiled_material = single, unsharded
    else:
        _shares(recorder, 1, metrics)
        profiled_workload, profiled_material = workload, material

    # Retail feeds the processor what cleaning emitted, not the readings.
    events = metrics["system.events_in"] = \
        metrics["cleaning.events_out"] or float(material.items)
    metrics["system.results_out"] = len(traced.results)
    metrics["system.tick.busy_s"] = span_total(totals, "system.tick",
                                               "self_s")
    metrics["system.feed.busy_s"] = span_total(totals, "system.feed",
                                               "self_s")
    metrics["core.scan.busy_s"] = span_total(totals, "core.scan")
    metrics["cleaning.busy_s"] = span_total(totals, "cleaning")
    metrics["db.write.busy_s"] = span_total(totals, "db.write")
    metrics["persist.checkpoint.busy_s"] = span_total(
        totals, "persist.checkpoint")
    if events:
        metrics["system.dispatch_us_per_event"] = \
            metrics["system.feed.busy_s"] / events * 1e6
        metrics["core.scan.us_per_event"] = \
            metrics["core.scan.busy_s"] / events * 1e6
    if metrics["cleaning.readings_in"]:
        metrics["cleaning.us_per_reading"] = metrics["cleaning.busy_s"] \
            / metrics["cleaning.readings_in"] * 1e6
    if metrics["db.rows_written"]:
        metrics["db.us_per_row"] = metrics["db.write.busy_s"] \
            / metrics["db.rows_written"] * 1e6

    run_pass(profiled_workload, profiled_material, profile=True,
             inspect=lambda handle, _: metrics.update(
                 _scan_counters(handle.processor)))

    if isinstance(workload, workloads.Retail):
        _cleaning_stages(material, metrics)
        if workload.durable:
            bare = workloads.WORKLOADS["retail_e2e"]
            run_pass(bare, material)
            metrics["persist.overhead_share"] = \
                1.0 - _events_per_second(material, plain) \
                / _events_per_second(material, run_pass(bare, material))
            _recovery(workload, material, metrics)
    return passes


def _compile_ms(totals: dict) -> float:
    calls = span_total(totals, "core.compile", "calls")
    return span_total(totals, "core.compile") / calls * 1e3 if calls else 0.0


def _read_counters(handle) -> dict:
    """Counters the system publishes, read after the traced pass and
    before teardown."""
    found: dict[str, float] = {}
    processor = handle.processor
    shards = processor.metrics.shards
    if shards:
        routed = [shard.events_routed for shard in shards.values()]
        found["sharding.skew"] = max(routed) / statistics.fmean(routed)
        for name in ("batches_sent", "queue_full_stalls", "spin_waits",
                     "park_waits", "pipe_fallbacks"):
            found[f"sharding.{name}"] = float(sum(
                getattr(shard, name) for shard in shards.values()))
    system = getattr(handle, "system", None)
    if system is None:
        return found
    stages = system.cleaning.stats
    found["cleaning.readings_in"] = float(
        stages.stage("anomaly_filter").consumed)
    found["cleaning.events_out"] = float(
        stages.stage("event_generation").produced)
    if system.dead_letters is not None:
        found["cleaning.quarantined"] = float(len(system.dead_letters))
    database = system.event_db.db
    found["db.rows_written"] = float(sum(
        len(database.table(name)) for name
        in ("locations", "containment", "event_archive")))
    timings = []
    for sql in workloads.TRACK_TRACE_SQL:
        for _ in range(5):
            started = perf_counter()
            system.query_database(sql)
            timings.append(perf_counter() - started)
    found["db.query_p50_ms"] = statistics.median(timings) * 1e3
    started = perf_counter()
    system.event_db.to_snapshot()
    found["db.snapshot_ms"] = (perf_counter() - started) * 1e3
    if system.persistence is not None:
        gauges = system.persistence.gauges()
        found["persist.wal.records"] = float(gauges["wal_records"])
        found["persist.wal.bytes"] = float(gauges["wal_bytes"])
        found["persist.wal.fsyncs"] = float(gauges["wal_fsyncs"])
        found["persist.checkpoint.count"] = float(
            gauges["checkpoints_written"])
        found["persist.wal.queue_depth_max"] = float(
            handle.queue_depth_max)
    return found


def _scan_counters(processor) -> dict:
    """Scan-profile and plan counters after a profiled pass."""
    runtimes = [registered.runtime for registered in processor.queries()]
    profiles = list(processor.scan_profiles().values())
    admits = sum(sum(profile.admits) for profile in profiles)
    attempts = sum(runtime.stats.events_consumed for runtime in runtimes)
    constructions = sum(profile.construct_calls for profile in profiles)
    matches = sum(profile.matches_emitted for profile in profiles)
    return {
        "core.scan.matches_out": float(matches),
        "core.scan.admit_ratio": admits / attempts if attempts else 0.0,
        "core.scan.construct_ratio":
            matches / constructions if constructions else 0.0,
        "core.scan.compiled_share": statistics.fmean(
            1.0 if runtime.scan_compiled else 0.0 for runtime in runtimes),
        "core.stack_high_water": float(sum(
            runtime.stats.stack_high_water for runtime in runtimes)),
        "core.partitions_high_water": float(sum(
            runtime.stats.partitions_high_water for runtime in runtimes)),
    }


def _cleaning_stages(material, metrics) -> None:
    """Each cleaning stage alone on the workload's ticks (as E1 does)."""
    scenario = material.context.scenario
    ticks = material.units

    def timed(name: str, work):
        started = perf_counter()
        produced = work()
        metrics[f"cleaning.{name}.busy_s"] = perf_counter() - started
        return produced

    anomaly = AnomalyFilter(scenario.ons.known_tags())
    smoothing = TemporalSmoothing(window=2.0)
    conversion = TimeConversion(unit=1.0)
    dedup = Deduplication(scenario.layout)
    generation = EventGeneration(scenario.layout, scenario.ons)
    cleaned = timed("anomaly", lambda: [
        (now, anomaly.process(readings)) for now, readings in ticks])
    smoothed = timed("smoothing", lambda: [
        (now, smoothing.process(readings, now))
        for now, readings in cleaned])
    logical = timed("timeconv", lambda: [
        conversion.process(readings) for _, readings in smoothed])
    deduped = timed("dedup", lambda: [
        dedup.process(readings) for readings in logical])
    timed("eventgen", lambda: [
        generation.process(readings) for readings in deduped])


def _recovery(workload, material, metrics) -> None:
    data_dir, _ = workload.abandon_data_dir(material)
    reports = [workload.time_recovery(material, data_dir)
               for _ in range(3)]
    reports.sort(key=lambda report: report["recover_s"])
    median = reports[1]
    metrics["recovery_s"] = median["recover_s"]
    metrics["persist.recover.replayed_events"] = float(
        median["replayed_events"])
    metrics["persist.recover.events_per_s"] = \
        median["replayed_events"] / median["recover_s"]


def _wire_codec(material, metrics) -> None:
    """The ring's request codec alone on the workload's own batches."""
    batches = [("batch", number, [
        (wire.EVENT_ENTRY, number * workloads.BATCH + slot, event, (0,))
        for slot, event in enumerate(unit)])
        for number, unit in enumerate(material.units[:200])]
    started = perf_counter()
    payloads = [wire.encode_request(batch) for batch in batches]
    encoded = perf_counter()
    for payload in payloads:
        wire.decode_request(payload)
    decoded = perf_counter()
    events = sum(len(batch[2]) for batch in batches)
    metrics["sharding.wire.encode_us_per_batch"] = \
        (encoded - started) / len(batches) * 1e6
    metrics["sharding.wire.decode_us_per_batch"] = \
        (decoded - encoded) / len(batches) * 1e6
    metrics["sharding.wire.bytes_per_event"] = \
        sum(len(payload) for payload in payloads) / events


# -- the service ------------------------------------------------------------------------

def _trace_service(workload, material, recorder, metrics) -> list:
    run_pass(workload, material)                      # warm-up, discarded
    state: dict = {}
    plain = run_pass(
        workload, material,
        inspect=lambda handle, _: state.update(
            stats=workload.server_stats(handle),
            register_s=handle.register_s))
    tenants = state["stats"]["tenants"].values()
    metrics["service.results_pushed"] = float(len(plain.results))
    metrics["service.results_shed"] = float(sum(
        tenant["results_shed_total"] for tenant in tenants))
    metrics["service.events_throttled"] = float(sum(
        tenant["events_throttled_total"] for tenant in tenants))
    metrics["service.shared_groups"] = float(
        state["stats"]["stats"]["shared_plans"]["groups"])
    metrics["service.ack_latency_p50_ms"] = \
        statistics.median(plain.extras["ack_latency"]) * 1e3
    metrics["core.compile_ms_per_query"] = \
        state["register_s"] / workloads.SERVICE_TENANTS * 1e3
    metrics["system.events_in"] = float(material.items)
    metrics["system.results_out"] = float(len(plain.results))

    # The same requests through the service core in this process.
    records = [protocol.parse_line(line) for line in material.units]
    plain_s = _feed_records(records, None)
    recorder.pass_id = 1
    traced_s = _feed_records(records, recorder)
    recorder.pass_id = 0
    tcp_us = plain.elapsed / material.items * 1e6
    metrics["service.feed_record.us_per_event"] = \
        plain_s / material.items * 1e6
    metrics["service.tcp_overhead_share"] = \
        1.0 - metrics["service.feed_record.us_per_event"] / tcp_us
    metrics["bench.trace_overhead_share"] = 1.0 - plain_s / traced_s
    # What the in-process replay spent below the service core, scaled
    # to the time one event takes over TCP; the rest is the service
    # layer (framing, the asyncio server, fan-out to subscribers).
    in_process = 1.0 - metrics["service.tcp_overhead_share"]
    totals = _shares(recorder, 1, metrics, scale=in_process)
    metrics["share.service"] += metrics["service.tcp_overhead_share"]
    metrics["system.feed.busy_s"] = span_total(totals, "system.feed",
                                               "self_s")
    metrics["core.scan.busy_s"] = span_total(totals, "core.scan")
    metrics["system.dispatch_us_per_event"] = \
        metrics["system.feed.busy_s"] / material.items * 1e6
    metrics["core.scan.us_per_event"] = \
        metrics["core.scan.busy_s"] / material.items * 1e6

    started = perf_counter()
    for record in records:
        protocol.encode(record)
    encoded = perf_counter()
    for line in material.units:
        protocol.decode_request(line)
    metrics["service.protocol.encode_us"] = \
        (encoded - started) / len(records) * 1e6
    metrics["service.protocol.parse_us"] = \
        (perf_counter() - encoded) / len(records) * 1e6

    # Two diagnostic rungs around the frozen rate.
    for name, factor in (("lo", 0.5), ("hi", 1.5)):
        rate = workload.open_rate * factor
        limit = min(material.items,
                    int(rate * workloads.SERVICE_RUNG_SECONDS))
        rung = run_pass(workload, material, paced=True, rate=rate,
                        limit=limit)
        ordered = sorted(rung.latencies)
        metrics[f"service.rung_{name}.p99_ms"] = \
            percentile(ordered, 0.99) * 1e3
        if name == "hi":
            backlog = rung.extras["backlog"]
            half = backlog[len(backlog) // 2]
            last = backlog[-1]
            metrics["service.rung_hi.backlog_growth_per_s"] = \
                (last[1] - half[1]) / max(1e-9, last[0] - half[0])
    return [plain]


def _feed_records(records: list[dict], recorder) -> float:
    """Seconds to push *records* through ``QueryService.feed_record``
    in this process, tenants registered as the server child does."""
    service = workloads.build_service()
    if recorder is not None:
        recorder.wrap(service, "feed_record", "service.core")
        recorder.wrap(service.processor, "feed", "system.feed")
        workloads.trace_runtimes(recorder, service.processor)
    feed = service.feed_record
    tenant = workloads.tenant_name(0)
    names = [workloads.tenant_name(index)
             for index in range(workloads.SERVICE_TENANTS)]
    settle()
    started = perf_counter()
    for record in records:
        feed(tenant, record["event"])
        for name in names:   # what the server's pump does per request
            service.drain(name)
    elapsed = perf_counter() - started
    gc.unfreeze()
    return elapsed
