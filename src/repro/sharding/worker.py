"""Shard workers: the per-shard execution core shared by every backend.

A :class:`ShardWorkerCore` hosts one plain (unsharded)
:class:`~repro.system.processor.ComplexEventProcessor` per query group
resident on its shard and processes routed batches.  Each produced
composite event is *tagged* with the coordinates the deterministic merger
needs:

``(seq, rank, kind, end, idx)``
    *seq* is the router's global arrival number of the entry that produced
    the result, *rank* the producing query's registration rank, *kind*
    distinguishes watermark-released trailing-negation matches (0, which a
    single-process run emits before the scan results of the same event)
    from scan results (1), *end* is the match's detection stream-time and
    *idx* the within-(seq, query, kind) production ordinal.

The same core runs inline (tests, deterministic debugging), on a thread,
or inside a worker process (``process_worker_main``); only the transport
differs.
"""

from __future__ import annotations

import os
import time
import traceback
from dataclasses import dataclass

from repro.core.plan import PlanConfig
from repro.events.model import SchemaRegistry
from repro.obs.trace import DataflowTracer
from repro.resilience.chaos import ChaosConfig, FaultInjector
from repro.sharding.analyzer import GroupSpec
from repro.system.processor import ComplexEventProcessor

# Batch entry opcodes (kept as plain tuples: they cross process pipes).
EVENT_ENTRY = "e"        # ("e", seq, event, (group_id, ...))
WATERMARK_ENTRY = "w"    # ("w", seq, timestamp, (group_id, ...))

RELEASED = 0
SCANNED = 1

# Per-batch cap on shipped latency samples per query; keeps batch
# responses bounded even for huge batches.
_MAX_SAMPLES_PER_BATCH = 256


@dataclass(frozen=True)
class WorkerSpec:
    """Everything a worker needs to rebuild its processors (picklable so
    process workers can be spawned or restarted after a crash)."""

    registry: SchemaRegistry
    engine_config: PlanConfig | None
    groups: tuple  # GroupSpec, ...
    # Snapshot of the coordinator's tracing state at router start: when
    # set, workers record spans under the coordinator-assigned trace id
    # (the entry's seq) and ship them back with each batch response.
    trace: bool = False
    # Chaos spec + seed (resilience layer); workers arm only the
    # ``worker.*`` sites.  None keeps the hot path injection-free.
    chaos: str | None = None
    chaos_seed: int = 0


class ShardWorkerCore:
    """One shard's execution state."""

    def __init__(self, shard_id: int, spec: WorkerSpec):
        self.shard_id = shard_id
        self._processors: dict[int, ComplexEventProcessor] = {}
        self._rank_of: dict[str, int] = {}
        self._metrics_baseline: dict[str, tuple[int, int, float]] = {}
        self._sinks: dict[str, list] = {}
        # One shipping tracer shared by every group processor on this
        # shard: spans accumulate in its outbox and leave with the next
        # batch response.
        self._tracer = DataflowTracer(ship=True) if spec.trace else None
        for group in spec.groups:
            if group.kind == "broadcast" and group.home_shard != shard_id:
                continue
            processor = ComplexEventProcessor(
                spec.registry, config=spec.engine_config)
            if self._tracer is not None:
                processor.attach_tracer(self._tracer)
            for rank, name, text, plan_config in group.queries:
                registered = processor.register(name, text,
                                                config=plan_config)
                self._rank_of[name] = rank
                sink: list = []
                self._sinks[name] = sink
                processor.metrics.query(name).sample_sink = sink
                del registered
            self._processors[group.group_id] = processor

    @property
    def hosted_groups(self) -> list[int]:
        return sorted(self._processors)

    def process_batch(self, entries: list) -> tuple[list, list, list]:
        """Run one routed batch; returns (tagged results, metrics delta,
        shipped trace spans).

        Runs of consecutive event entries with identical group routing
        feed each group processor once, so the per-event dispatch and
        metrics overhead amortizes across the run; tag coordinates (seq,
        rank, kind, idx) are still computed per event.  A traced shard
        takes runs of one: every entry's spans are pinned to its own seq,
        which IS the coordinator's trace id (both count feeds from zero).
        """
        tracer = self._tracer
        tagged: list = []
        index = 0
        total = len(entries)
        while index < total:
            entry = entries[index]
            if tracer is not None:
                tracer.pin(entry[1])
            group_ids = entry[3]
            if entry[0] != EVENT_ENTRY:
                _, seq, timestamp, _ = entry
                counters: dict[tuple[int, int], int] = {}
                for group_id in group_ids:
                    produced = self._processors[group_id] \
                        .advance_time(timestamp)
                    for name, result in produced:
                        rank = self._rank_of[name]
                        idx = counters.get((rank, RELEASED), 0)
                        counters[(rank, RELEASED)] = idx + 1
                        tagged.append((seq, rank, RELEASED, result.end,
                                       idx, result))
                index += 1
                continue
            stop = index + 1
            while tracer is None and stop < total \
                    and entries[stop][0] == EVENT_ENTRY \
                    and entries[stop][3] == group_ids:
                stop += 1
            run = entries[index:stop]
            events = [item[2] for item in run]
            run_counters: list[dict[tuple[int, int], int]] = \
                [{} for _ in run]
            for group_id in group_ids:
                grouped = self._processors[group_id] \
                    .feed_batch_grouped(events)
                for slot, produced in enumerate(grouped):
                    if produced:
                        self._tag(tagged, produced, run[slot][1],
                                  events[slot].timestamp,
                                  run_counters[slot])
            index = stop
        if tracer is not None:
            tracer.unpin()
            return tagged, self._metrics_delta(), tracer.drain_shipment()
        return tagged, self._metrics_delta(), []

    def _tag(self, tagged: list, produced: list, seq: int,
             event_time: float, counters: dict) -> None:
        for name, result in produced:
            rank = self._rank_of[name]
            # A match ending before the fed event's timestamp is a
            # trailing-negation match the watermark released; the
            # single-process runtime emits those first.
            kind = SCANNED if result.end >= event_time else RELEASED
            idx = counters.get((rank, kind), 0)
            counters[(rank, kind)] = idx + 1
            tagged.append((seq, rank, kind, result.end, idx, result))

    def flush(self) -> tuple[list, list, list]:
        """End of stream: flush every resident group.

        Flush results are tagged ``(rank, end, idx)`` — the coordinator
        interleaves them into the global flush order.
        """
        tagged: list = []
        counters: dict[int, int] = {}
        for group_id in self.hosted_groups:
            for name, result in self._processors[group_id].flush():
                rank = self._rank_of[name]
                idx = counters.get(rank, 0)
                counters[rank] = idx + 1
                tagged.append((rank, result.end, idx, result))
        if self._tracer is not None:
            return tagged, self._metrics_delta(), \
                self._tracer.drain_shipment()
        return tagged, self._metrics_delta(), []

    def _metrics_delta(self) -> list:
        """Per-query counter deltas since the previous call, with the raw
        latency samples observed in between (capped per batch)."""
        delta: list = []
        for processor in self._processors.values():
            for name, metrics in processor.metrics.queries.items():
                base = self._metrics_baseline.get(name, (0, 0, 0.0))
                d_events = metrics.events_in - base[0]
                d_results = metrics.results_out - base[1]
                d_busy = metrics.busy_seconds - base[2]
                sink = self._sinks[name]
                if d_events or d_results or sink:
                    samples = sink[:_MAX_SAMPLES_PER_BATCH]
                    del sink[:]
                    delta.append((name, d_events, d_results, d_busy,
                                  metrics.last_result_at, samples))
                    self._metrics_baseline[name] = (
                        metrics.events_in, metrics.results_out,
                        metrics.busy_seconds)
        return delta


class _ChaosExit(BaseException):
    """Injected worker crash on a thread transport.

    Derives from ``BaseException`` so the worker loop's ``except
    Exception`` error reporting cannot catch it — a chaos crash must
    look exactly like a silent death, not a reported error."""


def _build_injector(shard_id: int, spec: WorkerSpec,
                    incarnation: int) -> FaultInjector | None:
    if not spec.chaos:
        return None
    config = ChaosConfig.parse(spec.chaos, spec.chaos_seed)
    if not config.armed("worker."):
        return None
    return FaultInjector(config, scope=f"worker-{shard_id}",
                         incarnation=incarnation)


def _inject_worker_fault(injector: FaultInjector, transport: str) -> None:
    """One injection opportunity per batch, before it is processed —
    a crash therefore loses the in-flight batch, which is exactly what
    the journal replay must recover."""
    if injector.trip("worker.crash"):
        if transport == "process":
            os._exit(23)  # no cleanup, like a SIGKILL
        raise _ChaosExit
    if injector.trip("worker.hang"):
        while True:  # pragma: no cover - the wedged loop itself
            time.sleep(3600.0)
    if injector.trip("worker.slow"):
        time.sleep(injector.param("worker.slow", 0.02))


def process_worker_main(shard_id: int, spec: WorkerSpec,
                        in_queue, out_queue, transport: str = "process",
                        incarnation: int = 0, rings=None) -> None:
    """Entry point of a process- or thread-backend worker.

    Messages in: ``("batch", batch_id, entries)``, ``("flush", flush_id)``
    and ``("stop",)``.  Responses out: ``("batch", shard, batch_id,
    tagged, delta, spans)``, ``("flush", shard, flush_id, tagged, delta,
    spans)`` or ``("error", shard, context, traceback)`` where *context*
    names the request that failed (``("batch", id)`` / ``("flush", id)``,
    None outside one) so the coordinator can retire its bookkeeping
    before reporting.  Any exception is reported rather than silently
    dying so the coordinator can fail loudly instead of losing events.

    ``incarnation`` counts restarts of this shard; the fault injector
    uses it to disarm one-shot (``@nth``) faults after a restart so the
    journal replay converges instead of re-tripping the same fault.
    ``rings`` is a :class:`~repro.sharding.transport.ChannelHandles`:
    when given, messages travel over its shared-memory ring pair and the
    queues serve only as the fallback lane for payloads the ring codec
    cannot carry.
    """
    channel = None
    if rings is not None:
        channel = rings.connect(in_queue, out_queue)
        get, put = channel.get, channel.put
    else:
        get, put = in_queue.get, out_queue.put
    context = None
    try:
        core = ShardWorkerCore(shard_id, spec)
        injector = _build_injector(shard_id, spec, incarnation)
        while True:
            message = get()
            opcode = message[0]
            context = None
            if opcode == "batch":
                _, batch_id, entries = message
                context = ("batch", batch_id)
                if injector is not None:
                    _inject_worker_fault(injector, transport)
                tagged, delta, spans = core.process_batch(entries)
                put(("batch", shard_id, batch_id, tagged, delta, spans))
            elif opcode == "flush":
                _, flush_id = message
                context = ("flush", flush_id)
                tagged, delta, spans = core.flush()
                put(("flush", shard_id, flush_id, tagged, delta, spans))
            elif opcode == "stop":
                break
    except (KeyboardInterrupt, EOFError):  # pragma: no cover
        return
    except _ChaosExit:
        return
    except Exception:  # pragma: no cover - exercised via fault tests
        put(("error", shard_id, context, traceback.format_exc()))
    finally:
        if channel is not None:
            channel.close()
