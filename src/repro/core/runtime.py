"""Query runtime: one live instance of a query plan over a stream.

A :class:`QueryRuntime` is the unit the complex event processor registers
per continuous query.  ``feed`` pushes one event through the dataflow and
returns the composite events it produced; ``flush`` ends the stream
(releasing trailing-negation matches).
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator

from repro.core.codegen import compile_scan
from repro.core.operators import (
    KleeneFilter,
    Negation,
    Selection,
    Transformation,
    WindowFilter,
)
from repro.core.plan import KleeneMode, QueryPlan
from repro.core.sequence import SequenceScanConstruct
from repro.core.stats import PlanStats
from repro.events.event import CompositeEvent, Event
from repro.core.match import Match


class QueryRuntime:
    """Executable dataflow for one query plan."""

    def __init__(self, plan: QueryPlan, functions: Any = None,
                 system: Any = None, raw_matches: bool = False):
        self.plan = plan
        self.stats = PlanStats()
        analyzed = plan.analyzed
        config = plan.config

        scan_kwargs = dict(
            window_pushdown=config.window_pushdown,
            partition_pushdown=config.partition_pushdown,
            filter_pushdown=config.filter_pushdown,
            construction_pushdown=config.construction_pushdown,
            kleene_maximal=config.kleene_mode is KleeneMode.MAXIMAL,
            max_kleene_events=config.max_kleene_events,
            prune_interval=config.prune_interval,
            stats=self.stats, functions=functions, system=system)
        # Kept for enable_profiling, which regenerates the compiled scan
        # with profiling hooks emitted into the source.
        self._analyzed = analyzed
        self._scan_kwargs = scan_kwargs
        self._scan = compile_scan(analyzed, **scan_kwargs) \
            if config.use_codegen else None
        if self._scan is None:  # flag off, or shape codegen doesn't cover
            self._scan = SequenceScanConstruct(analyzed, **scan_kwargs)

        self._selection = Selection(
            analyzed,
            skip_partition_equalities=plan.uses_partition,
            include_component_filters=not config.filter_pushdown,
            include_cross_predicates=not config.construction_pushdown,
            stats=self.stats, functions=functions, system=system) \
            if plan.needs_selection else None
        self._window = WindowFilter(analyzed.window, stats=self.stats) \
            if plan.needs_window_filter else None
        self._kleene = KleeneFilter(
            analyzed, maximal_mode=config.kleene_mode is KleeneMode.MAXIMAL,
            stats=self.stats, functions=functions, system=system) \
            if plan.needs_kleene_filter else None
        self._negation = Negation(
            analyzed, use_partition_index=plan.uses_partition,
            stats=self.stats, functions=functions, system=system) \
            if plan.needs_negation else None
        # raw_matches: skip the RETURN clause and emit Match objects.
        # A plan group (repro.core.shared) runs one such match pipeline
        # for all its member queries and applies each member's own
        # Transformation as its continuation.
        self._transform = None if raw_matches else Transformation(
            analyzed, stats=self.stats, functions=functions,
            system=system).process
        self._filtered = not (self._selection is None
                              and self._window is None
                              and self._kleene is None)
        self._flushed = False

    # -- streaming interface -------------------------------------------------

    def feed_batch_grouped(self, events: list[Event]) -> list[list]:
        """Push a chunk of events through the plan; one output list per
        input event, exactly what feeding them one by one produces.

        The scan runs over the whole chunk first — it touches only its
        own stacks — and the operators above it (selection, window,
        Kleene, negation, RETURN) then walk the chunk event by event, so
        a negation operator still observes events and advances its
        watermark in stream order.
        """
        if self._flushed:
            raise RuntimeError("runtime already flushed; create a new one")
        self.stats.events_consumed += len(events)
        if len(events) == 1:
            matches = self._scan.feed(events[0])
            bounds = (len(matches),)
        else:
            bounds = []
            matches = self._scan.feed_batch(events, bounds)
        negation = self._negation
        if negation is None and not matches:
            return [[] for _ in events]   # nothing completed in this chunk
        transform = self._transform
        filtered = self._filtered
        grouped: list[list] = []
        emitted = 0
        start = 0
        for event, stop in zip(events, bounds):
            outputs: list = []
            if negation is not None:
                negation.observe(event)
                for match in negation.advance(event.timestamp):
                    outputs.append(transform(match) if transform else match)
            for match in matches[start:stop]:
                if filtered:
                    match = self._apply_filters(match)
                    if match is None:
                        continue
                if negation is not None:
                    match = negation.process(match)
                    if match is None:
                        continue  # rejected, or buffered until it times out
                outputs.append(transform(match) if transform else match)
            emitted += len(outputs)
            grouped.append(outputs)
            start = stop
        self.stats.results_emitted += emitted
        return grouped

    def feed(self, event: Event) -> list:
        """Push one event through the plan: a chunk of one."""
        return self.feed_batch_grouped([event])[0]

    def feed_batch(self, events: list[Event]) -> list:
        """Push a chunk of events through the plan; outputs flattened."""
        return [output for outputs in self.feed_batch_grouped(events)
                for output in outputs]

    def advance(self, watermark: float) -> list[CompositeEvent]:
        """Advance stream time without consuming an event.

        The sharded runtime broadcasts watermark ticks to shards that did
        not receive an event so their pending trailing-negation matches
        are released at the same stream time as a single-process run.
        """
        if self._flushed:
            raise RuntimeError("runtime already flushed; create a new one")
        if self._negation is None:
            return []
        outputs = self._negation.advance(watermark)
        if self._transform is not None:
            outputs = [self._transform(match) for match in outputs]
        self.stats.results_emitted += len(outputs)
        return outputs

    def flush(self) -> list[CompositeEvent]:
        """End the stream: decide every pending trailing negation."""
        self._flushed = True
        outputs: list = []
        if self._negation is not None:
            outputs = self._negation.flush()
            if self._transform is not None:
                outputs = [self._transform(match) for match in outputs]
        self.stats.results_emitted += len(outputs)
        return outputs

    def run(self, events: Iterable[Event]) -> Iterator[CompositeEvent]:
        """Convenience: feed a whole stream, then flush."""
        for event in events:
            yield from self.feed(event)
        yield from self.flush()

    @property
    def flushed(self) -> bool:
        """True once the stream has ended for this runtime."""
        return self._flushed

    # -- internals -----------------------------------------------------------

    def _apply_filters(self, match: Match) -> Match | None:
        if self._selection is not None:
            result = self._selection.process(match)
            if result is None:
                return None
            match = result
        if self._window is not None:
            result = self._window.process(match)
            if result is None:
                return None
            match = result
        if self._kleene is not None:
            result = self._kleene.process(match)
            if result is None:
                return None
            match = result
        return match

    # -- observability ---------------------------------------------------------

    @property
    def scan_compiled(self) -> bool:
        """True when the sequence scan runs code-generated (not
        interpreted) — see :mod:`repro.core.codegen`."""
        return self._scan.compiled

    @property
    def scan_coverage(self) -> dict[str, bool]:
        """Which scan layers run generated code vs interpreted fallback:
        ``compiled`` (the feed path), ``construct`` (the sequence
        construction walk), ``batch`` (the batch loop)."""
        return {
            "compiled": bool(self._scan.compiled),
            "construct": bool(self._scan.generated_construct),
            "batch": bool(self._scan.generated_batch),
        }

    @property
    def stack_instances(self) -> int:
        return self._scan.instance_count

    @property
    def partitions(self) -> int:
        return self._scan.partition_count

    @property
    def pending_negations(self) -> int:
        return self._negation.pending_count if self._negation else 0

    @property
    def scan_profile(self):
        """The active scan profile, or None until enabled."""
        return self._scan.profile

    def enable_profiling(self):
        """Turn on per-component scan counters for this runtime.

        The compiled scan omits profiling code entirely (the disabled
        path stays byte-identical to the unprofiled source), so enabling
        rebuilds it with the hooks emitted.  The scan's state cannot be
        carried across a rebuild, so this must precede the first event.
        """
        if self.stats.events_consumed:
            raise RuntimeError(
                "profiling must be enabled before the first event is fed")
        if self._scan.compiled and not self._scan.profiled:
            rebuilt = compile_scan(self._analyzed, profiling=True,
                                   **self._scan_kwargs)
            if rebuilt is not None:
                self._scan = rebuilt
        return self._scan.enable_profiling()
