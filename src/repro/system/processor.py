"""The complex event processor: continuous queries over the event stream.

Section 3 gives the processor three tasks, all supported here:

1. **monitoring queries** — registered with a callback; every satisfaction
   produces a notification result;
2. **archiving rules** — transformation queries whose RETURN clauses call
   database functions (``_updateLocation``, ``_updateContainment``); their
   results stream to the event database rather than the user;
3. **stream + database queries** — monitoring queries whose RETURN clause
   performs lookups (``_retrieveLocation``); detection triggers the
   subquery and the combined result goes back to the user.

The processor can also run **sharded**: construct it with a
:class:`~repro.sharding.ShardingConfig` whose :attr:`active` flag is set
and the cleaned stream is hash-partitioned across worker shards (see
``repro.sharding``).  The default configuration (one inline shard) keeps
the classic synchronous single-process behaviour.
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass
from itertools import groupby, repeat
from operator import itemgetter
from typing import Any, Callable, Iterable, Sequence, TYPE_CHECKING

from repro.core.engine import CompiledQuery, Engine
from repro.core.plan import PlanConfig
from repro.core.runtime import QueryRuntime
from repro.core.match import Match
from repro.core.shared import GroupMember, PlanGroup, SharedPlanConfig, \
    calls_functions, plan_signature
from repro.errors import SaseError
from repro.events.event import CompositeEvent, Event
from repro.events.model import SchemaRegistry
from repro.obs.profile import ScanProfile, SlowFeedLog
from repro.obs.trace import DataflowTracer
from repro.system.metrics import MetricsCollector

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sharding.config import ShardingConfig

ResultCallback = Callable[[str, CompositeEvent], None]


class QueryKind(enum.Enum):
    MONITORING = "monitoring"
    ARCHIVING_RULE = "archiving rule"


@dataclass
class RegisteredQuery:
    """One live continuous query: a member of a plan group, which
    evaluates the match plan, plus this query's own RETURN clause."""

    name: str
    kind: QueryKind
    compiled: CompiledQuery
    on_result: ResultCallback | None
    group: PlanGroup | None   # None once deregistered
    member: GroupMember
    results_produced: int = 0

    @property
    def runtime(self) -> QueryRuntime | None:
        """The group's raw-match pipeline — where this query's stream
        state (stacks, partitions, buffered negations) lives."""
        return self.group.pipeline if self.group is not None else None

    @property
    def shared_group(self) -> PlanGroup | None:
        """The group other queries may join (shared-plan evaluation), or
        None when this query's pipeline is private."""
        group = self.group
        return group if group is not None and group.signature is not None \
            else None

    @property
    def input_stream(self) -> str:
        """The stream this query reads (the FROM clause; "if it is
        omitted, the query refers to a default system input")."""
        return self.compiled.analyzed.query.from_stream or \
            ComplexEventProcessor.DEFAULT_STREAM

    @property
    def output_stream(self) -> str | None:
        """The stream this query's composite events feed (INTO)."""
        return self.compiled.analyzed.output_stream


class _GroupEntry:
    """One plan group as a stream's dispatch index sees it."""

    __slots__ = ("group", "stream", "members", "types", "late")

    def __init__(self, registered: RegisteredQuery):
        analyzed = registered.compiled.analyzed
        self.group = registered.group
        self.stream = registered.input_stream
        # (registration rank, query) of every member, in rank order.
        self.members: list[tuple[int, RegisteredQuery]] = []
        # The event types the group must see, or None for every type: an
        # untyped component can bind any event, and a negation operator
        # needs every event's timestamp as its watermark — its pending
        # trailing-negation matches time out on stream time, whatever
        # type of event moves it.
        self.types: frozenset[str] | None = None
        if not analyzed.has_negation and all(
                component.event_types for component in analyzed.components):
            self.types = frozenset(
                event_type for component in analyzed.components
                for event_type in component.event_types)
        # A WHERE clause that calls a function may read the event
        # database, so its match step cannot run ahead of any RETURN:
        # it runs inside the RETURN phase, event by event, at the
        # group's first member's place in registration order.
        self.late = calls_functions(analyzed)


class _DispatchIndex:
    """The plan groups reading one stream (restricted to the queries in
    *only* when given), in registration order of their first member, and
    per event type the groups that must see it.

    ``interleaved`` says a chunk fed on the stream has to be taken one
    event at a time: a query publishing INTO the stream itself would
    feed its composites behind events already matched.
    """

    def __init__(self, stream: str, only: frozenset | None,
                 queries: list[RegisteredQuery]):
        self.entries: list[_GroupEntry] = []
        by_group: dict[int, _GroupEntry] = {}
        for rank, registered in enumerate(queries):
            if registered.input_stream != stream or \
                    (only is not None and registered.name not in only):
                continue
            entry = by_group.get(id(registered.group))
            if entry is None:
                entry = by_group[id(registered.group)] = \
                    _GroupEntry(registered)
                self.entries.append(entry)
            entry.members.append((rank, registered))
        self.interleaved = any(
            registered.output_stream == stream for registered in queries)
        self._subscribers: dict[str, tuple[_GroupEntry, ...]] = {}
        self._turns: dict[str, tuple[tuple, ...]] = {}

    def subscribers(self, event_type: str) -> tuple[_GroupEntry, ...]:
        """The groups an event of *event_type* is handed to."""
        entries = self._subscribers.get(event_type)
        if entries is None:
            entries = self._subscribers[event_type] = tuple(
                entry for entry in self.entries
                if entry.types is None or event_type in entry.types)
        return entries

    def turns(self, event_type: str) -> tuple[tuple, ...]:
        """The RETURN phase's steps for one event of *event_type* with
        nothing matched ahead: every subscribed group's members in
        registration order, each group to be matched on its first
        member's turn (see :meth:`ComplexEventProcessor._return`)."""
        turns = self._turns.get(event_type)
        if turns is None:
            turns = self._turns[event_type] = tuple(sorted(
                ((0, rank, registered, None, entry)
                 for entry in self.subscribers(event_type)
                 for rank, registered in entry.members),
                key=itemgetter(1)))
        return turns


class ComplexEventProcessor:
    """Hosts continuous queries; feed it the cleaned event stream.

    Queries compose through named streams: a query whose RETURN clause ends
    in ``INTO <stream>`` publishes its composite events there, and a query
    with ``FROM <stream>`` consumes them — the language's mechanism for
    building detection hierarchies.  Cascades are depth-limited so a
    self-feeding query fails loudly instead of looping.
    """

    DEFAULT_STREAM = "default"
    MAX_CASCADE_DEPTH = 16

    def __init__(self, registry: SchemaRegistry, functions: Any = None,
                 system: Any = None, config: PlanConfig | None = None,
                 sharding: "ShardingConfig | None" = None,
                 resilience: Any = None,
                 shared_plans: SharedPlanConfig | None = None):
        self._engine = Engine(registry, functions=functions, system=system,
                              config=config)
        self._queries: dict[str, RegisteredQuery] = {}
        # Shared-plan evaluation (off unless configured): signature ->
        # the latest (joinable) group.  Superseded groups stay alive
        # through their members only.  Not supported under sharding:
        # worker shards rebuild runtimes from specs on their own side.
        self._shared = shared_plans \
            if shared_plans is not None and shared_plans.enabled else None
        self._shared_groups: dict[tuple, PlanGroup] = {}
        # Online-lifecycle listeners: called with ("register" |
        # "deregister", registered) after the query set changes, so
        # long-lived attachments (the persistence manager's replay
        # horizon, a serving control plane) can re-derive their state.
        self._lifecycle_listeners: list[
            Callable[[str, RegisteredQuery], None]] = []
        self.metrics = MetricsCollector()
        self._sharding = sharding
        # ResilienceConfig (or None): the router reads it to arm worker
        # chaos, shard supervision, and load shedding.
        self.resilience = resilience
        self._router: Any = None
        # Type-dispatch index: per (stream, query subset), the plan groups
        # reading the stream and, per event type, which of them must see
        # it.  Built lazily, invalidated on (de)registration.
        self._dispatch_cache: dict[tuple[str, frozenset | None],
                                   _DispatchIndex] = {}
        # Observability (all opt-in; the hot path pays one None check
        # per hook when disabled).
        self._tracer: DataflowTracer | None = None
        self._slow_log: SlowFeedLog | None = None
        # Exactly-once delivery gate (the persistence manager's match
        # suppression during crash recovery).
        self._delivery_filter: Callable[[str, CompositeEvent],
                                        bool] | None = None
        # Persistence write path, fused into the feed loop so durability
        # costs one call per chunk (one None check each when off).
        self._persist_log: Callable[[list[Event]], Any] | None = None
        self._persist_post: Callable[[int], Any] | None = None
        # True while a chunk of several events is in flight:
        # registration changes are rejected (see _feed).
        self._feeding = False

    @property
    def sharding(self) -> "ShardingConfig | None":
        return self._sharding

    # -- observability --------------------------------------------------------

    @property
    def tracer(self) -> DataflowTracer | None:
        return self._tracer

    def enable_tracing(self, capacity: int = 4096) -> DataflowTracer:
        """Turn on dataflow tracing; returns the tracer.

        Under an active sharding configuration this must happen before
        the first feed: the worker specification snapshots the trace flag
        when the router starts, so shards launched untraced stay
        untraced.
        """
        if self._tracer is None:
            if self._router is not None:
                raise SaseError(
                    "enable tracing before the sharded stream starts; "
                    "worker shards snapshot the trace flag at launch")
            self._tracer = DataflowTracer(capacity)
        return self._tracer

    def attach_tracer(self, tracer: DataflowTracer) -> None:
        """Adopt an externally owned tracer (shard worker cores share one
        shipping tracer across their group processors)."""
        self._tracer = tracer

    @property
    def slow_feed_log(self) -> SlowFeedLog | None:
        return self._slow_log

    def enable_slow_feed_log(self, threshold_seconds: float,
                             capacity: int = 256) -> SlowFeedLog:
        """Log (event, query) whenever one feed call exceeds
        *threshold_seconds* of wall time."""
        self._slow_log = SlowFeedLog(threshold_seconds, capacity)
        return self._slow_log

    def enable_profiling(self) -> dict[str, ScanProfile]:
        """Turn on per-component scan counters for every registered
        query (register queries first; must precede the first event)."""
        return {name: registered.runtime.enable_profiling()
                for name, registered in self._queries.items()}

    def scan_profiles(self) -> dict[str, ScanProfile]:
        """The active per-query scan profiles (empty until enabled)."""
        profiles = {}
        for name, registered in self._queries.items():
            profile = registered.runtime.scan_profile
            if profile is not None:
                profiles[name] = profile
        return profiles

    # -- registration -------------------------------------------------------

    def register(self, name: str, query: str | CompiledQuery,
                 kind: QueryKind = QueryKind.MONITORING,
                 on_result: ResultCallback | None = None,
                 config: PlanConfig | None = None) -> RegisteredQuery:
        """Register a continuous query.  "The event processor immediately
        starts executing the query over the RFID stream ... until the query
        is deleted by the user"."""
        if self._feeding:
            raise SaseError(
                "cannot register a query while a batch feed is in flight; "
                "register between feeds")
        if name in self._queries:
            raise SaseError(f"a query named {name!r} is already registered")
        if self._router is not None:
            raise SaseError(
                "cannot register a query after the sharded stream has "
                "started; register every query before the first feed")
        compiled = query if isinstance(query, CompiledQuery) \
            else self._engine.compile(query, config)
        group = self._join_group(compiled)
        member = group.add_member(name, compiled.analyzed,
                                  functions=self._engine.functions,
                                  system=self._engine.system)
        registered = RegisteredQuery(
            name=name, kind=kind, compiled=compiled, on_result=on_result,
            group=group, member=member)
        self._queries[name] = registered
        self._dispatch_cache.clear()
        self._notify_lifecycle("register", registered)
        return registered

    def _join_group(self, compiled: CompiledQuery) -> PlanGroup:
        """The plan group a new query's RETURN clause reads: a joinable
        group with the same plan signature when sharing is on and the
        match plan is shareable, a private group of one otherwise."""
        signature = None
        if self._shared is not None and not \
                (self._sharding is not None and self._sharding.active):
            signature = plan_signature(
                compiled.analyzed, compiled.plan.config, self._shared)
        group = self._shared_groups.get(signature)
        if group is None or not group.joinable:
            # A warm group is never joined: its pipeline already holds
            # partial matches a query registered *now* must not see.
            group = PlanGroup(
                QueryRuntime(compiled.plan, self._engine.functions,
                             self._engine.system, raw_matches=True),
                signature)
            if signature is not None:
                self._shared_groups[signature] = group
        return group

    def compile(self, query: str,
                config: PlanConfig | None = None) -> CompiledQuery:
        """Compile *query* without registering it (validation, or
        compile-once-register-later flows like admission queues)."""
        return self._engine.compile(query, config)

    def register_monitoring_query(self, name: str, query: str,
                                  on_result: ResultCallback | None = None) \
            -> RegisteredQuery:
        return self.register(name, query, QueryKind.MONITORING, on_result)

    def register_archiving_rule(self, name: str,
                                query: str) -> RegisteredQuery:
        return self.register(name, query, QueryKind.ARCHIVING_RULE)

    def deregister(self, name: str) -> None:
        """Withdraw a continuous query, releasing every resource it
        holds: its runtime (partition index, window state, pending
        negations), its shared-group membership, its dispatch-index
        entries, and its metrics.  Lifecycle listeners run last so
        attachments like the persistence manager's replay horizon
        re-derive from the remaining query set."""
        if self._feeding:
            raise SaseError(
                "cannot deregister a query while a batch feed is in "
                "flight; deregister between feeds")
        if name not in self._queries:
            raise SaseError(f"no query named {name!r} is registered")
        if self._router is not None:
            raise SaseError(
                "cannot deregister a query after the sharded stream has "
                "started")
        registered = self._queries.pop(name)
        group = registered.group
        group.remove_member(name)
        if not group.members and \
                self._shared_groups.get(group.signature) is group:
            del self._shared_groups[group.signature]
        # Drop the group reference eagerly: RegisteredQuery objects can
        # outlive deregistration in caller hands, and the group's
        # pipeline is where the stream state (stacks, partitions,
        # buffered negations) lives.
        registered.group = None
        self._dispatch_cache.clear()
        self.metrics.forget(name)
        self._notify_lifecycle("deregister", registered)

    # -- online lifecycle ----------------------------------------------------

    def add_lifecycle_listener(
            self, listener: Callable[[str, RegisteredQuery], None]) -> None:
        """Call *listener(action, registered)* after every register or
        deregister ("register"/"deregister")."""
        self._lifecycle_listeners.append(listener)

    def remove_lifecycle_listener(
            self, listener: Callable[[str, RegisteredQuery], None]) -> None:
        try:
            self._lifecycle_listeners.remove(listener)
        except ValueError:
            pass

    def _notify_lifecycle(self, action: str,
                          registered: RegisteredQuery) -> None:
        for listener in list(self._lifecycle_listeners):
            listener(action, registered)

    def shared_plan_report(self) -> dict[str, Any]:
        """Shared-plan introspection: group count, member fan-out, and
        how many registered queries ride a shared pipeline."""
        shared = [registered.shared_group
                  for registered in self._queries.values()
                  if registered.shared_group is not None]
        shared_queries = len(shared)
        fanout = [len(group.members) for group in shared]
        return {
            "enabled": self._shared is not None,
            "groups": len({id(group) for group in shared}),
            "shared_queries": shared_queries,
            "independent_queries": len(self._queries) - shared_queries,
            "max_fanout": max(fanout, default=0),
        }

    def queries(self) -> list[RegisteredQuery]:
        return list(self._queries.values())

    def query(self, name: str) -> RegisteredQuery:
        try:
            return self._queries[name]
        except KeyError:
            raise SaseError(f"no query named {name!r} is registered") \
                from None

    # -- stream side ----------------------------------------------------------

    def feed(self, event: Event,
             stream: str = DEFAULT_STREAM) \
            -> list[tuple[str, CompositeEvent]]:
        """Push one event through every query reading *stream*:
        :meth:`feed_batch` on a chunk of one."""
        return self._feed([event], stream)[0]

    def feed_many(self, events: Iterable[Event]) \
            -> list[tuple[str, CompositeEvent]]:
        produced: list[tuple[str, CompositeEvent]] = []
        for event in events:
            produced.extend(self.feed(event))
        return produced

    def feed_batch(self, events: Iterable[Event],
                   stream: str = DEFAULT_STREAM) \
            -> list[tuple[str, CompositeEvent]]:
        """Push a chunk of events through every query reading *stream*,
        cascading INTO-published composite events to their consumers;
        returns the (query name, result) pairs produced, in exactly the
        order feeding the events one at a time produces them, and fires
        callbacks (after the whole chunk; a callback that registers or
        deregisters a query is rejected unless the chunk is one event).

        Under an active sharding configuration the chunk is handed to
        the shard router instead; the returned results are then the
        merged, deterministically ordered results that have become
        complete so far (asynchronous backends may emit them on a later
        feed or at flush).
        """
        return [pair for bucket in self._feed(list(events), stream)
                for pair in bucket]

    def feed_batch_grouped(self, events: list[Event],
                           stream: str = DEFAULT_STREAM) \
            -> list[list[tuple[str, CompositeEvent]]]:
        """Like :meth:`feed_batch` but returns one result list per input
        event — shard workers use this to tag results with the arrival
        number of the event that produced them.  Not available under an
        active sharding configuration (the router owns event order)."""
        if self._sharding is not None and self._sharding.active:
            raise SaseError(
                "feed_batch_grouped is for synchronous processors; "
                "the sharded path groups by seq in the router")
        return self._feed(events, stream)

    def _feed(self, events: list[Event], stream: str) \
            -> list[list[tuple[str, CompositeEvent]]]:
        """The one ingest function: write-ahead-log the chunk, run it
        (router or :meth:`_run_chunk`), deliver, checkpoint.  One result
        list per event (sharded: per routed piece of the chunk).

        The chunk runs whole unless something observable needs events
        interleaved one at a time — an attached tracer (one trace per
        event), the slow-feed log (one timing per event and query), or
        a query publishing INTO *stream* itself (see
        :class:`_DispatchIndex`) — in which case the same loop takes it
        in pieces of one."""
        if not events:
            return []
        log = self._persist_log
        if log is not None:
            log(events)   # WAL-before-processing
        tracer = self._tracer
        pieces = (events,)
        if len(events) > 1 and (
                tracer is not None or self._slow_log is not None
                or self._dispatch_index(stream, None).interleaved):
            pieces = [[event] for event in events]
        router = self._ensure_router() if self._sharding is not None \
            and self._sharding.active else None
        grouped: list[list[tuple[str, CompositeEvent]]] = []
        # Registration changes (from a result callback) are rejected
        # while a piece of several events is in flight: its match phase
        # has already run ahead of the RETURN that would make them.
        # The outer value is restored, so a callback that re-enters
        # feed() leaves the chunk it interrupted guarded.
        outer = self._feeding
        try:
            for piece in pieces:
                self._feeding = outer or len(piece) > 1
                if tracer is not None:
                    tracer.begin(piece[0], stream=stream)
                produced = [router.feed(piece, stream)] \
                    if router is not None \
                    else self._run_chunk(piece, stream)
                for bucket in produced:
                    grouped.append(self._deliver_all(bucket)
                                   if bucket else bucket)
        finally:
            self._feeding = outer
        post = self._persist_post
        if post is not None:
            released = post(len(events))   # a due checkpoint's barrier
            if released:
                grouped[-1].extend(released)
        return grouped

    def _run_chunk(self, events: list[Event], stream: str,
                   only: frozenset | None = None) \
            -> list[list[tuple[str, CompositeEvent]]]:
        """The synchronous dataflow for one chunk on *stream*
        (restricted to the queries named in *only* when given).
        Results are returned per event, not delivered.

        Match phase: each plan group reading *stream* is handed its
        slice of the chunk — the events of the types it subscribes to,
        found through the dispatch index — and its raw matches are
        collected as the RETURN phase's steps, ``(slot, rank, query,
        matches, group entry)``: one for every event slot and group
        member with matches to turn into results.  It touches nothing
        outside the groups' own pipelines.  A *late* group (its WHERE
        clause calls a function, which may read what a RETURN wrote) is
        not matched ahead: it gets a step with ``matches`` None for
        every slot it subscribes to.  In a chunk of one there is
        nothing to match ahead of, so every group takes that road and
        the steps are the event type's cached turns.

        RETURN phase: :meth:`_return` walks the steps slot by slot, in
        registration order."""
        index = self._dispatch_index(stream, only)
        if len(events) == 1:
            bucket: list[tuple[str, CompositeEvent]] = []
            self._return(index.turns(events[0].type), events[0], stream,
                         bucket, only)
            return [bucket]
        per_event: list[list[tuple[str, CompositeEvent]]] = \
            [[] for _ in events]
        work: dict[_GroupEntry, tuple[list[int], list[Event]]] = {}
        for slot, event in enumerate(events):
            for entry in index.subscribers(event.type):
                sliced = work.get(entry)
                if sliced is None:
                    sliced = work[entry] = ([], [])
                sliced[0].append(slot)
                sliced[1].append(event)
        steps: list[tuple] = []
        for entry, (slots, seen) in work.items():
            grouped = repeat(None) if entry.late \
                else self._match_group(entry, seen)
            for slot, matches in zip(slots, grouped):
                if matches is None or matches:
                    for rank, registered in entry.members:
                        steps.append((slot, rank, registered, matches,
                                      entry))
        # (slot, rank) pairs are unique, so the sort never compares the
        # objects behind them.
        steps.sort()
        for slot, entries in groupby(steps, key=itemgetter(0)):
            self._return(list(entries), events[slot], stream,
                         per_event[slot], only)
        return per_event

    def _match_group(self, entry: _GroupEntry,
                     events: list[Event]) -> list[list[Match]]:
        """One group's match step over its slice of a chunk, metered
        and (a chunk of one then) traced."""
        started = time.perf_counter()
        grouped = entry.group.pipeline.feed_batch_grouped(events)
        elapsed = time.perf_counter() - started
        share = elapsed / len(entry.members)
        tracer = self._tracer
        slow = self._slow_log
        for _, registered in entry.members:
            name = registered.name
            self.metrics.query(name).record(len(events), 0, share, None)
            if tracer is not None:
                event = events[0]
                matches = grouped[0]
                tracer.record(
                    "scan", query=name, stream=entry.stream,
                    ts=event.timestamp, duration=elapsed,
                    detail={"event_type": event.type,
                            "results": len(matches)})
                if matches:
                    tracer.record(
                        "construct", query=name, stream=entry.stream,
                        ts=event.timestamp,
                        detail={"matches": len(matches)})
            if slow is not None and elapsed >= slow.threshold:
                slow.record(name, events[0], elapsed, len(grouped[0]))
        return grouped

    def _return(self, steps: Sequence[tuple], event: Event, stream: str,
                bucket: list[tuple[str, CompositeEvent]],
                only: frozenset | None) -> None:
        """The RETURN phase for one event: walk its steps — group
        members in registration order — evaluating each member's RETURN
        clause over its group's matches, the only place the event
        database is written.  A group not matched ahead is matched on
        its first member's turn, so a WHERE clause that reads the
        database sees exactly what the RETURNs before it wrote.  Then
        cascade the composites published INTO streams, breadth first,
        each as one more event through the same walk."""
        tracer = self._tracer
        cascade: list[tuple[str, Event, int]] = []
        depth = 0
        while True:
            if tracer is not None:
                tracer.record(
                    "dispatch", stream=stream, ts=event.timestamp,
                    detail={"event_type": event.type, "depth": depth,
                            "actions": len(steps)})
            matched: dict[_GroupEntry, list[Match]] = {}
            for _, _, registered, matches, entry in steps:
                if matches is None:
                    matches = matched.get(entry)
                    if matches is None:
                        matches = matched[entry] = \
                            self._match_group(entry, [event])[0]
                    if not matches:
                        continue
                name = registered.name
                evaluate = registered.member.returns
                started = time.perf_counter()
                for match in matches:
                    result = evaluate(match)
                    bucket.append((name, result))
                    if tracer is not None:
                        tracer.record(
                            "return", query=name, stream=result.stream,
                            ts=result.end,
                            detail={"attributes": dict(result.attributes)})
                    if result.stream is not None:
                        if tracer is not None:
                            tracer.record(
                                "cascade", query=name,
                                stream=result.stream, ts=result.end,
                                detail={"depth": depth + 1})
                        cascade.append((result.stream, result.to_event(),
                                        depth + 1))
                # Freshness is the stream time of the triggering event.
                self.metrics.query(name).record(
                    0, len(matches), time.perf_counter() - started,
                    event.timestamp)
            if not cascade:
                return
            stream, event, depth = cascade.pop(0)
            if depth > self.MAX_CASCADE_DEPTH:
                raise SaseError(
                    f"query cascade exceeded {self.MAX_CASCADE_DEPTH} "
                    f"levels on stream {stream!r}; check for an "
                    f"INTO/FROM cycle")
            steps = self._dispatch_index(stream, only).turns(event.type)

    def _dispatch_index(self, stream: str,
                        only: frozenset | None) -> "_DispatchIndex":
        key = (stream, only)
        index = self._dispatch_cache.get(key)
        if index is None:
            index = self._dispatch_cache[key] = _DispatchIndex(
                stream, only, list(self._queries.values()))
        return index

    def advance_time(self, watermark: float,
                     only: frozenset | set | None = None) \
            -> list[tuple[str, CompositeEvent]]:
        """Advance stream time for every (selected) query without feeding
        an event, releasing pending trailing-negation matches.  Used by
        shard workers processing broadcast watermark ticks."""
        tracer = self._tracer
        released: dict[int, list[Match]] = {}
        produced: list[tuple[str, CompositeEvent]] = []
        for registered in self._queries.values():
            if only is not None and registered.name not in only:
                continue
            started = time.perf_counter()
            matches = released.get(id(registered.group))
            if matches is None:   # one advance per group
                matches = released[id(registered.group)] = \
                    registered.runtime.advance(watermark)
            results = [registered.member.returns(match)
                       for match in matches]
            if results:
                elapsed = time.perf_counter() - started
                self.metrics.query(registered.name).record(
                    0, len(results), elapsed, watermark)
                if tracer is not None:
                    tracer.record(
                        "advance", query=registered.name, ts=watermark,
                        duration=elapsed,
                        detail={"released": len(results)})
            for result in results:
                produced.append((registered.name, result))
                if tracer is not None:
                    tracer.record(
                        "return", query=registered.name,
                        stream=result.stream, ts=result.end,
                        detail={"attributes": dict(result.attributes)})
        return produced

    def _deliver(self, registered: RegisteredQuery,
                 result: CompositeEvent) -> None:
        registered.results_produced += 1
        if registered.on_result is not None:
            registered.on_result(registered.name, result)

    def set_delivery_filter(
            self, accept: Callable[[str, CompositeEvent],
                                   bool] | None) -> None:
        """Install a gate every emitted match must pass to be delivered
        (callbacks fired, result returned).  The persistence manager
        uses it to suppress already-durable matches during crash
        recovery, making restart exactly-once."""
        self._delivery_filter = accept

    def set_persistence_hooks(
            self, log: Callable[[list[Event]], Any] | None,
            post: Callable[[int], Any] | None) -> None:
        """Fuse the durability write path into the feed loop: *log* runs
        on every live chunk of events before it is processed (the WAL
        append), *post* runs after delivery with the chunk's event count
        and returns any matches a due checkpoint's drain barrier
        released.  The persistence manager installs these after recovery
        completes — never during replay — and removes them on close."""
        self._persist_log = log
        self._persist_post = post

    def _deliver_all(self, emitted: list[tuple[str, CompositeEvent]]) \
            -> list[tuple[str, CompositeEvent]]:
        accept = self._delivery_filter
        if accept is not None:
            emitted = [pair for pair in emitted if accept(*pair)]
        for name, result in emitted:
            self._deliver(self._queries[name], result)
        return emitted

    def drain(self) -> list[tuple[str, CompositeEvent]]:
        """Checkpoint barrier: force every in-flight sharded batch to
        completion and deliver the released results.  A no-op (empty
        list) on the synchronous runtime."""
        if self._router is None:
            return []
        return self._deliver_all(self._router.drain())

    def close(self) -> None:
        """Release runtime resources: bounded shutdown of any shard
        workers, even wedged ones.  Unlike :meth:`flush` this emits
        nothing; after closing, ``feed`` fails loudly.  Idempotent."""
        if self._router is not None:
            self._router.close()

    @property
    def degraded(self) -> bool:
        """True once any shard was lost or shed work under supervision;
        results carry ``complete=False`` from that point on."""
        return bool(self._router is not None
                    and getattr(self._router, "degraded", False))

    def flush(self) -> list[tuple[str, CompositeEvent]]:
        """End of stream: release pending trailing-negation matches.

        Queries flush in cascade order (producers before their INTO
        consumers) so composite events released at flush time still reach
        downstream queries before those flush themselves.
        """
        if self._router is not None:
            # The router stays attached after flushing: its own guard
            # makes a later feed fail loudly, matching the classic
            # runtime's "already flushed" behaviour.
            return self._deliver_all(self._router.flush())
        produced = [(name, result)
                    for name, result, _ in self._flush_queries()]
        return self._deliver_all(produced)

    def _flush_queries(self, only: frozenset | None = None) \
            -> list[tuple[str, CompositeEvent, int]]:
        """Flush every (selected) query in cascade order.

        Returns ``(name, result, trigger_rank)`` triples where
        ``trigger_rank`` is the flush-order rank of the query whose flush
        released the result (cascade results carry their trigger's rank,
        keeping them glued behind it for deterministic merging).
        Composites released INTO a stream still reach its consumers —
        restricted to *only*, since queries flushed elsewhere (on worker
        shards) must not receive them here.
        """
        produced: list[tuple[str, CompositeEvent, int]] = []
        released: dict[int, list[Match]] = {}
        for rank, registered in enumerate(self._flush_order()):
            if only is not None and registered.name not in only:
                continue
            matches = released.get(id(registered.group))
            if matches is None:   # one flush per group
                matches = released[id(registered.group)] = \
                    registered.runtime.flush()
            for match in matches:
                result = registered.member.returns(match)
                produced.append((registered.name, result, rank))
                if result.stream is not None:
                    cascaded, = self._run_chunk(
                        [result.to_event()], result.stream, only)
                    produced.extend((name, composite, rank)
                                    for name, composite in cascaded)
        return produced

    def flush_ranks(self) -> dict[str, int]:
        """Each query's global flush-order rank (producers first)."""
        return {registered.name: rank
                for rank, registered in enumerate(self._flush_order())}

    def _flush_order(self) -> list[RegisteredQuery]:
        """Producers before consumers: order queries by their stream depth
        (DEFAULT at depth 0, a query publishing INTO a stream puts that
        stream one level deeper)."""
        depth: dict[str, int] = {self.DEFAULT_STREAM: 0}
        changed = True
        iterations = 0
        while changed and iterations <= len(self._queries) + 1:
            changed = False
            iterations += 1
            for registered in self._queries.values():
                source = depth.get(registered.input_stream)
                target = registered.output_stream
                if source is not None and target is not None:
                    proposed = source + 1
                    if depth.get(target, -1) < proposed:
                        depth[target] = min(proposed,
                                            self.MAX_CASCADE_DEPTH)
                        changed = changed or \
                            depth[target] != self.MAX_CASCADE_DEPTH
        return sorted(self._queries.values(),
                      key=lambda registered: depth.get(
                          registered.input_stream, 0))

    # -- sharded execution ----------------------------------------------------

    def _ensure_router(self):
        if self._router is None:
            from repro.sharding.router import ShardRouter
            self._router = ShardRouter(self, self._sharding)
        return self._router

    @property
    def shard_plan(self):
        """The shardability plan in effect (None until sharded feeding
        starts)."""
        return self._router.plan if self._router is not None else None

    @property
    def engine_config(self) -> PlanConfig:
        return self._engine.config

    @property
    def registry(self) -> SchemaRegistry:
        return self._engine.registry
