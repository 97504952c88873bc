"""The multi-tenant query service core (network-free).

:class:`QueryService` turns the embedded :class:`~repro.system.processor
.ComplexEventProcessor` into a long-lived, shared facility: many tenants
register and withdraw SASE queries at runtime against one event stream,
each governed by a :class:`~repro.service.quotas.TenantQuota` and the
service-wide :class:`~repro.service.quotas.AdmissionPolicy`.  Query names
are namespaced ``tenant/query`` on the underlying processor, so tenants
cannot collide and per-query metrics stay attributable.

Results are buffered per tenant in a bounded pending queue (drop-oldest
shedding, counted) and handed out by :meth:`drain` — the transport
(``repro.service.server``) pumps them to subscribers, visiting only the
tenants in :attr:`QueryService.dirty` (those with undelivered results).
Tenant-pushed events are rate-limited by a token bucket; server-side
feeds (the house stream) are not.

The registered query set is durable: every mutation rewrites a small
JSON manifest atomically (same temp-file-then-rename discipline as the
persistence layer's checkpoints), and constructing the service over an
existing manifest restores every tenant, quota, and query in the saved
order — so a restarted service resumes with the same query set it had.

This module is deliberately synchronous and transport-free so the same
core is testable without sockets and reusable under any front end.
"""

from __future__ import annotations

import json
import os
import time
from collections import deque
from typing import Any, Callable, Iterable

from repro.core.plan import PlanConfig
from repro.core.shared import SharedPlanConfig
from repro.errors import SaseError, ServiceError
from repro.events.event import CompositeEvent, Event, event_from_record
from repro.events.model import SchemaRegistry
from repro.service.quotas import AdmissionPolicy, TenantQuota, TokenBucket
from repro.system.processor import ComplexEventProcessor

MANIFEST_VERSION = 1


def _wire_value(value: Any) -> Any:
    if value is None or isinstance(value, (int, float, str, bool)):
        return value
    if isinstance(value, (list, tuple)):
        return [_wire_value(item) for item in value]
    return repr(value)


def result_to_wire(tenant: str, query: str,
                   result: CompositeEvent) -> dict:
    """The JSON-safe form of one composite event for one tenant."""
    return {"tenant": tenant, "query": query, "type": result.type,
            "start": result.start, "end": result.end,
            "complete": result.complete,
            "attributes": {key: _wire_value(value)
                           for key, value in result.attributes.items()}}


class TenantState:
    """Everything the service tracks for one tenant."""

    def __init__(self, name: str, quota: TenantQuota):
        self.name = name
        self.quota = quota
        self.bucket = TokenBucket(quota.max_events_per_second)
        self.queries: dict[str, str] = {}      # query name -> query text
        self.pending: deque[dict] = deque()    # undelivered wire results
        self.queued: int = 0                   # registrations waiting
        self.admitted_total = 0
        self.rejected_total = 0
        self.results_total = 0
        self.delivered_total = 0
        self.shed_total = 0
        self.events_submitted = 0
        self.events_throttled = 0

    def set_quota(self, quota: TenantQuota) -> None:
        self.quota = quota
        self.bucket = TokenBucket(quota.max_events_per_second)

    def push_result(self, result: dict) -> None:
        self.results_total += 1
        limit = self.quota.max_pending_results
        while limit > 0 and len(self.pending) >= limit:
            self.pending.popleft()
            self.shed_total += 1
        self.pending.append(result)

    def gauges(self) -> dict:
        return {
            "registered_queries": len(self.queries),
            "queued_registrations": self.queued,
            "admitted_registrations_total": self.admitted_total,
            "rejected_registrations_total": self.rejected_total,
            "results_total": self.results_total,
            "results_delivered_total": self.delivered_total,
            "results_shed_total": self.shed_total,
            "pending_results": len(self.pending),
            "events_submitted_total": self.events_submitted,
            "events_throttled_total": self.events_throttled,
        }


class QueryService:
    """The multi-tenant control plane over one embedded processor.

    ``shared_plans`` defaults to on — the whole point of co-locating
    tenants is that their overlapping templates share match pipelines —
    but can be disabled (or tuned) per deployment.  ``clock`` is the
    monotonic clock the rate limiter reads; tests inject a fake.
    """

    def __init__(self, registry: SchemaRegistry,
                 policy: AdmissionPolicy | None = None,
                 default_quota: TenantQuota | None = None,
                 shared_plans: SharedPlanConfig | None = None,
                 plan_config: PlanConfig | None = None,
                 functions: Any = None, system: Any = None,
                 manifest_path: str | None = None,
                 clock: Callable[[], float] = time.monotonic):
        self.policy = policy or AdmissionPolicy()
        self.default_quota = default_quota or TenantQuota()
        if shared_plans is None:
            shared_plans = SharedPlanConfig()
        self.processor = ComplexEventProcessor(
            registry, functions=functions, system=system,
            config=plan_config, shared_plans=shared_plans)
        self._tenants: dict[str, TenantState] = {}
        # Tenants with undelivered results, in the order they got them
        # (a dict as an insertion-ordered set).
        self.dirty: dict[str, None] = {}
        # FIFO of (tenant, query name, query text) waiting for service
        # capacity; admitted in order as withdrawals free slots.
        self._admission_queue: deque[tuple[str, str, str]] = deque()
        self._clock = clock
        self._manifest_path = manifest_path
        self._loading = False
        self.events_fed = 0
        if manifest_path and os.path.exists(manifest_path):
            self._load_manifest(manifest_path)

    # -- tenants -------------------------------------------------------------

    def tenant(self, name: str) -> TenantState:
        try:
            return self._tenants[name]
        except KeyError:
            raise ServiceError(f"unknown tenant {name!r}") from None

    def tenants(self) -> list[str]:
        return sorted(self._tenants)

    def ensure_tenant(self, name: str,
                      quota: TenantQuota | None = None) -> TenantState:
        """Create (or fetch) a tenant; a quota given for an existing
        tenant replaces its current one."""
        state = self._tenants.get(name)
        if state is None:
            if len(self._tenants) >= self.policy.max_tenants:
                raise ServiceError(
                    f"tenant limit reached "
                    f"({self.policy.max_tenants}); cannot admit {name!r}")
            state = TenantState(name, quota or self.default_quota)
            self._tenants[name] = state
            self._save_manifest()
        elif quota is not None:
            state.set_quota(quota)
            self._save_manifest()
        return state

    def drop_tenant(self, name: str) -> int:
        """Withdraw every query the tenant holds and forget it.
        Returns the number of queries withdrawn."""
        state = self.tenant(name)
        withdrawn = 0
        for query_name in list(state.queries):
            self.withdraw(name, query_name)
            withdrawn += 1
        self._admission_queue = deque(
            item for item in self._admission_queue if item[0] != name)
        del self._tenants[name]
        self.dirty.pop(name, None)
        self._save_manifest()
        return withdrawn

    # -- query lifecycle ------------------------------------------------------

    @property
    def total_queries(self) -> int:
        return sum(len(state.queries) for state in self._tenants.values())

    def register(self, tenant: str, name: str, query: str,
                 quota: TenantQuota | None = None) -> dict:
        """Register *query* for *tenant* under *name*.

        Returns ``{"status": "registered"}`` on immediate admission or
        ``{"status": "queued", "position": N}`` when the service-wide
        query cap defers it; raises :class:`ServiceError` when the
        tenant's own quota (or the admission queue) rejects it.
        """
        state = self.ensure_tenant(tenant, quota)
        if name in state.queries:
            state.rejected_total += 1
            raise ServiceError(
                f"tenant {tenant!r} already has a query named {name!r}")
        held = len(state.queries) + state.queued
        if held >= state.quota.max_queries:
            state.rejected_total += 1
            raise ServiceError(
                f"tenant {tenant!r} is at its query quota "
                f"({state.quota.max_queries})")
        if self.total_queries >= self.policy.max_total_queries:
            if len(self._admission_queue) >= self.policy.queue_limit:
                state.rejected_total += 1
                raise ServiceError(
                    "service is at capacity and the admission queue is "
                    "full; retry later")
            # Validate now so a queued registration cannot fail later
            # for the tenant's own mistake.
            self.processor.compile(query)
            self._admission_queue.append((tenant, name, query))
            state.queued += 1
            return {"status": "queued",
                    "position": len(self._admission_queue)}
        self._activate(state, name, query)
        state.admitted_total += 1
        self._save_manifest()
        return {"status": "registered"}

    def _activate(self, state: TenantState, name: str,
                  query: str) -> None:
        tenant = state.name
        try:
            self.processor.register(
                f"{tenant}/{name}", query,
                on_result=lambda _qualified, result, _t=tenant, _n=name:
                    self._push(_t, result_to_wire(_t, _n, result)))
        except ServiceError:
            raise
        except SaseError:
            state.rejected_total += 1
            raise
        state.queries[name] = query

    def _push(self, tenant: str, result: dict) -> None:
        self._tenants[tenant].push_result(result)
        self.dirty[tenant] = None

    def withdraw(self, tenant: str, name: str) -> None:
        """Withdraw one query, releasing every resource it held, then
        admit queued registrations into the freed capacity."""
        state = self.tenant(tenant)
        if name not in state.queries:
            raise ServiceError(
                f"tenant {tenant!r} has no query named {name!r}")
        self.processor.deregister(f"{tenant}/{name}")
        del state.queries[name]
        self._admit_queued()
        self._save_manifest()

    def _admit_queued(self) -> None:
        while self._admission_queue and \
                self.total_queries < self.policy.max_total_queries:
            tenant, name, query = self._admission_queue.popleft()
            state = self._tenants.get(tenant)
            if state is None:
                continue
            state.queued -= 1
            self._activate(state, name, query)
            state.admitted_total += 1

    def queries(self, tenant: str) -> dict[str, str]:
        return dict(self.tenant(tenant).queries)

    # -- stream side ----------------------------------------------------------

    def feed(self, event: Event,
             stream: str = ComplexEventProcessor.DEFAULT_STREAM) -> int:
        """Feed one house-stream event through every tenant's queries;
        returns how many results it produced (they land in the owning
        tenants' pending queues)."""
        self.events_fed += 1
        return len(self.processor.feed(event, stream))

    def feed_record(self, tenant: str, record: dict,
                    stream: str = ComplexEventProcessor.DEFAULT_STREAM) \
            -> int:
        """Feed one tenant-pushed event (wire form: ``type``,
        ``timestamp``, ``attributes``), charged against the tenant's
        rate limit: :meth:`feed_records` on a run of one."""
        outcome, = self.feed_records([(tenant, record)], stream)
        if isinstance(outcome, Exception):
            raise outcome
        return outcome

    def feed_records(self, records: list[tuple[str, dict]],
                     stream: str = ComplexEventProcessor.DEFAULT_STREAM) \
            -> list[int | Exception]:
        """Feed a run of tenant-pushed ``(tenant, record)`` events as one
        chunk.  Each record is rate-limited and validated in order; the
        valid events then go through the processor together, giving
        every tenant exactly what one :meth:`feed_record` per record
        gives.  Returns, per record, how many results its event produced
        or the exception that refused it.  An exception raised while the
        chunk runs propagates: the run fails as a unit and none of its
        results are delivered."""
        outcomes: list[int | Exception | None] = []
        events: list[Event] = []
        for tenant, record in records:
            try:
                state = self.tenant(tenant)
                if not state.bucket.try_acquire(self._clock()):
                    state.events_throttled += 1
                    raise ServiceError(
                        f"tenant {tenant!r} exceeded its event rate "
                        f"({state.quota.max_events_per_second}/s)")
                events.append(
                    event_from_record(record, self.processor.registry))
                state.events_submitted += 1
                outcomes.append(None)
            except Exception as exc:   # noqa: BLE001 - answered per record
                outcomes.append(exc)
        self.events_fed += len(events)
        counts = map(len, self.processor.feed_batch_grouped(events, stream))
        return [next(counts) if outcome is None else outcome
                for outcome in outcomes]

    def flush(self) -> int:
        """End of stream: release pending trailing-negation matches into
        the tenants' pending queues."""
        return len(self.processor.flush())

    def drain(self, tenant: str, limit: int = 0) -> list[dict]:
        """Pop up to *limit* (0 = all) undelivered results for *tenant*
        in production order."""
        state = self.tenant(tenant)
        count = len(state.pending) if limit <= 0 \
            else min(limit, len(state.pending))
        drained = [state.pending.popleft() for _ in range(count)]
        state.delivered_total += len(drained)
        if not state.pending:
            self.dirty.pop(tenant, None)
        return drained

    # -- introspection --------------------------------------------------------

    def tenant_gauges(self) -> dict[str, dict]:
        """Per-tenant service gauges, keyed by tenant name (the
        ``tenants`` section of a metrics snapshot)."""
        return {name: state.gauges()
                for name, state in sorted(self._tenants.items())}

    def stats(self) -> dict:
        """Service-wide status: capacity, tenancy, and plan sharing."""
        return {
            "tenants": len(self._tenants),
            "queries": self.total_queries,
            "queued_registrations": len(self._admission_queue),
            "max_total_queries": self.policy.max_total_queries,
            "events_fed": self.events_fed,
            "shared_plans": self.processor.shared_plan_report(),
        }

    # -- durability -----------------------------------------------------------

    def manifest(self) -> dict:
        """The durable query set: every tenant, its quota, and its
        registered queries (text), in registration order."""
        return {"version": MANIFEST_VERSION, "tenants": {
            name: {"quota": state.quota.to_dict(),
                   "queries": dict(state.queries)}
            for name, state in self._tenants.items()}}

    def _save_manifest(self) -> None:
        if self._manifest_path is None or self._loading:
            return
        rendered = json.dumps(self.manifest(), indent=2, sort_keys=True)
        temp_path = self._manifest_path + ".tmp"
        with open(temp_path, "w", encoding="utf-8") as handle:
            handle.write(rendered)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temp_path, self._manifest_path)

    def _load_manifest(self, path: str) -> None:
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
        if not isinstance(data, dict) or \
                data.get("version") != MANIFEST_VERSION:
            raise ServiceError(
                f"{path}: not a version-{MANIFEST_VERSION} service "
                f"manifest")
        self._loading = True
        try:
            for tenant, entry in data.get("tenants", {}).items():
                quota = TenantQuota.from_dict(entry.get("quota", {}))
                self.ensure_tenant(tenant, quota)
                for name, query in entry.get("queries", {}).items():
                    self.register(tenant, name, query)
        finally:
            self._loading = False

    # -- convenience ----------------------------------------------------------

    def feed_many(self, events: Iterable[Event]) -> int:
        """Feed house-stream events to the processor as one chunk (each
        tenant receives exactly what one :meth:`feed` per event gives)."""
        events = list(events)
        self.events_fed += len(events)
        return len(self.processor.feed_batch(events))
