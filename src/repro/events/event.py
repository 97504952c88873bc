"""Event instances: primitive events and composite (derived) events.

An :class:`Event` is one timestamped occurrence of a registered event type.
Timestamps are numbers in logical time units; the Time Conversion layer
(Section 3) assigns them, and by convention one unit is one second.  ``seq``
is the arrival sequence number assigned by the stream and is used to break
timestamp ties deterministically.

A :class:`CompositeEvent` is the output of the event matching block: the
paper's "stream of new composite events" produced by EVENT/WHERE/WITHIN and
shaped by RETURN.
"""

from __future__ import annotations

from typing import Any, Mapping

from repro.errors import SchemaError
from repro.events.model import EventSchema, SchemaRegistry


class Event:
    """One primitive event on a stream.

    Events are immutable after construction.  Attribute values are reachable
    both through :meth:`get` and through indexing (``event["TagId"]``).
    """

    __slots__ = ("type", "timestamp", "attributes", "seq")

    def __init__(self, type: str, timestamp: float,
                 attributes: Mapping[str, Any] | None = None,
                 seq: int = -1):
        object.__setattr__(self, "type", type)
        object.__setattr__(self, "timestamp", timestamp)
        object.__setattr__(self, "attributes",
                           dict(attributes) if attributes else {})
        object.__setattr__(self, "seq", seq)

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError("Event instances are immutable")

    @classmethod
    def _restore(cls, type: str, timestamp: float, attributes: dict,
                 seq: int) -> "Event":
        """Trusted rebuild for deserializers that already own a fresh
        ``attributes`` dict: skips the defensive copy ``__init__`` makes
        (the shard transport decodes thousands of events per second, and
        the copy is pure waste when the dict was just unmarshalled)."""
        event = object.__new__(cls)
        setter = object.__setattr__
        setter(event, "type", type)
        setter(event, "timestamp", timestamp)
        setter(event, "attributes", attributes)
        setter(event, "seq", seq)
        return event

    def __reduce__(self):
        # Immutability blocks pickle's default slot restoration (it goes
        # through setattr); rebuild through the constructor instead so
        # events can cross process boundaries (sharded execution).
        return (Event, (self.type, self.timestamp, self.attributes,
                        self.seq))

    def with_seq(self, seq: int) -> "Event":
        """Return a copy of this event carrying arrival number *seq*."""
        return Event(self.type, self.timestamp, self.attributes, seq)

    def get(self, attribute: str, default: Any = None) -> Any:
        return self.attributes.get(attribute, default)

    def __getitem__(self, attribute: str) -> Any:
        try:
            return self.attributes[attribute]
        except KeyError:
            raise SchemaError(
                f"event of type {self.type!r} has no attribute "
                f"{attribute!r}") from None

    def __contains__(self, attribute: str) -> bool:
        return attribute in self.attributes

    def matches_schema(self, schema: EventSchema) -> bool:
        """Return True when this event's payload satisfies *schema*."""
        if self.type != schema.name:
            return False
        try:
            schema.validate_payload(self.attributes)
        except SchemaError:
            return False
        return True

    def __repr__(self) -> str:
        attrs = ", ".join(f"{key}={value!r}"
                          for key, value in self.attributes.items())
        return f"Event({self.type}@{self.timestamp:g} {attrs})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Event):
            return NotImplemented
        return (self.type == other.type
                and self.timestamp == other.timestamp
                and self.attributes == other.attributes
                and self.seq == other.seq)

    def __hash__(self) -> int:
        return hash((self.type, self.timestamp, self.seq,
                     frozenset(self.attributes.items())))


class CompositeEvent:
    """An output event produced by a SASE query.

    ``attributes`` holds the values computed by the RETURN clause (or the raw
    bindings when the query has no RETURN clause).  ``bindings`` preserves
    provenance: the pattern variable to matched event(s) mapping.  The
    timestamp of a composite event is the timestamp of the last primitive
    event in the match, and ``start`` / ``end`` give the matched interval.
    """

    __slots__ = ("type", "attributes", "bindings", "start", "end", "stream",
                 "complete")

    def __init__(self, type: str, attributes: Mapping[str, Any],
                 bindings: Mapping[str, Any], start: float, end: float,
                 stream: str | None = None):
        self.type = type
        self.attributes = dict(attributes)
        self.bindings = dict(bindings)
        self.start = start
        self.end = end
        self.stream = stream
        # Completeness flag (resilience layer): False marks a match
        # emitted in degraded mode — a shard was lost, so partner events
        # may be missing.  Deliberately excluded from ``__eq__``.
        self.complete = True

    @property
    def timestamp(self) -> float:
        return self.end

    def get(self, attribute: str, default: Any = None) -> Any:
        return self.attributes.get(attribute, default)

    def __getitem__(self, attribute: str) -> Any:
        try:
            return self.attributes[attribute]
        except KeyError:
            raise SchemaError(
                f"composite event {self.type!r} has no attribute "
                f"{attribute!r}") from None

    def __contains__(self, attribute: str) -> bool:
        return attribute in self.attributes

    def to_event(self) -> Event:
        """Project this composite event to a primitive :class:`Event` so it
        can be fed into another query (query composition over streams)."""
        payload = {key: value for key, value in self.attributes.items()
                   if isinstance(value, (int, float, str, bool))}
        return Event(self.type, self.end, payload)

    def __repr__(self) -> str:
        attrs = ", ".join(f"{key}={value!r}"
                          for key, value in self.attributes.items())
        return (f"CompositeEvent({self.type}[{self.start:g},{self.end:g}] "
                f"{attrs})")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CompositeEvent):
            return NotImplemented
        return (self.type == other.type
                and self.attributes == other.attributes
                and self.bindings == other.bindings
                and self.start == other.start
                and self.end == other.end)


def event_from_record(record: Mapping[str, Any],
                      registry: SchemaRegistry) -> Event:
    """The :class:`Event` a JSON record describes (``type``,
    ``timestamp``, optional ``attributes``), its payload validated and
    coerced against the type's schema in *registry*.  Shared by ``repro
    run`` and the query service."""
    if not isinstance(record, Mapping) or "type" not in record \
            or "timestamp" not in record:
        raise SchemaError("an event needs 'type' and 'timestamp'")
    payload = registry.get(record["type"]).validate_payload(
        record.get("attributes", {}), coerce=True)
    return Event(record["type"], float(record["timestamp"]), payload)
