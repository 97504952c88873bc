"""Event model: attributes, schemas, events, and timestamped streams.

This package provides the data model that every other layer builds on.  An
:class:`~repro.events.model.EventSchema` declares the typed attributes of one
event type; a :class:`~repro.events.model.SchemaRegistry` holds the schemas a
query is compiled against; an :class:`~repro.events.event.Event` is one
timestamped occurrence; and :class:`~repro.events.stream.EventStream` wraps an
iterable of events with ordering validation and arrival sequencing.
"""

from repro.events.event import CompositeEvent, Event, event_from_record
from repro.events.model import (
    AttributeSpec,
    AttributeType,
    EventSchema,
    SchemaRegistry,
)
from repro.events.stream import EventStream, merge_streams

__all__ = [
    "AttributeSpec",
    "AttributeType",
    "CompositeEvent",
    "Event",
    "EventSchema",
    "EventStream",
    "SchemaRegistry",
    "event_from_record",
    "merge_streams",
]
