"""The persistence manager: WAL + checkpoints + exactly-once recovery.

Durability model
----------------

The manager write-ahead-logs every *cleaned* event before the processor
sees it and appends every *delivered* match to a second framed log
(``matches.out``).  Because the whole pipeline downstream of cleaning is
deterministic — including the sharded runtime, whose merge emits results
in one canonical total order regardless of backend or timing — the out
log's record index is a global match ordinal.  Exactly-once restart is
then ordinal suppression: recovery replays WAL events through *fresh*
query engines and drops the first ``N`` regenerated matches, where ``N``
is the number of intact records already in the out log.

Engine state (scan stacks, possibly code-generated closures) is never
serialized.  A checkpoint instead records the WAL position ``L`` it
covers, the match ordinal at ``L``, an atomic event-database snapshot,
and a *replay horizon*: the oldest LSN still inside the largest stateful
query window.  Recovery feeds ``[horizon, L)`` with all output
suppressed and database writes going to a scratch database (the real
database state at ``L`` comes from the snapshot), swaps the snapshot in
at ``L``, and replays the tail with ordinal suppression.  Engine state
is continuous across the swap, so matches spanning the checkpoint
boundary re-form exactly.

Before each checkpoint the manager drains the sharded router (a barrier
that forces every in-flight batch to completion), which makes "matches
delivered so far" equal "matches for events below ``L``" even on the
asynchronous thread/process backends.

After recovery the event source is re-read from the beginning (the
scenario generators are seeded and cleaning is deterministic);
``should_skip`` swallows the first ``next_lsn`` cleaned events so the
live stream continues precisely where the WAL ends.
"""

from __future__ import annotations

import operator
import os
import signal
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any

from repro.db.eventdb import EventDatabase
from repro.errors import PersistenceError
from repro.events.event import CompositeEvent, Event
from repro.obs.export import collector_snapshot
from repro.persist.checkpoint import CHECKPOINT_VERSION, CheckpointStore
from repro.persist.config import PersistenceConfig
from repro.persist.records import RecordWriter, encode_match, \
    event_from_item, scan_records, truncate_file
from repro.persist.wal import WriteAheadLog

OUT_LOG = "matches.out"


@dataclass
class RecoveryReport:
    """What one :meth:`PersistenceManager.recover` call did."""

    checkpoint_lsn: int | None
    replayed_events: int
    scratch_events: int
    durable_matches: int
    recovered_matches: list[tuple[str, CompositeEvent]] = \
        field(default_factory=list)
    suppressed_matches: list[tuple[str, CompositeEvent]] = \
        field(default_factory=list)
    elapsed_seconds: float = 0.0


class PersistenceManager:
    """Owns one data directory's WAL, out log, and checkpoints.

    *host* is duck-typed (``SaseSystem`` implements it; the benchmarks
    use a bare stand-in): it must expose ``processor``, an ``event_db``
    attribute, ``adopt_event_db(db)``, and ``scratch_event_db()``; it
    may expose ``on_replayed_event(event)`` to observe replays.
    """

    def __init__(self, config: PersistenceConfig, host: Any,
                 injector=None):
        self.config = config
        self._host = host
        # Optional FaultInjector for the ``wal.write``/``wal.fsync``/
        # ``db.dump`` chaos sites; threaded into the WAL and the
        # checkpoint store, which retry transient OSErrors when armed.
        self._injector = injector
        self._processor = host.processor
        self._wal: WriteAheadLog | None = None
        self._out: RecordWriter | None = None
        self._store: CheckpointStore | None = None
        self._opened = False
        self._finalized = False
        self._live = False   # opened and not finalized: one flag for
        #                      the hot path's guard
        self._crash_at = config.crash_after
        self._cadence = config.checkpoint_every or float("inf")
        # Exactly-once bookkeeping.
        self._ordinal = 0          # matches seen in canonical order
        self._durable = 0          # intact records in the out log
        self._suppress_all = False
        self._collect: tuple[list, list] | None = None
        self._skip_remaining = 0
        # Replay-horizon bookkeeping.
        self._frontier: deque[tuple[int, float]] = deque()
        self._max_ts = float("-inf")
        self._max_window: float | None = 0.0
        self._stateful = False
        # Counters surfaced through gauges().
        self._events_since_ckpt = 0
        self.out_records = 0
        self.replayed_events = 0
        self.suppressed_matches = 0
        self.redelivered_matches = 0
        self.skipped_events = 0
        self.checkpoints_written = 0
        self.last_checkpoint_lsn: int | None = None
        self.last_checkpoint_seconds = 0.0

    # -- recovery -------------------------------------------------------------

    def recover(self) -> RecoveryReport:
        """Open the data directory, restore the latest valid checkpoint,
        and replay the WAL with output suppression.  Must run exactly
        once, after query registration and before the first live event.
        """
        if self._opened:
            raise PersistenceError("recover() may only run once")
        started = time.perf_counter()
        directory = self.config.data_dir
        self._store = CheckpointStore(directory,
                                      injector=self._injector)
        self._wal = WriteAheadLog(
            directory, self.config.fsync, self.config.segment_max_bytes,
            group_items=self.config.group_items,
            linger_seconds=self.config.linger_ms / 1000.0,
            injector=self._injector)
        out_path = os.path.join(directory, OUT_LOG)
        durable_payloads, valid_end, size = scan_records(out_path)
        if valid_end < size:
            truncate_file(out_path, valid_end)
        self._durable = len(durable_payloads)
        self.out_records = self._durable
        self._out = RecordWriter(out_path, self.config.fsync)
        self._processor.set_delivery_filter(self._on_delivery)
        self._opened = True
        self._live = True
        self._analyze_queries()
        # Online query lifecycle: a register/deregister changes the
        # largest stateful window, and with it the WAL replay horizon —
        # without re-analysis a withdrawn long-window query would pin
        # WAL segments (and replay work) forever.
        self._processor.add_lifecycle_listener(self._on_lifecycle)

        report = RecoveryReport(checkpoint_lsn=None, replayed_events=0,
                                scratch_events=0,
                                durable_matches=self._durable)
        self._collect = (report.recovered_matches,
                         report.suppressed_matches)
        checkpoint = self._store.latest()
        tail_start = 0
        if checkpoint is not None:
            report.checkpoint_lsn = checkpoint["wal_lsn"]
            tail_start = checkpoint["wal_lsn"]
            report.scratch_events = self._replay_scratch(checkpoint)
            self._host.adopt_event_db(
                EventDatabase.from_snapshot(checkpoint["db"]))
            self._ordinal = checkpoint["emitted"]
            if self._durable < self._ordinal:
                # The out log lost a suffix the checkpoint had covered
                # (it is synced before every checkpoint, so this means
                # external tampering); deliver rather than suppress.
                self._durable = self._ordinal
            stream_time = checkpoint.get("stream_time")
            if stream_time is not None:
                self._max_ts = stream_time
        report.replayed_events = self._replay(tail_start)
        if self._max_window is not None and not self._frontier:
            # No sampled LSN yet (fresh directory or short tail): pin
            # the horizon at the WAL end, which is exact right now and
            # only ever conservative afterwards.
            self._frontier.append((self._wal.next_lsn, self._max_ts))
        self._collect = None
        self.replayed_events = \
            report.scratch_events + report.replayed_events
        self._skip_remaining = self._wal.next_lsn
        self._events_since_ckpt = 0
        self._install_hot_path()
        report.elapsed_seconds = time.perf_counter() - started
        tracer = self._processor.tracer
        if tracer is not None:
            tracer.record(
                "replay", ts=0.0 if self._max_ts == float("-inf")
                else self._max_ts,
                duration=report.elapsed_seconds,
                detail={"events": self.replayed_events,
                        "checkpoint_lsn": report.checkpoint_lsn,
                        "suppressed": len(report.suppressed_matches)},
                trace_id=-1)
        return report

    def _replay_scratch(self, checkpoint: dict) -> int:
        """Warm the engines over ``[replay_lsn, wal_lsn)`` against a
        scratch database, with every match suppressed."""
        replay_from = checkpoint["replay_lsn"]
        boundary = checkpoint["wal_lsn"]
        if replay_from >= boundary:
            return 0
        self._host.adopt_event_db(self._host.scratch_event_db())
        self._suppress_all = True
        try:
            return self._replay(replay_from, boundary)
        finally:
            self._suppress_all = False

    def _replay(self, start: int, stop: int | None = None) -> int:
        """Feed the WAL records ``[start, stop)`` (to the end of the log
        when *stop* is None) back through the processor, one event at a
        time; returns how many there were."""
        observe = getattr(self._host, "on_replayed_event", None)
        feed = self._processor.feed
        count = 0
        for lsn, item in self._wal.replay(start):
            if stop is not None and lsn >= stop:
                break
            event = event_from_item(item)
            if not lsn & 7:
                self._track(lsn, event.timestamp)
            if observe is not None:
                observe(event)
            feed(event)
            count += 1
        return count

    def _analyze_queries(self) -> None:
        """Derive the replay horizon window from the registered queries:
        the largest WITHIN of any *stateful* query (more than one
        positive component, negation, or Kleene closure).  ``None``
        means unbounded — every WAL record stays replayable.  Cascades
        (INTO/FROM) chain windows, so their bound is the sum."""
        windows: list[float | None] = []
        cascaded = False
        for registered in self._processor.queries():
            analyzed = registered.compiled.analyzed
            if registered.output_stream is not None:
                cascaded = True
            positives = sum(1 for component in analyzed.components
                            if not component.negated)
            if positives > 1 or analyzed.has_negation or \
                    analyzed.has_kleene:
                windows.append(analyzed.window)
        self._stateful = bool(windows)
        if not windows:
            self._max_window = 0.0
        elif any(window is None for window in windows):
            self._max_window = None
        elif cascaded:
            self._max_window = sum(windows)
        else:
            self._max_window = max(windows)

    def _on_lifecycle(self, action: str, registered: Any) -> None:
        """Re-derive the replay horizon from the live query set.  A
        shrinking window advances the horizon on the next sampled track;
        a vanished frontier (window now 0/bounded where it was unbounded)
        re-pins at the current WAL end."""
        previous = self._max_window
        self._analyze_queries()
        if self._max_window == previous:
            return
        if self._max_window is not None:
            if previous is None and not self._frontier:
                self._frontier.append((self._wal.next_lsn, self._max_ts))
            # Prune immediately under the new (smaller or now-bounded)
            # window so the next checkpoint's replay_lsn reflects it.
            cutoff = self._max_ts - self._max_window
            frontier = self._frontier
            while len(frontier) > 1 and frontier[1][1] < cutoff:
                frontier.popleft()

    # -- the live write path --------------------------------------------------

    def should_skip(self, event: Event) -> bool:
        """True while the re-read source is still inside the replayed
        prefix (those events are already in the WAL and already fed)."""
        if self._skip_remaining > 0:
            self._skip_remaining -= 1
            self.skipped_events += 1
            return True
        return False

    def _install_hot_path(self) -> None:
        """Fuse the WAL append into the processor's feed loop (see
        ``set_persistence_hooks``).  Installed only once recovery has
        finished, so replayed events are never re-logged; removed on
        close so nothing appends to a closed log.

        The normal hook is the WAL's event-mode append — for
        ``every_n`` literally ``deque.extend`` on the fed chunk, with
        encoding, the write, the fsync, and horizon tracking all on the
        group-commit thread.  Fault injection (``crash_after``) needs
        the disk state at the crash point to be exactly reproducible, so
        it takes the synchronous generic path instead and checks the LSN
        per event.
        """
        track = self._track
        crash_at = self._crash_at
        if crash_at is None:
            # attrgetter + map keep the batch extraction in C — it runs
            # with the GIL held, so every instruction it saves comes
            # straight off the feed path even with the writer on its
            # own core.
            fields = operator.attrgetter("type", "timestamp",
                                         "attributes", "seq")

            def extract(events: list) -> list:
                return list(map(fields, events))

            def on_seal(lsn: int, event: Event) -> None:
                track(lsn, event.timestamp)

            hook = self._wal.start_event_mode(extract, on_seal)
        else:
            append = self._wal.append

            def hook(events: list[Event]) -> None:
                for event in events:
                    lsn = append((event.type, event.timestamp,
                                  event.attributes, event.seq))
                    if not lsn & 7:   # horizon tracking is sampled
                        track(lsn, event.timestamp)
                    if lsn + 1 >= crash_at:
                        self._hard_crash()

        # With checkpoints disabled the cadence never fires; skip the
        # per-chunk callback entirely rather than count toward nothing.
        post = self.after_feed if self._cadence != float("inf") else None
        self._processor.set_persistence_hooks(hook, post)

    def require_live(self) -> None:
        """Raise unless the manager is between ``recover()`` and
        ``close()`` — the host's per-batch guard for the fused write
        path."""
        if self._live:
            return
        if self._finalized:
            raise PersistenceError("persistence already finalized")
        raise PersistenceError(
            "persistence is enabled but recover() has not run; "
            "call recover() after registering queries and before "
            "the first event")

    def after_feed(self, events: int) \
            -> tuple | list[tuple[str, CompositeEvent]]:
        """Bookkeeping after one live chunk of *events* events has been
        fed and delivered: trigger a periodic checkpoint when due (so
        checkpoints land on chunk boundaries); returns any matches its
        drain barrier forced out (they are part of the stream's
        results)."""
        count = self._events_since_ckpt + events
        self._events_since_ckpt = count
        if count < self._cadence:
            return ()
        return self.checkpoint()

    def _on_delivery(self, name: str, result: CompositeEvent) -> bool:
        if self._suppress_all:
            self.suppressed_matches += 1
            if self._collect is not None:
                self._collect[0].append((name, result))
                self._collect[1].append((name, result))
            return False
        ordinal = self._ordinal
        self._ordinal += 1
        if ordinal < self._durable:
            if self._collect is not None:
                # Replay: already durable AND already delivered by the
                # crashed incarnation — report it, do not re-deliver.
                self.suppressed_matches += 1
                self._collect[0].append((name, result))
                self._collect[1].append((name, result))
                return False
            # Live re-feed of the WAL's lost tail (the group-commit
            # window a crash can drop): the match is already in the out
            # log, but *this* incarnation has never delivered it.  Skip
            # the duplicate append, deliver the match.
            self.redelivered_matches += 1
            return True
        self._out.append(encode_match(name, result))
        self.out_records += 1
        if self._collect is not None:
            self._collect[0].append((name, result))
        return True

    def _track(self, lsn: int, timestamp: float) -> None:
        # Sampled: once per sealed group on the live path (possibly on
        # the WAL writer thread — checkpoint reads happen behind its
        # drain barrier), every 8th LSN during replay.  The horizon
        # needs a *lower* bound, not an exact frontier, and pruning
        # keeps the last entry below the cutoff, so the bound stays
        # conservative by at most one sample gap.
        if timestamp > self._max_ts:
            self._max_ts = timestamp
        if self._max_window is None:
            return  # unbounded window: the horizon is pinned at 0
        frontier = self._frontier
        frontier.append((lsn, timestamp))
        cutoff = self._max_ts - self._max_window
        while len(frontier) > 1 and frontier[1][1] < cutoff:
            frontier.popleft()

    def _replay_horizon(self) -> int:
        if self._max_window is None:
            return 0
        if not self._stateful or not self._frontier:
            return self._wal.next_lsn
        return self._frontier[0][0]

    def sync(self) -> None:
        """Durability barrier without a checkpoint: drain the WAL's
        group-commit writer and fsync both logs.  After it returns,
        every appended event and every delivered match is on stable
        storage."""
        if not self._opened:
            raise PersistenceError("recover() must run before sync()")
        self._wal.sync()
        self._out.sync()

    # -- checkpoints ----------------------------------------------------------

    def checkpoint(self) -> list[tuple[str, CompositeEvent]]:
        """Drain in-flight work, sync both logs, and write one atomic
        checkpoint; returns the matches the drain barrier released."""
        if not self._opened:
            raise PersistenceError("recover() must run before "
                                   "checkpoint()")
        started = time.perf_counter()
        drained = self._processor.drain()
        self._wal.sync()
        self._out.sync()
        snapshot = {
            "version": CHECKPOINT_VERSION,
            "wal_lsn": self._wal.next_lsn,
            "emitted": self._ordinal,
            "replay_lsn": self._replay_horizon(),
            "stream_time": None if self._max_ts == float("-inf")
            else self._max_ts,
            "db": self._host.event_db.to_snapshot(),
            "metrics": collector_snapshot(self._processor.metrics),
        }
        self._store.write(snapshot)
        self._store.gc(self.config.keep_checkpoints)
        horizons = self._store.horizons()
        if horizons:
            self._wal.gc(min(replay for _, replay in horizons))
        self.checkpoints_written += 1
        self.last_checkpoint_lsn = snapshot["wal_lsn"]
        self.last_checkpoint_seconds = time.perf_counter() - started
        self._events_since_ckpt = 0
        tracer = self._processor.tracer
        if tracer is not None:
            tracer.record(
                "checkpoint", ts=snapshot["stream_time"] or 0.0,
                duration=self.last_checkpoint_seconds,
                detail={"wal_lsn": snapshot["wal_lsn"],
                        "emitted": snapshot["emitted"],
                        "replay_lsn": snapshot["replay_lsn"]},
                trace_id=-1)
        return drained

    def finalize(self) -> list[tuple[str, CompositeEvent]]:
        """End of stream: write a final checkpoint and close the logs."""
        if not self._opened or self._finalized:
            return []
        drained = self.checkpoint()
        self.close()
        return drained

    def close(self) -> None:
        """Sync and close the logs without checkpointing."""
        if not self._opened or self._finalized:
            return
        self._finalized = True
        self._live = False
        self._processor.remove_lifecycle_listener(self._on_lifecycle)
        self._processor.set_persistence_hooks(None, None)
        self._out.close()
        self._wal.close()

    # -- fault injection -------------------------------------------------------

    def _hard_crash(self) -> None:  # pragma: no cover - kills the process
        # The differential crash tests spawn the demo with
        # start_new_session=True, making it a process-group leader;
        # killing the whole group takes daemonized shard workers down
        # with it, exactly like an external kill -9 of the group.
        if hasattr(os, "killpg") and os.getpid() == os.getpgrp():
            os.killpg(os.getpgrp(), signal.SIGKILL)
        os.kill(os.getpid(), signal.SIGKILL)

    # -- introspection --------------------------------------------------------

    def gauges(self) -> dict[str, Any]:
        """WAL/checkpoint gauges for the metrics exporter."""
        if not self._opened:
            return {"opened": 0}
        return {
            "opened": 1,
            "wal_records": self._wal.next_lsn,
            "wal_oldest_lsn": self._wal.oldest_lsn,
            "wal_segments": self._wal.segment_count,
            "wal_bytes": self._wal.total_bytes,
            "wal_fsyncs": self._wal.fsyncs,
            "wal_queue_depth": self._wal.queue_depth,
            "wal_truncated_bytes": self._wal.truncated_bytes,
            "out_records": self.out_records,
            "checkpoints_written": self.checkpoints_written,
            "last_checkpoint_lsn": self.last_checkpoint_lsn,
            "last_checkpoint_seconds": self.last_checkpoint_seconds,
            "replayed_events": self.replayed_events,
            "suppressed_matches": self.suppressed_matches,
            "redelivered_matches": self.redelivered_matches,
            "skipped_events": self.skipped_events,
        }
