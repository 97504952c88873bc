"""The segmented, group-committed write-ahead log of cleaned events.

The log stores *items* (any ``marshal``-serializable value; the manager
uses compact event tuples).  Appends go to an in-memory group first;
when the group fills — every append, for ``fsync=always`` — it is
sealed into **one** framed record (length + CRC32 header, ``marshal``
payload of the item list).  Group framing is what makes the write path
cheap: encoding, checksumming, and the write are amortized across the
group.

Two write paths share that format:

* The **generic path** (:meth:`append`) is fully synchronous: groups
  are encoded and written in the foreground, and ``every_n`` fsyncs
  inline once per ``interval`` items (rounded to a group boundary).
  Deterministic and simple — it serves the unit tests and the
  fault-injection hot path, where the disk state at a crash point must
  be exactly reproducible.

* The **event path** (:meth:`start_event_mode`) is the live hot path.
  The returned hook *is* ``deque.extend`` — one C call per fed chunk, no
  Python frame — and a background group-commit thread lingers a few
  milliseconds, drains whatever queued, and writes it as
  ``group_items``-sized frames, fsyncing per the policy interval.  The
  fsync is pure I/O wait, so even on one core it overlaps with the
  processor's compute instead of stalling it.  Because ``never`` and
  ``always`` promise synchronous foreground semantics (tests abandon a
  log mid-run and reopen it in the same process), only ``every_n``
  runs the background thread; the others seal in the foreground.

A process kill can lose at most the queued-but-unwritten suffix plus
the not-yet-fsynced page cache — always a *suffix* of the append
order; recovery reconciles it by re-reading the deterministic source
past the WAL end.

Segment files are named for their first LSN (``00000042.wal``) and
rotate past a byte budget.  LSNs are dense — item *n* of the log has
LSN *n* — so a count of items is also the next LSN.  Opening the log
re-scans the segments, verifies the names form one contiguous LSN
range, and truncates a torn tail (a crash mid-write) off the last
segment.  Segments wholly below a checkpoint's replay horizon can be
garbage-collected.
"""

from __future__ import annotations

import marshal
import os
import re
import threading
from collections import deque
from typing import Any, Callable, Iterator

from repro.errors import PersistenceError
from repro.persist.config import FsyncPolicy
from repro.resilience.retry import retry_call
from repro.persist.records import HEADER_BYTES, frame, iter_frames

_SEGMENT_RE = re.compile(r"^(\d{8,})\.wal$")

#: Items per sealed group (the unit of encode/checksum/write
#: amortization).  An fsync interval shorter than this seals earlier.
GROUP_ITEMS = 64

#: How long the background group-commit writer waits for more events
#: before flushing what it has (the durability latency of an idle
#: stream; configurable via ``PersistenceConfig.linger_ms``).
LINGER_SECONDS = 0.002


def segment_name(first_lsn: int) -> str:
    return f"{first_lsn:08d}.wal"


class WriteAheadLog:
    """Append/replay access to one directory's WAL segments."""

    def __init__(self, directory: str, policy: FsyncPolicy,
                 segment_max_bytes: int = 4 * 1024 * 1024,
                 group_items: int = GROUP_ITEMS,
                 linger_seconds: float = LINGER_SECONDS,
                 injector=None):
        self.directory = directory
        self._policy = policy
        # Resilience: a FaultInjector arms the ``wal.write``/``wal.fsync``
        # chaos sites, and armed paths go through retry_call (transient
        # OSErrors are retried with backoff).  None keeps the hot path
        # exactly as before — not even a branch is added, because the
        # helpers below special-case it first.
        self._injector = injector
        self._segment_max_bytes = segment_max_bytes
        self._linger = linger_seconds
        self._mode = policy.mode
        if self._mode == "always":
            self._group_items = 1
        elif self._mode == "every_n":
            self._group_items = max(1, min(group_items, policy.interval))
        else:
            self._group_items = max(1, group_items)
        # every_n only: fsync once per this many sealed groups, so the
        # cadence costs nothing per append.  An interval that is not a
        # multiple of the group rounds *down* (fsyncs slightly more
        # often than asked — durability-conservative).
        self._seals_per_fsync = \
            max(1, policy.interval // self._group_items) \
            if self._mode == "every_n" else 0
        self._seals_since_fsync = 0
        os.makedirs(directory, exist_ok=True)
        # (first_lsn, path, item count) per surviving segment, sorted.
        self._segments: list[list] = []
        self.truncated_bytes = 0
        self._scan_existing()
        if not self._segments:
            self._segments.append(
                [0, os.path.join(directory, segment_name(0)), 0])
        last = self._segments[-1]
        self.next_lsn = last[0] + last[2]
        self._pending: list[Any] = []
        self.fsyncs = 0
        # Event-mode state (started by start_event_mode).
        self._extract: Callable[[list], list] | None = None
        self._on_seal: Callable[[int, Any], None] | None = None
        self._queue: deque | None = None
        self._cond = threading.Condition()
        self._writer: threading.Thread | None = None
        self._writer_busy = False
        self._writer_stop = False
        self._in_barrier = False
        self._handle = open(last[1], "ab", buffering=0)
        self._fd = self._handle.fileno()
        self._segment_bytes = os.fstat(self._fd).st_size

    def _scan_existing(self) -> None:
        found: list[tuple[int, str]] = []
        for entry in os.listdir(self.directory):
            match = _SEGMENT_RE.match(entry)
            if match is not None:
                found.append((int(match.group(1)),
                              os.path.join(self.directory, entry)))
        found.sort()
        for position, (first_lsn, path) in enumerate(found):
            items, valid_end, size = self._scan_segment(path)
            if valid_end < size:
                if position != len(found) - 1:
                    raise PersistenceError(
                        f"{path}: corrupt record in a non-final WAL "
                        f"segment; the log is not contiguous")
                with open(path, "r+b") as handle:
                    handle.truncate(valid_end)
                self.truncated_bytes += size - valid_end
            self._segments.append([first_lsn, path, items])
        for previous, current in zip(self._segments,
                                     self._segments[1:]):
            if previous[0] + previous[2] != current[0]:
                raise PersistenceError(
                    f"WAL segments in {self.directory} do not form a "
                    f"contiguous LSN range: {previous[1]} holds "
                    f"[{previous[0]}, {previous[0] + previous[2]}) but "
                    f"the next segment starts at {current[0]}")

    @staticmethod
    def _scan_segment(path: str) -> tuple[int, int, int]:
        """``(item count, valid_end, file size)`` of one segment.  A
        frame whose payload fails to unmarshal counts as torn, exactly
        like a bad checksum."""
        with open(path, "rb") as handle:
            data = handle.read()
        items = 0
        valid_end = 0
        for offset, payload in iter_frames(data):
            try:
                group = marshal.loads(payload)
            except (ValueError, EOFError, TypeError):
                break
            items += len(group)
            valid_end = offset + HEADER_BYTES + len(payload)
        return items, valid_end, len(data)

    # -- the generic (synchronous) path ---------------------------------------

    def append(self, item: Any) -> int:
        """Append one item to the open group; returns its LSN.  The
        item must be ``marshal``-serializable."""
        if self._extract is not None:
            raise PersistenceError(
                "the WAL is in event mode; use the hook returned by "
                "start_event_mode()")
        lsn = self.next_lsn
        self.next_lsn = lsn + 1
        pending = self._pending
        pending.append(item)
        if len(pending) >= self._group_items:
            self._seal()
        return lsn

    def _seal(self) -> None:
        """Close the open group: encode it as one frame, write it, and
        fsync per the policy; rotate the segment past its byte budget."""
        pending = self._pending
        if not pending:
            return
        if self._extract is not None:
            # Foreground event mode (never/always): the pending list
            # holds raw events; LSNs are assigned here, per group.
            count = len(pending)
            self._segments[-1][2] += count
            last = pending[-1]
            self.next_lsn += count
            items = self._extract(pending)
            on_seal = self._on_seal
        else:
            self._segments[-1][2] += len(pending)
            items = pending
            on_seal, last = None, None
        framed = frame(marshal.dumps(items))
        self._write_bytes(framed)
        self._segment_bytes += len(framed)
        if self._mode == "always":
            self._fsync_fd()
            self.fsyncs += 1
        elif self._mode == "every_n":
            self._seals_since_fsync += 1
            if self._seals_since_fsync >= self._seals_per_fsync:
                self._fsync_fd()
                self.fsyncs += 1
                self._seals_since_fsync = 0
        pending.clear()
        if on_seal is not None:
            on_seal(self.next_lsn - 1, last)
        if self._segment_bytes >= self._segment_max_bytes:
            self._rotate()

    # -- the event (hot) path -------------------------------------------------

    def start_event_mode(self, extract: Callable[[list], list],
                         on_seal: Callable[[int, Any], None]
                         | None = None) -> Callable[[list], None]:
        """Switch the log to its event hot path and return the append
        hook, which takes a chunk (list) of events.

        *extract* maps a batch of appended objects to their
        ``marshal``-serializable items at seal time, so the hook itself
        stores only references.  *on_seal* (optional) is called after
        each sealed group with ``(last_lsn, last_object)`` — under
        ``every_n`` it runs on the writer thread and must be cheap and
        thread-agnostic.

        For ``every_n`` the hook is literally ``deque.extend`` and a
        background thread group-commits the queue (see the module
        docstring); for ``never``/``always`` sealing stays synchronous
        in the foreground.  The generic :meth:`append` is disabled once
        event mode starts — the two paths assign LSNs differently and
        must not interleave.
        """
        if self._extract is not None:
            raise PersistenceError("event mode already started")
        self._seal()   # anything appended generically is sealed first
        self._extract = extract
        self._on_seal = on_seal
        if self._mode != "every_n":
            pending = self._pending
            group_items = self._group_items
            seal = self._seal

            def append_chunk(events: list) -> None:
                for event in events:
                    pending.append(event)
                    if len(pending) >= group_items:
                        seal()

            return append_chunk
        self._queue = deque()
        self._writer = threading.Thread(
            target=self._writer_loop, name="wal-writer", daemon=True)
        self._writer.start()
        return self._queue.extend

    def _writer_loop(self) -> None:
        """The group-commit thread: linger, drain the queue, write it
        as group-sized frames.  Owns the file handle while running —
        the foreground only touches it behind the :meth:`_drain_writer`
        barrier."""
        cond = self._cond
        queue = self._queue
        chunk = self._group_items
        while True:
            with cond:
                while not queue and not self._writer_stop:
                    self._writer_busy = False
                    cond.notify_all()
                    cond.wait(self._linger)
                if not queue and self._writer_stop:
                    self._writer_busy = False
                    cond.notify_all()
                    return
                self._writer_busy = True
            batch: list = []
            grab = batch.append
            pop = queue.popleft
            while True:
                try:
                    grab(pop())
                except IndexError:
                    break
            for start in range(0, len(batch), chunk):
                self._write_group(batch[start:start + chunk])

    def _write_group(self, events: list) -> None:
        """Writer-thread body of one sealed group (``every_n`` event
        mode): assign LSNs, encode, write, fsync on cadence."""
        count = len(events)
        self._segments[-1][2] += count
        self.next_lsn += count
        data = frame(marshal.dumps(self._extract(events)))
        self._write_bytes(data)
        self._segment_bytes += len(data)
        self._seals_since_fsync += 1
        if self._seals_since_fsync >= self._seals_per_fsync and \
                not self._in_barrier:
            # Inside a sync() barrier the cadence fsyncs are redundant
            # — the barrier ends with one fsync covering everything —
            # so a long queued tail drains at write speed, not at one
            # journal commit per group.
            try:
                self._fsync_fd()
            except OSError:  # pragma: no cover - fd closed mid-GC
                pass
            self.fsyncs += 1
            self._seals_since_fsync = 0
        if self._on_seal is not None:
            self._on_seal(self.next_lsn - 1, events[-1])
        if self._segment_bytes >= self._segment_max_bytes:
            self._rotate()

    def _drain_writer(self) -> None:
        """Barrier: wait until the queue is empty and the writer is
        between batches — afterwards every appended event is written
        (not necessarily fsynced) and ``next_lsn`` is exact."""
        if self._writer is None:
            return
        with self._cond:
            self._cond.notify_all()
            while self._queue or self._writer_busy:
                self._cond.wait()

    def _stop_writer(self) -> None:
        if self._writer is None:
            return
        with self._cond:
            self._writer_stop = True
            self._cond.notify_all()
        self._writer.join()
        self._writer = None

    # -- shared machinery -----------------------------------------------------

    def _rotate(self) -> None:
        # Runs on whichever thread seals: the foreground for the
        # generic and never/always paths, the writer thread for
        # every_n event mode.  Never both — event mode disables the
        # generic path, and the foreground only touches the handle
        # behind the drain barrier.
        self._handle.close()
        path = os.path.join(self.directory, segment_name(self.next_lsn))
        self._segments.append([self.next_lsn, path, 0])
        self._handle = open(path, "ab", buffering=0)
        self._fd = self._handle.fileno()
        self._segment_bytes = 0

    def _write_bytes(self, data: bytes) -> None:
        """One frame write; with an injector armed, transient (and
        injected) OSErrors are retried *before* any bytes land, so a
        retry can never duplicate a frame."""
        injector = self._injector
        if injector is None:
            os.write(self._fd, data)
            return

        def attempt():
            injector.maybe_raise("wal.write")
            os.write(self._fd, data)
        retry_call(attempt, retry_on=(OSError,), base_delay=0.001,
                   max_delay=0.02)

    def _fsync_fd(self) -> None:
        injector = self._injector
        if injector is None:
            os.fsync(self._fd)
            return

        def attempt():
            injector.maybe_raise("wal.fsync")
            os.fsync(self._fd)
        retry_call(attempt, retry_on=(OSError,), base_delay=0.001,
                   max_delay=0.02)

    def sync(self) -> None:
        """Barrier: seal the open group, drain the background writer,
        and fsync synchronously — afterwards every appended item is on
        stable storage."""
        self._in_barrier = True
        try:
            self._seal()
            self._drain_writer()
            self._fsync_fd()
            self.fsyncs += 1
            self._seals_since_fsync = 0
        finally:
            self._in_barrier = False

    def close(self) -> None:
        if self._handle.closed:
            return
        self.sync()
        self._stop_writer()
        self._handle.close()

    # -- replay ---------------------------------------------------------------

    def replay(self, from_lsn: int = 0) -> Iterator[tuple[int, Any]]:
        """Yield ``(lsn, item)`` for every item with ``lsn >=
        from_lsn``, oldest first."""
        self._seal()            # the open group must be readable,
        self._drain_writer()    # and actually in the file
        for first_lsn, path, count in list(self._segments):
            if first_lsn + count <= from_lsn or count == 0:
                continue
            with open(path, "rb") as handle:
                data = handle.read()
            lsn = first_lsn
            for _, payload in iter_frames(data):
                for item in marshal.loads(payload):
                    if lsn >= from_lsn:
                        yield lsn, item
                    lsn += 1

    # -- garbage collection ----------------------------------------------------

    def gc(self, below_lsn: int) -> int:
        """Remove segments whose items all have ``lsn < below_lsn``
        (never the active one); returns the number removed."""
        removed = 0
        while len(self._segments) > 1:
            first_lsn, path, count = self._segments[0]
            if first_lsn + count > below_lsn:
                break
            os.remove(path)
            self._segments.pop(0)
            removed += 1
        return removed

    # -- introspection --------------------------------------------------------

    @property
    def oldest_lsn(self) -> int:
        """The first LSN still on disk (> 0 once GC has run)."""
        return self._segments[0][0]

    @property
    def segment_count(self) -> int:
        return len(self._segments)

    @property
    def queue_depth(self) -> int:
        """Events appended but not yet sealed (either write path)."""
        queued = len(self._queue) if self._queue is not None else 0
        return queued + len(self._pending)

    @property
    def total_bytes(self) -> int:
        total = 0
        for _, path, _ in self._segments[:-1]:
            try:
                total += os.path.getsize(path)
            except OSError:
                pass
        return total + self._segment_bytes
