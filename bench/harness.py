"""Timing loops and statistics shared by every workload.

Nothing here knows a workload's layers: a workload hands over arrival
units (scan ticks, 64-event batches, single requests), a ``feed``
callable and a ``finish`` callable, and gets back results with timings.
"""

from __future__ import annotations

import ctypes
import gc
import os
import platform
import resource
import signal
import statistics
import sys
from bisect import bisect_left
from dataclasses import dataclass, field
from time import perf_counter, sleep

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORK_DIR = os.path.join(BENCH_DIR, ".work")


def use_checkout_source() -> None:
    """Put the checkout's ``src/`` first on ``sys.path``; exit non-zero
    when the program under test is not there (a directory holding only
    the benchmark cannot be measured)."""
    source = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(source, "repro")):
        sys.exit(f"bench: no program source under {source}; "
                 f"run from a full checkout")
    sys.path.insert(0, source)


@dataclass
class PassResult:
    """One pass of a workload's input through a fresh system."""

    results: list
    elapsed: float
    delivered: int = 0     # len(results), kept once results are dropped
    # Open loop only, one entry per result that was emitted before the
    # end-of-stream flush: seconds from the due time of the last
    # contributing arrival unit to emission, and the emission time
    # relative to the start of the pass.
    latencies: list[float] = field(default_factory=list)
    emitted_at: list[float] = field(default_factory=list)
    # Open loop only: how late the sender was for each unit it sent
    # while nothing blocked it, and for every unit.
    idle_lag: list[float] = field(default_factory=list)
    lateness: list[float] = field(default_factory=list)
    extras: dict = field(default_factory=dict)


def wait_until(due: float) -> None:
    """Spin until *due*.  The sender never sleeps: a sleeping process on
    an idle virtual CPU wakes hundreds of microseconds late and runs its
    next call cold, which on this box moved the median latency of a
    10 ms-interval workload by up to 50 % from pass to pass.  One core
    belongs to the load generator for the length of an open-loop pass."""
    while perf_counter() < due:
        pass


def closed_loop(units: list, feed, finish, pending: list) -> PassResult:
    """Offer every unit as soon as the previous call returned."""
    results = list(pending)
    extend = results.extend
    start = perf_counter()
    for unit in units:
        extend(feed(unit))
    extend(finish())
    return PassResult(results, perf_counter() - start)


def open_loop(units: list, stamps: list[float], rate: float, feed, drain,
              finish, pending: list, by_end_stamp: bool) -> PassResult:
    """Offer unit *i* at ``start + i / rate`` whatever the system does.

    A unit that cannot be sent on time (the previous call is still
    running) is sent as soon as possible and its results are still timed
    from when it was *due*, so a stall charges every later unit its
    queue wait.  With *by_end_stamp* (results come back on a later call)
    a result is charged to the unit holding the event whose stream
    timestamp is the result's ``end``; otherwise to the unit whose feed
    returned it.
    """
    interval = 1.0 / rate
    outcome = PassResult(list(pending), 0.0)
    results = outcome.results
    latencies, emitted_at = outcome.latencies, outcome.emitted_at
    idle_lag, lateness = outcome.idle_lag, outcome.lateness

    def sample(produced: list, now: float, due: float) -> None:
        results.extend(produced)
        if by_end_stamp:
            latencies.extend(
                now - (start + bisect_left(stamps, result.end) * interval)
                for _, result in produced)
        else:
            latencies.extend([now - due] * len(produced))
        emitted_at.extend([now - start] * len(produced))

    start = perf_counter() + 0.005
    due = start
    for index, unit in enumerate(units):
        due = start + index * interval
        now = perf_counter()
        if now < due:
            wait_until(due)
            now = perf_counter()
            idle_lag.append(now - due)
        lateness.append(now - due)
        produced = feed(unit)
        if produced:
            sample(produced, perf_counter(), due)
    produced = drain()
    if produced:
        sample(produced, perf_counter(), due)
    results.extend(finish())
    outcome.elapsed = perf_counter() - start
    return outcome


# -- statistics ---------------------------------------------------------------

def percentile(ordered: list[float], fraction: float) -> float:
    """Nearest-rank percentile of an already sorted list."""
    if not ordered:
        return 0.0
    rank = min(len(ordered) - 1, max(0, int(fraction * len(ordered))))
    return ordered[rank]


CHUNK = 500      # results per stretch for the median latency
SEGMENTS = 5     # time segments per pass for the 99th percentile
MIN_SEGMENT_SAMPLES = 200


def typical_median(passes: list[PassResult]) -> float:
    """Median latency of the typical stretch: the passes are cut into
    stretches of ``CHUNK`` consecutive results, and the median of the
    stretches' medians is reported.  Interference from outside the
    program slows whole stretches, so this moves less than the pooled
    median while a change to the code moves every stretch."""
    medians = [statistics.median(outcome.latencies[start:start + CHUNK])
               for outcome in passes
               for start in range(0, len(outcome.latencies) - CHUNK + 1,
                                  CHUNK)]
    if medians:
        return statistics.median(medians)
    pooled = [latency for outcome in passes
              for latency in outcome.latencies]   # tiny (smoke) inputs
    return statistics.median(pooled) if pooled else 0.0


def segment_p99(passes: list[PassResult]) -> tuple[float, int]:
    """Median of the per-segment 99th percentiles: each open-loop pass is
    cut into ``SEGMENTS`` equal time segments, so one stall moves one
    segment's p99, not the reported value.  Returns the value (seconds)
    and the smallest segment's sample count."""
    tails: list[float] = []
    smallest = 0
    for outcome in passes:
        if not outcome.latencies:
            continue
        width = (outcome.emitted_at[-1] + 1e-9) / SEGMENTS
        buckets: list[list[float]] = [[] for _ in range(SEGMENTS)]
        for latency, at in zip(outcome.latencies, outcome.emitted_at):
            buckets[min(SEGMENTS - 1, int(at / width))].append(latency)
        for bucket in buckets:
            if len(bucket) >= MIN_SEGMENT_SAMPLES:
                bucket.sort()
                tails.append(percentile(bucket, 0.99))
                smallest = len(bucket) if not smallest \
                    else min(smallest, len(bucket))
    if not tails:   # tiny (smoke) inputs: fall back to the pooled p99
        pooled = sorted(latency for outcome in passes
                        for latency in outcome.latencies)
        return percentile(pooled, 0.99), len(pooled)
    return statistics.median(tails), smallest


def schedule_slip(lateness: list[float]) -> float:
    """Mean lateness of the last tenth of the sends minus that of the
    first tenth (seconds): near zero when the backlog is not growing."""
    if len(lateness) < 20:
        return 0.0
    tenth = len(lateness) // 10
    return statistics.fmean(lateness[-tenth:]) \
        - statistics.fmean(lateness[:tenth])


# -- process hygiene ------------------------------------------------------------

def settle() -> None:
    """Before a timed pass: collect garbage, then move every survivor
    (inputs, reference data, the fresh system) out of the collector's
    sight so a full collection inside the pass scans only what the pass
    itself allocated."""
    gc.collect()
    gc.freeze()


def timed_setup(workload, material, recorder=None, profile: bool = False):
    """Build a fresh system; returns its handle and the ``setup_s``
    sample.  The collector is settled first, or a full collection lands
    inside some set-ups and not others."""
    settle()
    started = perf_counter()
    handle = workload.setup(material, recorder, profile)
    return handle, perf_counter() - started


def run_pass(workload, material, paced: bool = False, recorder=None,
             profile: bool = False, inspect=None,
             **open_loop_options) -> PassResult:
    """One pass on a fresh system: set up (timed into
    ``extras['setup_s']``), settle the collector, run closed loop or
    *paced* (open loop), let *inspect* read the system's counters, tear
    down."""
    handle, setup_s = timed_setup(workload, material, recorder, profile)
    try:
        settle()
        outcome = workload.open_pass(handle, material, **open_loop_options) \
            if paced else workload.closed_pass(handle, material)
        if inspect is not None:
            inspect(handle, outcome)
    finally:
        workload.teardown(handle)
        gc.unfreeze()
    outcome.extras["setup_s"] = setup_s
    return outcome


def open_loop_metrics(workload, passes: list[PassResult],
                      expected_results: int) -> dict[str, float]:
    """Latency and schedule figures of the open-loop passes."""
    pooled = sorted(latency for outcome in passes
                    for latency in outcome.latencies)
    p99, smallest = segment_p99(passes)
    limit = workload.latency_limit_ms / 1e3
    late = sum(1 for latency in pooled if latency > limit)
    # Results released by the end-of-stream flush have no latency sample
    # and are not late; results never delivered are.
    missing = sum(max(0, expected_results - outcome.delivered)
                  for outcome in passes)
    lags = sorted(lag for outcome in passes for lag in outcome.idle_lag)
    return {
        "detect_latency_p50_ms": typical_median(passes) * 1e3,
        "detect_latency_p99_ms": p99 * 1e3,
        "latency_samples": len(pooled),
        "smallest_p99_segment": smallest,
        "late_share": (late + missing)
        / max(1, expected_results * len(passes)),
        "bench.generator_lag_p99_ms": percentile(lags, 0.99) * 1e3,
        "bench.schedule_slip_ms": statistics.fmean(
            schedule_slip(outcome.lateness) for outcome in passes) * 1e3,
    }


PR_SET_CHILD_SUBREAPER = 36
STOP_GRACE_S = 5.0


def adopt_orphans() -> None:
    """Make this process the parent of every descendant whose own parent
    exits, so that ``stop_started_processes`` can wait for it too
    (Linux only; elsewhere orphans go to init as usual)."""
    try:
        ctypes.CDLL(None, use_errno=True).prctl(
            PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def _children() -> list[int]:
    """Pids whose parent is this process, zombies included."""
    own, pids = os.getpid(), []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                with open(f"/proc/{entry}/stat", encoding="utf-8") as handle:
                    fields = handle.read().rpartition(")")[2].split()
            except OSError:
                continue
            if int(fields[1]) == own:
                pids.append(int(entry))
    return pids


def stop_started_processes() -> None:
    """Stop every process this run started and wait until each has ended.

    A workload's ``teardown`` already joins its shard workers and its
    server; what outlives it is ``multiprocessing``'s resource tracker,
    which the shared-memory ring starts on first use and which only exits
    once this process has gone, i.e. after the run.  It is stopped here,
    and anything else still alive is given ``STOP_GRACE_S`` to finish and
    is then killed."""
    tracker = sys.modules.get("multiprocessing.resource_tracker")
    stop = getattr(getattr(tracker, "_resource_tracker", None), "_stop", None)
    if stop is not None:
        try:
            stop()
        except OSError:
            pass
    deadline = perf_counter() + STOP_GRACE_S
    killed: set[int] = set()
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return                      # no child left, running or zombie
        if pid:
            continue
        if perf_counter() > deadline:
            # Again on every turn: a killed child's own children are
            # handed to this process (see ``adopt_orphans``).
            for child in set(_children()) - killed:
                print(f"bench: killing leftover process {child}",
                      file=sys.stderr)
                killed.add(child)
                try:
                    os.kill(child, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        sleep(0.01)


def peak_rss_mib() -> float:
    """``ru_maxrss`` of this process plus that of its largest reaped
    child (shard workers, the service's server), in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def environment() -> dict:
    """What the numbers were measured on; warns when the box is busy."""
    cores = os.cpu_count() or 1
    load = os.getloadavg()[0]
    if load > 0.5 * cores:
        print(f"bench: warning: load average {load:.2f} on {cores} "
              f"core(s); timings will be noisy", file=sys.stderr)
    return {"nproc": cores, "python": platform.python_version(),
            "platform": platform.platform(), "commit": _commit(),
            "load_average_1m": load}


def _commit() -> str:
    """HEAD's hash when the checkout is a git repository."""
    git_dir = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git_dir, "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(git_dir, head[5:]),
                      encoding="utf-8") as handle:
                return handle.read().strip()
        return head
    except OSError:
        return "unknown"
