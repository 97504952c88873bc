"""The repo benchmark: six workloads, end-to-end metrics, per-layer trace.

One run of one workload, as the driver invokes it::

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

prints every metric by name and unit and, as the last line of standard
output, one JSON object ``{"correct", "attempted", "failed", "metrics"}``
holding the end-to-end metrics (``--trace 0``) or the per-layer metrics
(``--trace 1``).

Without ``--workload`` every workload runs in a child process of its own,
one after another; ``--trace`` then repeats each with the span recorder
on, ``--out DIR`` keeps the records (and the span dumps), ``--repeat N``
runs N seeds per workload so ``compare.py`` has quartiles to work with,
and ``--smoke`` checks in under 20 s that every name declared in
``BENCHMARK.json`` is emitted.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from time import perf_counter

import harness

harness.use_checkout_source()

import layers  # noqa: E402
import workloads  # noqa: E402
from trace import SpanRecorder  # noqa: E402

DEFAULT_SEED = 20070107      # CIDR 2007
MIN_CLOSED_PASSES = 3
MIN_SETUP_SAMPLES = 5
CLOSED_SHARE = 0.5           # of --seconds; the rest is open loop
NAME_PATTERN = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")

END_TO_END = {
    "setup_s": "s",
    "throughput_eps": "1/s",
    "detect_latency_p50_ms": "ms",
    "peak_rss_mb": "MiB",
}


class Scoreboard:
    """Operations attempted and failed across the passes of one run."""

    def __init__(self, workload, material):
        self.workload = workload
        self.material = material
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []
        # Result keys per pass, kept once per distinct outcome until the
        # reference exists (it is computed last, so that its memory is
        # not part of peak_rss_mb).
        self._outcomes: list[list] = []   # [keys, passes]

    def add(self, outcome: harness.PassResult) -> None:
        keys = self.workload.keys(outcome.results)
        for known in self._outcomes:
            if known[0] == keys:
                known[1] += 1
                break
        else:
            self._outcomes.append([keys, 1])
        self.attempted += self.material.items
        refused = outcome.extras.get("refused", 0)
        wrong = self.workload.extra_failures(self.material, outcome.results)
        if refused:
            self.notes.append(f"{refused} feed(s) refused or errored")
        if wrong:
            self.notes.append(
                f"{wrong} detection(s) disagree with the ground truth")
        self.failed += refused + wrong
        # Only the keys are needed from here on; dropping the results
        # keeps peak_rss_mb independent of how many passes fit the run.
        outcome.delivered = len(outcome.results)
        outcome.results = []

    def settle_against(self, reference: list) -> None:
        for keys, passes in self._outcomes:
            missing, unexpected = workloads.multiset_difference(
                reference, keys)
            self.attempted += passes * len(reference)
            self.failed += passes * (missing + unexpected)
            if missing or unexpected:
                self.notes.append(
                    f"{passes} pass(es): {missing} reference result(s) "
                    f"missing, {unexpected} not in the reference")


def measure(workload, material, seconds: float, smoke: bool,
            board: Scoreboard) -> tuple[dict, dict, list]:
    """The ``--trace 0`` plan: a discarded warm-up pass, closed-loop
    passes for half the time, open-loop passes for the other half, each
    on a fresh system.  Returns the end-to-end metrics, the detail
    printed beside them, and the open-loop passes."""
    harness.run_pass(workload, material)
    closed = []
    deadline = perf_counter() + CLOSED_SHARE * seconds
    while len(closed) < (1 if smoke else MIN_CLOSED_PASSES) \
            or perf_counter() < deadline:
        closed.append(harness.run_pass(workload, material))
        board.add(closed[-1])
    open_pass_s = len(material.units) / workload.open_rate
    paced = []
    for _ in range(max(1, round((1 - CLOSED_SHARE) * seconds
                                / open_pass_s))):
        paced.append(harness.run_pass(workload, material, paced=True))
        board.add(paced[-1])
    setups = [outcome.extras["setup_s"] for outcome in closed + paced]
    while len(setups) < (1 if smoke else MIN_SETUP_SAMPLES):
        handle, setup_s = harness.timed_setup(workload, material)
        setups.append(setup_s)
        workload.teardown(handle)
        gc.unfreeze()
    # Interference only ever slows a pass, so the upper quartile of the
    # passes' rates is steadier than their median and still needs a
    # quarter of the passes to agree.
    rates = sorted(material.items / outcome.elapsed for outcome in closed)
    metrics = {
        "setup_s": statistics.median(setups),
        "throughput_eps": harness.percentile(rates, 0.75),
        "peak_rss_mb": harness.peak_rss_mib(),
    }
    detail = {"closed_passes": len(closed), "open_passes": len(paced),
              "setup_samples": len(setups),
              "items_per_pass": material.items, "item": workload.item,
              "closed_rates": rates}
    return metrics, detail, paced


def run_workload(args) -> int:
    workload = workloads.WORKLOADS[args.workload]
    smoke = args.scale < 1.0
    record: dict = {
        "workload": workload.name, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "scale": args.scale,
        "env": harness.environment(), "sizes": workload.sizes()}
    started = perf_counter()
    material = workload.generate(args.seed, args.scale)
    generate_s = perf_counter() - started
    board = Scoreboard(workload, material)
    recorder = SpanRecorder()
    try:
        if args.trace:
            metrics = layers.trace_run(workload, material, recorder)
            for outcome in metrics.pop("passes"):
                board.add(outcome)
            paced = [harness.run_pass(workload, material, paced=True)]
            board.add(paced[0])
            detail: dict = {}
        else:
            metrics, detail, paced = measure(workload, material,
                                             args.seconds, smoke, board)
        started = perf_counter()
        reference = workload.reference(material)
        reference_s = perf_counter() - started
    finally:
        shutil.rmtree(os.path.join(harness.WORK_DIR,
                                   f"{workload.name}-{os.getpid()}"),
                      ignore_errors=True)
        try:
            os.rmdir(harness.WORK_DIR)   # unless another run is using it
        except OSError:
            pass
    board.settle_against(reference)
    pacing = harness.open_loop_metrics(workload, paced, len(reference))
    detail.update(latency_samples=pacing.pop("latency_samples"),
                  smallest_p99_segment=pacing.pop("smallest_p99_segment"),
                  reference_results=len(reference))
    pacing.update({"bench.generate_s": generate_s,
                   "bench.reference_s": reference_s,
                   "failed_share": board.failed / board.attempted})
    units = layers.PER_LAYER if args.trace else END_TO_END
    metrics.update({name: value for name, value in pacing.items()
                    if name in units})
    if not args.trace:   # shown beside the end-to-end metrics
        detail.update(
            detect_latency_p99_ms=pacing["detect_latency_p99_ms"],
            late_share=pacing["late_share"],
            generator_lag_p99_ms=pacing["bench.generator_lag_p99_ms"],
            failed_share=pacing["failed_share"])
    correct = board.failed == 0
    for note in board.notes:
        print(f"bench: {workload.name}: {note}", file=sys.stderr)
    record.update(detail=detail, correct=correct,
                  attempted=board.attempted, failed=board.failed)
    print(f"# {workload.name}  seed={args.seed}  trace={args.trace}  "
          f"{json.dumps(detail)}")
    for name, unit in units.items():
        print(f"{name:40s} {metrics[name]:16.6f} {unit}")
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        stem = os.path.join(args.out, f"{workload.name}.seed{args.seed}"
                                      f".trace{args.trace}")
        record["metrics"] = {name: metrics[name] for name in units}
        with open(stem + ".json", "w", encoding="utf-8") as handle:
            json.dump(record, handle, indent=1)
        if args.trace:
            recorder.dump(stem + ".spans.jsonl")
    print(json.dumps({
        "correct": correct, "attempted": board.attempted,
        "failed": board.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()}}))
    return 0 if correct else 1


# -- every workload, each in its own process -------------------------------------------

def run_child(name: str, seed: int, seconds: float, trace: int,
              scale: float, out: str | None) -> dict | None:
    command = [sys.executable, os.path.abspath(__file__),
               "--workload", name, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace),
               "--scale", str(scale)]
    if out:
        command += ["--out", out]
    completed = subprocess.run(command, capture_output=True, text=True,
                               timeout=900)
    lines = completed.stdout.strip().splitlines()
    sys.stderr.write(completed.stderr)
    sys.stdout.write("".join(line + "\n" for line in lines[:-1]))
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        print(f"bench: {name} printed no result (exit code "
              f"{completed.returncode})", file=sys.stderr)
        return None
    return result


def run_suite(args) -> int:
    traces = [0, 1] if args.trace or args.smoke else [0]
    scale = 0.1 if args.smoke else args.scale
    seconds = 0.2 if args.smoke else args.seconds
    jobs = [(name, args.seed + repeat, seconds, trace, scale, args.out)
            for name in workloads.WORKLOADS for trace in traces
            for repeat in range(1 if trace or args.smoke else args.repeat)]
    started = perf_counter()
    # Timed runs go one after another so that each has the box to
    # itself; a smoke run checks names, not speed, and uses both cores.
    with ThreadPoolExecutor(max_workers=2 if args.smoke else 1) as pool:
        results = list(pool.map(lambda job: run_child(*job), jobs))
    runs: dict[str, dict[str, list]] = {}
    for job, result in zip(jobs, results):
        if result is not None:
            runs.setdefault(job[0], {}).setdefault(
                f"trace{job[3]}", []).append(result)
    healthy = all(result is not None and result["correct"]
                  for result in results)
    if args.smoke:
        healthy = check_declaration(load_declaration(), runs) and healthy
        print(f"smoke: {'ok' if healthy else 'FAILED'} in "
              f"{perf_counter() - started:.1f} s")
    if args.out:
        with open(os.path.join(args.out, "suite.json"), "w",
                  encoding="utf-8") as handle:
            json.dump({"seed": args.seed, "seconds": seconds,
                       "env": harness.environment(), "runs": runs},
                      handle, indent=1)
    return 0 if healthy else 1


def load_declaration() -> dict:
    with open(os.path.join(harness.ROOT, "BENCHMARK.json"),
              encoding="utf-8") as handle:
        return json.load(handle)


def check_declaration(declared: dict, runs: dict) -> bool:
    """Every workload and metric ``BENCHMARK.json`` declares is emitted
    under exactly that name and unit, and every name is well formed."""
    problems = []
    expected = {
        "trace0": {metric["name"]: metric["unit"]
                   for metric in declared["end_to_end"]},
        "trace1": {metric["name"]: metric["unit"]
                   for metric in declared["per_layer"]}}
    names = [workload["name"] for workload in declared["workloads"]]
    for name in names + list(expected["trace0"]) + list(expected["trace1"]):
        if not NAME_PATTERN.match(name):
            problems.append(f"badly formed name {name!r}")
    if names != list(workloads.WORKLOADS):
        problems.append(f"declared workloads {names} differ from "
                        f"{list(workloads.WORKLOADS)}")
    for name in names:
        for trace, metrics in expected.items():
            emitted = runs.get(name, {}).get(trace)
            if not emitted:
                problems.append(f"{name} {trace}: no result")
                continue
            got = {metric: entry["unit"] for metric, entry
                   in emitted[0]["metrics"].items()}
            if got != metrics:
                problems.append(
                    f"{name} {trace}: emitted and declared metrics differ: "
                    f"{sorted(set(got.items()) ^ set(metrics.items()))}")
    for problem in problems:
        print(f"smoke: {problem}", file=sys.stderr)
    return not problems


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=list(workloads.WORKLOADS),
                        help="run this workload in this process "
                             "(default: all, each in a child process)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="how long one run measures")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="1: per-layer metrics with the span "
                             "recorder on")
    parser.add_argument("--out", metavar="DIR",
                        help="keep each run's record (and span dump)")
    parser.add_argument("--repeat", type=int, default=1,
                        help="seeds per workload in a full run")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs: check names against "
                             "BENCHMARK.json")
    parser.add_argument("--scale", type=float, default=1.0,
                        help=argparse.SUPPRESS)   # input size, for --smoke
    args = parser.parse_args()
    # Whichever way this process leaves, nothing it started stays behind.
    harness.adopt_orphans()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        return run_workload(args) if args.workload else run_suite(args)
    finally:
        harness.stop_started_processes()


if __name__ == "__main__":
    sys.exit(main())
