"""Entry points for the processes a workload starts besides itself.

``serve``: the multi-tenant service behind its TCP front end, exactly as
``repro serve`` would run it, with the workload's tenants registered.
``recover``: crash recovery over an abandoned data directory in a fresh
process.  Each prints one JSON line for the parent.
"""

from __future__ import annotations

import argparse
import json
import time

import harness

harness.use_checkout_source()

import workloads  # noqa: E402
from repro.service.server import serve  # noqa: E402


def run_server() -> None:
    started = time.perf_counter()
    service = workloads.build_service()
    register_s = time.perf_counter() - started
    serve(service, ready=lambda port: print(
        json.dumps({"port": port, "register_s": register_s}), flush=True))


def run_recovery(data_dir: str, seed: int) -> None:
    retail = workloads.WORKLOADS["retail_durable"]
    system = retail.build(retail.scenario(seed), data_dir, recover=False)
    started = time.perf_counter()
    report = system.recover()
    elapsed = time.perf_counter() - started
    system.close()
    print(json.dumps({
        "recover_s": elapsed,
        "replayed_events": report.replayed_events + report.scratch_events,
        "checkpoint_lsn": report.checkpoint_lsn,
        "suppressed_matches": len(report.suppressed_matches)}))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True)
    commands.add_parser("serve")
    recovery = commands.add_parser("recover")
    recovery.add_argument("--data-dir", required=True)
    recovery.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    if args.command == "serve":
        run_server()
    else:
        run_recovery(args.data_dir, args.seed)


if __name__ == "__main__":
    main()
