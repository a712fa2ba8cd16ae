"""Meta-benchmark: the simulator's own event throughput.

Not a paper figure — this measures the reproduction infrastructure itself,
so regressions in the event loop show up in benchmark history.  The
workload is a message-heavy all-to-all ping storm across 16 ranks.

Run as a script for a human-readable table; pass ``--json`` to also emit
the measurement as machine-readable JSON::

    PYTHONPATH=src python benchmarks/bench_simulator_throughput.py --json -

The perf ledger imports :func:`measure_ping_storm` for its
``simnet.events_per_s`` layer metric (``benchmarks/ledger/layers.py``).
"""

import argparse
import json
import sys
import time

from repro.simnet import Isend, NetworkModel, Recv, Simulator


def build_ping_storm(ranks=16, rounds=20):
    """A simulator loaded with the all-to-all ping storm, ready to run."""
    sim = Simulator(ranks, NetworkModel())

    def program(proc):
        for _ in range(rounds):
            for offset in range(1, proc.size):
                dst = (proc.rank + offset) % proc.size
                yield Isend(dst=dst, nbytes=64, payload=None, tag=1)
            for _ in range(proc.size - 1):
                yield Recv(tag=1)

    sim.add_program(program)
    return sim


def run_ping_storm(ranks=16, rounds=20):
    return build_ping_storm(ranks, rounds).run()


def measure_ping_storm(ranks=16, rounds=20, repeats=5):
    """Best-of-``repeats`` wall time and event throughput of the storm.

    Simulated results are deterministic; only wall time varies, so the
    minimum over repeats is the least-noisy estimate of the engine's cost.
    """
    best_wall = None
    events = messages = 0
    for _ in range(repeats):
        sim = build_ping_storm(ranks, rounds)
        start = time.perf_counter()
        metrics = sim.run()
        wall = time.perf_counter() - start
        if best_wall is None or wall < best_wall:
            best_wall = wall
        events = sim.events_processed
        messages = metrics.messages
    return {
        "ranks": ranks,
        "rounds": rounds,
        "repeats": repeats,
        "messages": messages,
        "events_processed": events,
        "wall_seconds": best_wall,
        "events_per_sec": events / best_wall,
    }


def test_simulator_throughput(benchmark):
    metrics = benchmark.pedantic(run_ping_storm, rounds=1, iterations=1)
    # 16 ranks x 20 rounds x 15 peers = 4800 messages delivered.
    assert metrics.messages == 4800


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--ranks", type=int, default=16)
    parser.add_argument("--rounds", type=int, default=20)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument(
        "--json",
        nargs="?",
        const="-",
        default=None,
        metavar="FILE",
        help="also emit the measurement as JSON ('-' or no value: stdout)",
    )
    args = parser.parse_args(argv)
    result = measure_ping_storm(args.ranks, args.rounds, args.repeats)
    print(f"{'ranks':>10} {'messages':>10} {'events':>10} {'wall s':>10} {'events/s':>12}")
    print(
        f"{result['ranks']:>10} {result['messages']:>10} "
        f"{result['events_processed']:>10} {result['wall_seconds']:>10.4f} "
        f"{result['events_per_sec']:>12.0f}"
    )
    if args.json is not None:
        text = json.dumps(result, indent=1, sort_keys=True)
        if args.json == "-":
            print(text)
        else:
            with open(args.json, "w") as fh:
                fh.write(text + "\n")
    return result


if __name__ == "__main__":
    sys.exit(0 if main() else 1)
