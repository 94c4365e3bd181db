"""Benchmark runner for the nonloose package.

    python3 bench/run.py --workload sweep --seed 1 --seconds 28 --trace 0

Run from the repository root.  Every measured process is a fresh
interpreter (bench/child.py), because the package keeps process-wide
memo tables: a second pass over the same inputs in one process would
measure those tables, not the package.  The runner

1. spawns a few set-up-only processes and takes the median processor
   time each has used when ``import nonloose`` (``nonloose.cli`` for the
   cli workload) returns, scaled as below;
2. spawns workload processes one after another until the next one would
   overrun ``--seconds`` (at least one), each a single-threaded closed
   loop over the same seeded inputs, and reports medians across them;
3. with ``--trace 1``, alternates untraced and traced processes and
   reports the traced per-layer metrics plus the tracing overhead (the
   median over adjacent pairs of traced wall_s minus untraced wall_s).

Times are processor time of the calling thread (``time.thread_time``), not
elapsed time: the loop is single-threaded and does no waiting, so the two
agree on an idle machine, but on a shared virtual machine elapsed time also
counts the time the host runs other guests, which changes by up to a factor
of two from one minute to the next.  Processor time still varies with what
the other guests do, so each time is scaled to a reference speed measured
by a fixed piece of work sampled during the run (``workloads.Yardstick``).

It prints one line per metric (name, value, unit), notes on how the tail
percentile was taken, and as its last line one JSON object with keys
correct, attempted, failed and metrics.  Exit status 0 unless a process
crashed or the package cannot be found.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKDIR = os.path.join(ROOT, ".bench_run")
CHILD = os.path.join(HERE, "child.py")
WORKLOAD_MODULE = {"sweep": "nonloose", "deep": "nonloose", "calculus": "nonloose", "cli": "nonloose.cli"}
SETUP_SAMPLES = 7
CHILD_TIMEOUT_S = 170


def _spawn(config: dict) -> dict:
    """Run one child; returns its JSON report."""
    # no user site and no inherited PYTHON* settings, but a fixed hash seed
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONHASHSEED"] = "0"
    proc = subprocess.run(
        [sys.executable, "-s", CHILD, json.dumps(config)],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise SystemExit(f"benchmark process failed with status {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _load_metric_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {
        "end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOAD_MODULE))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: a few inputs per workload, for testing the runner")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "nonloose", "__init__.py")):
        print(f"error: package source not found under {SRC}", file=sys.stderr)
        return 2
    spec = _load_metric_spec()
    os.makedirs(WORKDIR, exist_ok=True)
    config = {
        "src": SRC,
        "module": WORKLOAD_MODULE[args.workload],
        "workload": args.workload,
        "size": args.size,
        "seed": args.seed,
        "workdir": WORKDIR,
        "trace": False,
    }

    # set-up time; the first process only leaves bytecode caches behind
    _spawn(dict(config, setup_only=True))
    setups = [_spawn(dict(config, setup_only=True))["setup_s"] for _ in range(SETUP_SAMPLES)]

    modes = [False, True] if args.trace else [False]
    runs: dict[bool, list[dict]] = {False: [], True: []}
    start = time.monotonic()
    while True:
        traced = modes[sum(len(r) for r in runs.values()) % len(modes)]
        report = _spawn(dict(config, trace=traced))
        setups.append(report["setup_s"])
        runs[traced].append(report)
        elapsed = time.monotonic() - start
        per_run = elapsed / sum(len(r) for r in runs.values())
        if all(runs[m] for m in modes) and elapsed + per_run > args.seconds:
            break

    plain = runs[False]
    everything = plain + runs[True]
    attempted = sum(r["calls"] for r in everything)
    failed = sum(r["failed"] for r in everything)
    values = {
        name: median(setups) if name == "setup_s" else median(r[name] for r in plain)
        for name in spec["end_to_end"]
    }
    print(f"workload {args.workload} seed {args.seed} size {args.size}: "
          f"{len(plain)} untraced and {len(runs[True])} traced processes, "
          f"{len(setups)} set-up samples")
    print(f"note op_tail_ms is p{plain[0]['tail_pct']:g} of {plain[0]['calls']} calls per process"
          + (" (no percentile has ten calls beyond it: the maximum)" if plain[0]["tail_pct"] == 100.0 else ""))
    print("note wall_s per untraced process: " + " ".join(f"{r['wall_s']:.4f}" for r in plain))
    print("note processor seconds per untraced process, before scaling: "
          + " ".join(f"{r['cpu_s']:.4f}" for r in plain))
    # printed only: zero at the seed, or meaningful for one workload
    print(f"metric failed_frac {failed / attempted:.6g} ratio")
    for name in ("cold_p50_ms", "warm_p50_ms"):
        if name in plain[0]:
            print(f"metric {name} {median(r[name] for r in plain):.6g} ms")
    for message in {m for r in everything for m in r["messages"]}:
        print(f"failure {message}")

    if args.trace:
        traced = runs[True]
        layers = {name: median(r["layers"][name] for r in traced) for name in traced[0]["layers"]}
        layers["trace.wall_s"] = median(r["wall_s"] for r in traced)
        # each traced process runs right after an untraced one: pairing
        # them cancels drift that is slower than one process
        layers["trace.overhead_s"] = median(t["wall_s"] - u["wall_s"] for u, t in zip(plain, traced))
        for name, value in values.items():
            print(f"metric {name} {value:.6g} {spec['end_to_end'][name]} (untraced)")
        metrics = {name: layers[name] for name in spec["per_layer"]}
        units = spec["per_layer"]
    else:
        metrics, units = values, spec["end_to_end"]
    for name, value in metrics.items():
        print(f"metric {name} {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
