"""Where the cyclic garbage collector runs during one benchmark workload.

    PYTHONHASHSEED=0 python3 -s tools/gc_split.py --workload deep --seed 1
    python3 tools/gc_split.py --workload deep --seed 1 --root ../other-checkout

Runs one workload of bench/workloads.py in this process, through the
workload's own run_<workload> function, as bench/child.py does, with a
gc.callbacks hook installed before the package is imported.  Each
collection is counted inside or outside the timed Loop.call that was in
progress when it ran, so a change that only moves collections from the
timed calls into the untimed checks shows as a shift between the two rows
and not as a fall in the total.

Prints the workload's own wall_s, then per row (inside the timed calls,
outside them, the whole process) the collections of each generation and
the GC seconds, and as its last line one JSON object with the same
figures.  GC seconds are processor time of this thread
(time.thread_time_ns), unscaled.  Standard library only; the cli workload
writes its cache files into a temporary directory that is removed
afterwards.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import sys
import tempfile
from time import thread_time_ns

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
LAYERS = ("farey", "cfrac", "decorated", "unknots", "render", "cli")


class GcSplit:
    """Collections and seconds inside and outside the timed calls, from a
    gc.callbacks hook."""

    def __init__(self) -> None:
        self.inside = False  # a timed call is in progress
        self.rows = {where: {"collections": [0, 0, 0], "gc_s": 0.0} for where in ("inside", "outside")}
        self._t0 = 0

    def __call__(self, phase: str, info: dict) -> None:
        if phase == "start":
            row = self.rows["inside" if self.inside else "outside"]
            row["collections"][info["generation"]] += 1
            self._t0 = thread_time_ns()
        else:
            elapsed = thread_time_ns() - self._t0
            self.rows["inside" if self.inside else "outside"]["gc_s"] += elapsed / 1e9

    def total(self) -> dict:
        inside, outside = self.rows["inside"], self.rows["outside"]
        return {"collections": [a + b for a, b in zip(inside["collections"], outside["collections"])],
                "gc_s": inside["gc_s"] + outside["gc_s"]}

    def wrap(self, loop_type) -> None:
        # mark the timed calls: the flag is set outside the call's own clock
        timed = loop_type.call

        def call(loop, fn, *args, **kwargs):
            self.inside = True
            try:
                return timed(loop, fn, *args, **kwargs)
            finally:
                self.inside = False

        loop_type.call = call


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("sweep", "deep", "calculus", "cli"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--root", default=ROOT, help="the checkout whose src/ and bench/ to run (default: this one)")
    args = ap.parse_args(argv)

    split = GcSplit()
    gc.callbacks.append(split)
    root = os.path.abspath(args.root)
    sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "bench")]
    modules = {layer: importlib.import_module(f"nonloose.{layer}") for layer in LAYERS}
    workloads = importlib.import_module("workloads")
    split.wrap(workloads.Loop)
    with open(os.path.join(root, "bench", "expected.json")) as f:
        expected = json.load(f)
    run = getattr(workloads, f"run_{args.workload}")
    with tempfile.TemporaryDirectory() as workdir:
        result = run(modules, args.size, args.seed, expected, None, workdir)
    gc.callbacks.remove(split)

    rows = {**split.rows, "process": split.total()}
    print(f"workload {args.workload} seed {args.seed} size {args.size}: {result['calls']} calls, "
          f"{result['failed']} failed, wall_s {result['wall_s']:.4f}")
    print(f"{'':8} {'gen0':>6} {'gen1':>6} {'gen2':>6} {'gc_s':>9}")
    for where, row in rows.items():
        gen0, gen1, gen2 = row["collections"]
        print(f"{where:8} {gen0:6d} {gen1:6d} {gen2:6d} {row['gc_s']:9.4f}")
    print(json.dumps({"workload": args.workload, "seed": args.seed, "size": args.size,
                      "wall_s": result["wall_s"], "failed": result["failed"], **rows}))
    return 1 if result["failed"] else 0


if __name__ == "__main__":
    sys.exit(main())
