"""One benchmark process: import the package, run one workload, report.

Started by run.py in a fresh interpreter with one JSON argument.  The
package import comes first so that the processor time the process has
used when the import returns (interpreter start-up plus the import) is
the workload's set-up time.  Prints one JSON line.
"""

import json
import sys
import time

CONFIG = json.loads(sys.argv[1])
sys.path.insert(0, CONFIG["src"])
__import__(CONFIG["module"])
SETUP_S = time.process_time()

import importlib  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from spans import Tracer  # noqa: E402
from workloads import WORKLOADS, Yardstick  # noqa: E402

LAYERS = ("farey", "cfrac", "decorated", "unknots", "render", "cli")


def _memo_info(decorated):
    info = getattr(decorated.shorten_to_minimal, "cache_info", None)
    return info() if info is not None else None


def main() -> None:
    # the processor's speed right after the import scales the set-up time;
    # with no timer started, stop() just takes the minimum of samples
    yardstick = Yardstick()
    yardstick.stop()
    setup_s = SETUP_S * yardstick.scales(1)[0]
    if CONFIG.get("setup_only"):
        print(json.dumps({"setup_s": setup_s}))
        return
    modules = {
        layer: importlib.import_module(f"nonloose.{layer}")
        for layer in LAYERS
        if layer != "cli" or CONFIG["module"] == "nonloose.cli"
    }
    memo = _memo_info(modules["decorated"])
    if memo is not None and memo.currsize != 0:
        raise SystemExit("isolation check: shortening memo is not empty at start")
    with open(os.path.join(HERE, "expected.json")) as f:
        expected = json.load(f)
    tracer = None
    if CONFIG["trace"]:
        tracer = Tracer()
        tracer.install(modules)
    workload = CONFIG["workload"]
    run = WORKLOADS[workload]
    result = run(modules, CONFIG["size"], CONFIG["seed"], expected, tracer, CONFIG["workdir"])
    result["setup_s"] = setup_s
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        result["layers"] = _layer_metrics(tracer, modules, result)
        tracer.write(os.path.join(CONFIG["workdir"], f"spans-{workload}.json"))
    print(json.dumps(result))


def _layer_metrics(tracer: Tracer, modules: dict, result: dict) -> dict:
    out = {}
    scale = result["scale"]  # reference time per processor second

    def span(name, *fields):
        calls, total, self_s = tracer.stats(name)
        values = {"calls": calls, "s": total * scale, "self_s": self_s * scale}
        for field in fields:
            out[f"{name}.{field}"] = values[field]

    def ratio(name, counter):
        calls = tracer.stats(name)[0]
        out[f"{name}.{counter}_frac"] = tracer.counters[f"{name}.{counter}"] / calls if calls else 0.0

    out["farey.slope_hash_calls"] = tracer.slope_hash_calls
    out["farey.slope_new_calls"] = tracer.slope_new_calls
    span("cfrac.expand", "calls", "s")
    span("cfrac.minimal_path", "calls", "s")
    out["cfrac.minimal_path.vertices"] = tracer.counters["cfrac.minimal_path.vertices"]
    span("cfrac.ancestor", "calls")
    span("decorated.shorten_to_minimal", "calls", "s")
    memo = _memo_info(modules["decorated"])
    # reported while the memo exists; 0 once it no longer does
    out["decorated.shorten_to_minimal.memo_hits"] = memo.hits if memo else 0
    out["decorated.shorten_to_minimal.memo_misses"] = memo.misses if memo else 0
    out["decorated.shorten_to_minimal.memo_size"] = memo.currsize if memo else 0
    span("decorated.enumerate_tight", "calls", "s")
    out["decorated.enumerate_tight.classes"] = tracer.counters["decorated.enumerate_tight.classes"]
    span("decorated.shuffle_euler_on_disk", "calls", "s")
    span("decorated.is_tight", "calls", "s")
    ratio("decorated.is_tight", "tight")
    span("unknots.classify", "calls", "self_s")
    span("unknots.classes_at_slope", "calls", "s")
    span("unknots.stabilize", "calls", "s")
    ratio("unknots.stabilize", "loose")
    span("render.classification_dict", "s")
    span("render.format", "s")
    span("cli.run", "calls", "s")
    out["cli.cache_bytes_written"] = result.get("cache_bytes_written", 0)
    out["runtime.gc_s"] = tracer.gc_ns / 1e9 * scale
    out["runtime.gc_collections"] = tracer.gc_collections
    return out


if __name__ == "__main__":
    main()
