"""Memory stays bounded when one process runs many classifications."""

import gc
import importlib
import os
import pkgutil
import subprocess
import sys
import tracemalloc
from math import gcd
from pathlib import Path

import nonloose
from nonloose.unknots import K0, K1, LensSpace, classify


def test_no_memoized_functions():
    for info in pkgutil.iter_modules(nonloose.__path__):
        if info.name == "__main__":
            continue  # importing it runs the CLI
        module = importlib.import_module(f"nonloose.{info.name}")
        for name, obj in vars(module).items():
            members = vars(obj).items() if isinstance(obj, type) else ()
            for qualname, fn in [(name, obj)] + [(f"{name}.{m}", v) for m, v in members]:
                assert not hasattr(fn, "cache_info"), f"nonloose.{info.name}.{qualname}"


def test_classify_retains_no_memory():
    lenses = [LensSpace(p, q) for p in range(2, 21) for q in range(1, p) if gcd(p, q) == 1]
    classify(LensSpace(5, 2), K0, 3)  # let the interpreter set up what it creates lazily
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for lens in lenses:
            for knot in (K0, K1):
                classify(lens, knot, 3)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained < 64 << 10, f"{retained} bytes retained"


# prints the bytes still traced while one classifier's result for L(5,2),
# K0 at k_max=800 is held, after a small call has set up what the
# interpreter creates lazily; a fresh interpreter per classifier, as one
# process drifts by a few bytes from one measurement to the next
_RESULT_SIZE = """
import gc, sys, tracemalloc
from oracles import classify_by_graph
from nonloose.unknots import K0, LensSpace, classify
fn = classify if sys.argv[1] == "classify" else classify_by_graph
fn(LensSpace(5, 2), K0, 3)
gc.collect()
tracemalloc.start()
before = tracemalloc.get_traced_memory()[0]
result = fn(LensSpace(5, 2), K0, 800)
gc.collect()
assert len(result) == 5
print(tracemalloc.get_traced_memory()[0] - before)
"""


def _result_size(name: str) -> int:
    paths = [str(Path(nonloose.__file__).parents[1]), str(Path(__file__).parent)]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}
    run = subprocess.run([sys.executable, "-c", _RESULT_SIZE, name], env=env, capture_output=True, text=True, check=True)
    return int(run.stdout)


def test_built_records_take_no_more_memory_than_constructed_ones():
    built, constructed = _result_size("classify"), _result_size("oracle")
    assert built <= constructed, (built, constructed)
