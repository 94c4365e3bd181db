"""Memory stays bounded when one process runs many classifications."""

import gc
import importlib
import pkgutil
import tracemalloc
from math import gcd

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
