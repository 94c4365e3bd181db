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
from nonloose.render import classification_dict
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


def test_one_minus_count_tuple_and_payload_list_per_distinct_counts():
    # the levels of one call that have equal block sizes share their
    # classes' minus-count tuples, and the payload shares one minus list
    # per distinct counts; here that is one of each per distinct value
    lens = LensSpace(5, 2)
    ranges = classify(lens, K0, 800)
    counts = [m.cls.complement.minus_counts for mr in ranges for m in mr.members]
    assert len(counts) == 6401 and len(set(counts)) == len({id(c) for c in counts}) == 17
    payload = classification_dict(lens, K0, 800, ranges)
    lists = [m["complement"]["minus"] for r in payload["ranges"] for m in r["members"]]
    assert len(lists) == 6401 and len({id(x) for x in lists}) == 17


# prints the GC-tracked objects per range member that one classifier's
# result for L(5,2), K0 at k_max=800 adds, with the collector off from
# before the call, as no collection has yet untracked a tuple of ints when
# a call returns: what the next collections scan
_TRACKED_PER_MEMBER = """
import gc, sys
from oracles import classify_by_graph
from nonloose.unknots import K0, LensSpace, classify
fn = classify if sys.argv[1] == "classify" else classify_by_graph
fn(LensSpace(5, 2), K0, 3)
gc.collect()
gc.disable()
before = len(gc.get_objects())
result = fn(LensSpace(5, 2), K0, 800)
print((len(gc.get_objects()) - before) / sum(len(mr.members) for mr in result))
"""


def _tracked_per_member(name: str) -> float:
    paths = [str(Path(nonloose.__file__).parents[1]), str(Path(__file__).parent)]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}
    args = [sys.executable, "-c", _TRACKED_PER_MEMBER, name]
    return float(subprocess.run(args, env=env, capture_output=True, text=True, check=True).stdout)


def test_classify_leaves_a_tracked_object_per_member_fewer_than_the_graph_oracle():
    # 4.5 against 5.5 on Python 3.11: the oracle's result holds one minus
    # tuple per class.  A difference, as 3.10 materialises instance dicts
    built, constructed = _tracked_per_member("classify"), _tracked_per_member("oracle")
    assert built <= constructed - 0.9, (built, constructed)
