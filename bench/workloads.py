"""Benchmark workloads: seeded inputs, closed-loop runners and output checks.

Every workload is a single caller that issues the next public call when
the previous one returns.  Each call is timed on its own; the checks on
its output run between calls and are not timed.  Inputs are built from
the workload seed with the standard library alone, before anything is
timed, and never repeat within one process, because the package keeps
process-wide memo tables that would otherwise turn repeats into cache
reads.

Expected outputs come from two places.  Integer identities that need no
reference data (continued fractions, Farey neighbours, tight counts) are
recomputed here from first principles.  Classification payloads and
tightness verdicts are compared with digests recorded at the seed commit
in ``expected.json`` (see ``make_expected.py``).
"""

from __future__ import annotations

import gc
import hashlib
import io
import json
import os
import random
import shutil
import signal
from math import gcd, prod
from statistics import median
from time import thread_time

FORMATS = ("table", "json", "csv", "svg")

# --------------------------------------------------------------------------
# Reference arithmetic on slopes given as (num, den) pairs with den > 0.


def ref_cf(num: int, den: int) -> list[int]:
    """Negative continued fraction [a_0, ..., a_n] of num/den < -1."""
    coeffs = []
    while den != 1:
        a = num // den
        coeffs.append(a)
        num, den = -den, num - a * den
    coeffs.append(num)
    return coeffs


def ref_successor(num: int, den: int) -> tuple[int, int]:
    """Largest Farey neighbour a/b > num/den: a*den - b*num = 1 with the
    least b >= 1."""
    b = 1 if den == 1 else pow(-num, -1, den)
    return (1 + b * num) // den, b


def ref_ancestor(num: int, den: int) -> tuple[int, int]:
    """Smallest-denominator Farey neighbour below num/den; 1/0 for integers."""
    if den == 1:
        return 1, 0
    b = pow(num, -1, den)
    return (b * num - 1) // den, b


def ref_path_to_zero(num: int, den: int) -> list[tuple[int, int]]:
    """Minimal clockwise path from num/den < -1 to 0: successors up to -1."""
    out = [(num, den)]
    while out[-1] != (-1, 1):
        out.append(ref_successor(*out[-1]))
    out.append((0, 1))
    return out


def ref_blocks(vertices) -> list[list[int]]:
    """Edge indices grouped into continued fraction blocks: consecutive
    edges share a block when the outer vertices have determinant +-2."""
    blocks = [[0]]
    for e in range(1, len(vertices) - 1):
        (a, b), (c, d) = vertices[e - 1], vertices[e + 1]
        if abs(a * d - b * c) == 2:
            blocks[-1].append(e)
        else:
            blocks.append([e])
    return blocks


def digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def classify_key(p: int, q: int, knot: str, k_max: int) -> str:
    return f"{p},{q},{knot},{k_max}"


# --------------------------------------------------------------------------
# Inputs.  Every generator returns plain integers and strings.

SWEEP_P = {"full": 30, "tiny": 8}
SWEEP_K_MAX = 3

# deep: a fixed order that the seed does not change.  Its calls share memo
# entries, so any reordering changes which call pays for them: over the six
# orders of these three groups the median call took 880 to 1017 ms.
DEEP_INPUTS = {
    "full": [(p, 1, "K0", 3) for p in (50, 100, 150, 200)]
    + [(5, 2, "K0", 800), (5, 2, "K1", 800), (1000, 377, "K0", 8), (1000, 377, "K1", 8)],
    "tiny": [(30, 1, "K0", 3), (7, 3, "K1", 3), (11, 4, "K0", 3)],
}

# calculus: total vertices of the slopes' minimal paths to 0, is_tight
# paths, lenses per p, bound on p.  Slopes are drawn until their paths
# reach the vertex total, so every seed asks for about the same amount of
# path-walking work however long its individual paths are.
CALCULUS = {"full": (170_000, 400, 2, 200), "tiny": (1_500, 12, 1, 20)}
SLOPE_NUM_MAX = 10**6
# slopes whose minimal path to 0 is longer than this are redrawn: it bounds
# per-call cost and keeps the package's 10 000-vertex path cap out of reach
SLOPE_PATH_MAX = 300
TIGHT_UNIVERSE = 3000
TIGHT_CONTEXTS = ("torus", "upper", "lower")

# cli: the orders p queried, each with every coprime q and both knots.  The
# cost of a cold query depends strongly on q, and drawing a few random q
# per p made the work differ by up to a tenth from seed to seed.
CLI = {"full": (13, 29), "tiny": (5,)}


def sweep_inputs(size: str, seed: int) -> list[tuple]:
    items = [
        (p, q, knot, SWEEP_K_MAX)
        for p in range(3, SWEEP_P[size] + 1)
        for q in range(2, p)
        if gcd(p, q) == 1
        for knot in ("K0", "K1")
    ]
    random.Random(seed).shuffle(items)
    return items


def deep_inputs(size: str) -> list[tuple]:
    return list(DEEP_INPUTS[size])


def tight_universe(n: int = TIGHT_UNIVERSE) -> list[tuple]:
    """Seed-independent list of distinct non-minimal decorated paths
    (context, vertices, signs), each a short minimal path with random
    mediants inserted and random signs; signs are +1, -1 or 0 (unsigned)."""
    rng = random.Random(20001017)
    seen: set = set()
    out = []
    while len(out) < n:
        kind = TIGHT_CONTEXTS[len(out) % 3]
        den = rng.randint(1, 9)
        num = -rng.randint(den + 1, 6 * den)
        if gcd(num, den) != 1:
            continue
        chain = ref_path_to_zero(num, den)[:-1]  # stay strictly below 0
        length = rng.randint(2, 4)
        if len(chain) <= length:
            continue
        verts = chain[: length + 1]
        for _ in range(rng.randint(1, 3)):
            e = rng.randrange(len(verts) - 1)
            (a, b), (c, d) = verts[e], verts[e + 1]
            verts.insert(e + 1, (a + c, b + d))
        signs = [rng.choice((1, -1)) for _ in range(len(verts) - 1)]
        if kind == "upper":
            signs[-1] = 0
        elif kind == "lower":
            signs[0] = 0
        item = (kind, tuple(verts), tuple(signs))
        if item not in seen:
            seen.add(item)
            out.append(item)
    return out


def calculus_inputs(size: str, seed: int) -> dict:
    vertex_budget, n_paths, per_p, p_bound = CALCULUS[size]
    rng = random.Random(seed)
    slopes: list[tuple[int, int]] = []
    seen: set = set()
    vertices = 0
    while vertices < vertex_budget:
        num = rng.randint(3, SLOPE_NUM_MAX)
        den = rng.randint(2, num - 1)
        if gcd(num, den) != 1 or (num, den) in seen:
            continue
        length = len(ref_path_to_zero(-num, den))
        if length > SLOPE_PATH_MAX:
            continue
        seen.add((num, den))
        slopes.append((-num, den))
        vertices += length
    paths = rng.sample(range(TIGHT_UNIVERSE), n_paths)
    lenses = []
    for p in range(3, p_bound):
        qs = [q for q in range(1, p) if gcd(p, q) == 1]
        lenses.extend((p, q) for q in rng.sample(qs, min(per_p, len(qs))))
    rng.shuffle(lenses)
    return {"slopes": slopes, "paths": paths, "lenses": lenses}


def cli_inputs(size: str, seed: int) -> list[tuple]:
    rng = random.Random(seed)
    queries = [
        (p, q, knot, SWEEP_K_MAX, rng.choice(FORMATS))
        for p in CLI[size]
        for q in range(2, p)
        if gcd(p, q) == 1
        for knot in ("K0", "K1")
    ]
    rng.shuffle(queries)
    return queries


def require_distinct(items) -> None:
    if len(set(items)) != len(items):
        raise SystemExit("benchmark inputs repeat within one run")


# --------------------------------------------------------------------------
# Processor speed.  On a virtual machine shared with other tenants, even in
# processor time the same work can take 1.7 times as long from one tenth of
# a second to the next.  So a fixed piece of pure-Python work runs from a profiling-timer
# signal once per YARDSTICK_EVERY_S of the process's processor time, its
# own time is taken out of the call it interrupted, and each call's time is
# scaled to a processor on which that piece takes exactly YARDSTICK_REF_S:
# by the samples taken during the call when there are at least
# YARDSTICK_MIN_SAMPLES of them, otherwise by all samples of the process.

YARDSTICK_EVERY_S = 0.01
YARDSTICK_REF_S = 0.001
YARDSTICK_MIN_SAMPLES = 30


def yardstick_piece() -> None:
    """The fixed work: Farey chains and a dictionary of tuples, the kind of
    work the package does, with the benchmark's own code."""
    counts: dict = {}
    for n in range(30):
        for v in ref_path_to_zero(-(1000 + 37 * n), 37):
            counts[v] = counts.get(v, 0) + 1


class Yardstick:
    """Processor time of the fixed work, sampled during a loop."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.sample_call: list[int] = []  # call in progress per sample, or -1
        self.call = -1
        self.handler_runs: list[tuple[float, float]] = []  # (start, seconds)
        self.handler_ns = 0  # all handler time, for span clocks

    def measure(self) -> None:
        # with collection off, the package's heap cannot change the piece's
        # cost; the piece frees all it allocates
        enabled = gc.isenabled()
        gc.disable()
        t0 = thread_time()
        yardstick_piece()
        self.samples.append(thread_time() - t0)
        self.sample_call.append(self.call)
        if enabled:
            gc.enable()

    def _on_signal(self, signum, frame) -> None:
        t0 = thread_time()
        self.measure()
        seconds = thread_time() - t0
        self.handler_runs.append((t0, seconds))
        self.handler_ns += int(seconds * 1e9)

    def handler_time(self, since: int, t0: float, t1: float) -> float:
        """Handler time from run index ``since`` on that started in [t0, t1)."""
        return sum(d for start, d in self.handler_runs[since:] if t0 <= start < t1)

    def start(self) -> None:
        signal.signal(signal.SIGPROF, self._on_signal)
        signal.setitimer(signal.ITIMER_PROF, YARDSTICK_EVERY_S, YARDSTICK_EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)
        while len(self.samples) < YARDSTICK_MIN_SAMPLES:
            self.measure()

    def overall_scale(self) -> float:
        return YARDSTICK_REF_S * len(self.samples) / sum(self.samples)

    def scales(self, calls: int) -> list[float]:
        """Per call, the factor from measured processor time to reference
        time.  Call stop() first."""
        overall = self.overall_scale()
        during: dict[int, list[float]] = {}
        for call, t in zip(self.sample_call, self.samples):
            during.setdefault(call, []).append(t)
        out = [overall] * calls
        for call, ts in during.items():
            if call >= 0 and len(ts) >= YARDSTICK_MIN_SAMPLES:
                out[call] = YARDSTICK_REF_S * len(ts) / sum(ts)
        return out


# --------------------------------------------------------------------------
# Closed loop.


class Loop:
    """One caller timing each call it issues, and tallying failed calls.

    Calls are timed in processor time of the calling thread, which on a
    shared virtual machine leaves out the time the host gives other guests,
    and less the yardstick's time (see above).  A loop samples the
    yardstick from its creation until summarize().

    A call that raises and a call whose output fails its check both count
    as one failed call; the first few messages are kept for the report.
    """

    FAILED = object()

    def __init__(self, tracer=None) -> None:
        self.tracer = tracer
        self.latencies: list[float] = []
        self.failed: set[int] = set()
        self.messages: list[str] = []
        self.yardstick = Yardstick()
        if tracer is not None:
            tracer.yardstick = self.yardstick
        self.yardstick.start()

    def call(self, fn, *args, **kwargs):
        tracer = self.tracer
        yardstick = self.yardstick
        yardstick.call = len(self.latencies)
        if tracer is not None:
            tracer.active = True
        runs = len(yardstick.handler_runs)
        t0 = thread_time()
        try:
            return fn(*args, **kwargs)
        except Exception as exc:  # a failing call is a result, not a crash
            self._fail(len(self.latencies), f"{getattr(fn, '__name__', fn)}{args!r}: {exc!r}")
            return Loop.FAILED
        finally:
            t1 = thread_time()
            self.latencies.append(t1 - t0 - yardstick.handler_time(runs, t0, t1))
            if tracer is not None:
                tracer.active = False
            yardstick.call = -1

    def check(self, ok: bool, what) -> None:
        """Count the latest call as failed unless its output is right."""
        if not ok:
            self._fail(len(self.latencies) - 1, f"wrong output: {what}")

    def _fail(self, index: int, message: str) -> None:
        if index not in self.failed and len(self.messages) < 5:
            self.messages.append(message)
        self.failed.add(index)


# tail percentiles in basis points, highest first
TAIL_LADDER_BP = (9999, 9990, 9900, 9000)


def _tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile in TAIL_LADDER_BP with
    at least ten samples beyond it; the maximum when none has."""
    ordered = sorted(samples)
    n = len(ordered)
    for bp in TAIL_LADDER_BP:
        rank = -(-bp * n // 10000)  # nearest rank, ceil(bp * n / 10000)
        if n - rank >= 10:
            return ordered[rank - 1], bp / 100
    return ordered[-1], 100.0


def summarize(loop: Loop, p50s: dict | None = None, extra: dict | None = None) -> dict:
    """Per-process figures, times in reference time; ``p50s`` maps a
    metric name to the indices of the calls whose median it reports."""
    loop.yardstick.stop()
    scales = loop.yardstick.scales(len(loop.latencies))
    lat = [t * f for t, f in zip(loop.latencies, scales)]
    wall = sum(lat)
    tail, tail_pct = _tail(lat)
    out = {
        "calls": len(lat),
        "failed": len(loop.failed),
        "messages": loop.messages,
        "wall_s": wall,
        "ops_per_s": len(lat) / wall,
        "op_p50_ms": median(lat) * 1e3,
        "op_tail_ms": tail * 1e3,
        "tail_pct": tail_pct,
        "cpu_s": sum(loop.latencies),
        "scale": loop.yardstick.overall_scale(),
    }
    for name, indices in (p50s or {}).items():
        out[name] = median(lat[i] for i in indices) * 1e3
    out.update(extra or {})
    return out


# --------------------------------------------------------------------------
# Workloads.  Each takes the imported package modules by layer name, the
# input size and seed, the expected-output tables, a tracer or None, and a
# scratch directory inside the checkout.


def _classify_checked(loop: Loop, nl, expected: dict, item: tuple) -> None:
    p, q, knot_name, k_max = item
    unknots, render = nl["unknots"], nl["render"]
    lens = unknots.LensSpace(p, q)
    knot = unknots.KnotId.parse(knot_name)
    ranges = loop.call(unknots.classify, lens, knot, k_max)
    if ranges is Loop.FAILED:
        return
    payload = render.classification_dict(lens, knot, k_max, ranges)
    ok = (
        unknots.range_counts(lens, knot) == unknots.measured_counts(ranges, lens)
        and len({mr.euler % p for mr in ranges}) >= 2
        and digest(payload) == expected["classify"].get(classify_key(*item))
    )
    loop.check(ok, item)


def _run_classify(nl, items: list[tuple], expected: dict, tracer) -> dict:
    require_distinct(items)
    loop = Loop(tracer)
    for item in items:
        _classify_checked(loop, nl, expected, item)
    return summarize(loop)


def run_sweep(nl, size: str, seed: int, expected: dict, tracer, workdir: str) -> dict:
    return _run_classify(nl, sweep_inputs(size, seed), expected, tracer)


def run_deep(nl, size: str, seed: int, expected: dict, tracer, workdir: str) -> dict:
    return _run_classify(nl, deep_inputs(size), expected, tracer)


def _decorated_input(nl, item: tuple):
    farey, cfrac, dec = nl["farey"], nl["cfrac"], nl["decorated"]
    kind, verts, signs = item
    v = tuple(farey.Slope(a, b) for a, b in verts)
    d = dec.DecoratedPath(cfrac.FareyPath(v), tuple(dec.Sign(s) for s in signs))
    if kind == "torus":
        ctx = dec.ThickenedTorus(v[0], v[-1])
    elif kind == "upper":
        ctx = dec.UpperSolidTorus(meridian=v[-1], boundary=v[0])
    else:
        ctx = dec.LowerSolidTorus(meridian=v[0], boundary=v[-1])
    return d, ctx


def _pair(s) -> tuple[int, int]:
    return s.num, s.den


def run_calculus(nl, size: str, seed: int, expected: dict, tracer, workdir: str) -> dict:
    farey, cfrac, dec = nl["farey"], nl["cfrac"], nl["decorated"]
    Slope = farey.Slope
    inputs = calculus_inputs(size, seed)
    require_distinct(inputs["slopes"])
    require_distinct(inputs["paths"])
    require_distinct(inputs["lenses"])
    universe = tight_universe()
    verdicts = expected["is_tight"]
    if len(verdicts) != len(universe):
        raise SystemExit("expected.json: is_tight table does not match the path universe")
    # build every program-side input before the first timed call
    slopes = []
    for num, den in inputs["slopes"]:
        t = ref_successor(num, den)
        m = (num + t[0], den + t[1])
        slopes.append((Slope(num, den), Slope(*t), Slope(*m)))
    paths = [(i, *_decorated_input(nl, universe[i])) for i in inputs["paths"]]
    lenses = [(p, q, dec.Lens(p, q)) for p, q in inputs["lenses"]]
    zero = farey.ZERO

    loop = Loop(tracer)
    call, check = loop.call, loop.check
    for s, t, m in slopes:
        num, den = s.num, s.den
        coeffs = ref_cf(num, den)
        cf = call(cfrac.expand, s)
        check(cf is not Loop.FAILED and list(cf.coeffs) == coeffs, ("expand", num, den))
        if cf is not Loop.FAILED:
            v = call(cfrac.value, cf)
            check(v is not Loop.FAILED and _pair(v) == (num, den), ("value", num, den))
        succ = call(cfrac.successor, s)
        check(
            succ is not Loop.FAILED
            and _pair(succ) == _pair(t)
            and abs(num * succ.den - den * succ.num) == 1,
            ("successor", num, den),
        )
        anc = call(cfrac.ancestor, s)
        check(anc is not Loop.FAILED and _pair(anc) == ref_ancestor(num, den), ("ancestor", num, den))
        path = call(cfrac.minimal_path, s, zero)
        ref_path = ref_path_to_zero(num, den)
        ok = path is not Loop.FAILED and [_pair(x) for x in path.vertices] == ref_path
        check(ok, ("minimal_path", num, den))
        if ok:
            blocks = call(cfrac.block_structure, path)
            want = [tuple(b) for b in ref_blocks(ref_path)]
            check(blocks is not Loop.FAILED and list(blocks) == want, ("block_structure", num, den))
        ms = call(farey.farey_sum, s, t)
        check(ms is not Loop.FAILED and _pair(ms) == _pair(m), ("farey_sum", num, den))
        dt = call(farey.dot, s, t)
        check(dt == num * t.den - den * t.num, ("dot", num, den))
        check(call(farey.has_edge, s, t) is True, ("has_edge", num, den))
        check(call(farey.cw_between, s, m, t) is True, ("cw_between", num, den))

    for i, d, ctx in paths:
        verdict = call(dec.is_tight, d, ctx)
        check(verdict is (verdicts[i] == "1"), ("is_tight", i))

    for p, q, lens in lenses:
        classes = call(dec.enumerate_tight, lens)
        count = call(dec.count_tight, lens)
        if classes is Loop.FAILED or count is Loop.FAILED:
            continue
        ref_path = ref_path_to_zero(-p, q)
        ok = count == len(classes) == abs(prod(a + 1 for a in ref_cf(-p, q)))
        if ok:
            sizes = [
                sum(1 for e in blk if e not in (0, len(ref_path) - 2))
                for blk in ref_blocks(ref_path)
            ]
            ok = all(
                [_pair(x) for x in c.path] == ref_path
                and c.unsigned_positions == (0, len(ref_path) - 2)
                and len(c.minus_counts) == len(sizes)
                and all(0 <= k <= n for k, n in zip(c.minus_counts, sizes))
                for c in classes
            ) and len({c.minus_counts for c in classes}) == len(classes)
        check(ok, ("enumerate_tight", p, q))
    return summarize(loop)


def run_cli(nl, size: str, seed: int, expected: dict, tracer, workdir: str) -> dict:
    cli = nl["cli"]
    queries = cli_inputs(size, seed)
    require_distinct([q[:4] for q in queries])
    loop = Loop(tracer)
    cold: list[int] = []  # call indices
    warm: list[int] = []
    written = 0
    root = os.path.join(workdir, f"cli-{os.getpid()}")
    try:
        for n, (p, q, knot, k_max, cold_format) in enumerate(queries):
            cache = os.path.join(root, str(n))
            argv = ["classify", str(p), str(q), "--knot", knot, "--kmax", str(k_max), "--cache-dir", cache]
            out, err = io.StringIO(), io.StringIO()
            code = loop.call(cli.run, argv + ["--format", cold_format], stdout=out, stderr=err)
            cold.append(len(loop.latencies) - 1)
            loop.check(code == 0 and not err.getvalue(), ("cold", p, q, knot, code, err.getvalue()))
            cold_out = out.getvalue()
            written += sum(e.stat().st_size for e in os.scandir(cache)) if os.path.isdir(cache) else 0
            for fmt in FORMATS:
                out, err = io.StringIO(), io.StringIO()
                code = loop.call(cli.run, argv + ["--format", fmt], stdout=out, stderr=err)
                warm.append(len(loop.latencies) - 1)
                text = out.getvalue()
                ok = code == 0 and not err.getvalue()
                if fmt == cold_format:
                    ok = ok and text == cold_out
                if fmt == "json" and ok:
                    key = classify_key(p, q, knot, k_max)
                    ok = digest(json.loads(text)) == expected["classify"].get(key)
                loop.check(ok, ("warm", fmt, p, q, knot, code))
    finally:
        shutil.rmtree(root, ignore_errors=True)
    return summarize(
        loop,
        p50s={"cold_p50_ms": cold, "warm_p50_ms": warm},
        extra={"cache_bytes_written": written},
    )


WORKLOADS = {"sweep": run_sweep, "deep": run_deep, "calculus": run_calculus, "cli": run_cli}
