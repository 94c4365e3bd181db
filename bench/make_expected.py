"""Record the expected outputs the benchmark checks against.

Run from the repository root on the commit whose outputs are the
reference (the outputs of the package must never change):

    python3 bench/make_expected.py

Writes bench/expected.json with
- "classify": digest of render.classification_dict for every classify
  input any workload can draw (k_max = 3 on both cores of every coprime
  1 < q < p up to the largest p the sweep and cli workloads draw, plus
  the deep workload's calls);
- "is_tight": one character per path of workloads.tight_universe(),
  "1" for tight and "0" for overtwisted.
"""

import json
import os
import sys
from math import gcd

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

from nonloose import cfrac, decorated, farey, render, unknots  # noqa: E402
from workloads import (  # noqa: E402
    CLI,
    SWEEP_K_MAX,
    SWEEP_P,
    _decorated_input,
    classify_key,
    deep_inputs,
    digest,
    tight_universe,
)

# the largest p the sweep or the cli workload draws
CLASSIFY_P_MAX = max(SWEEP_P["full"], *CLI["full"])


def main() -> None:
    items = [
        (p, q, knot, SWEEP_K_MAX)
        for p in range(3, CLASSIFY_P_MAX + 1)
        for q in range(2, p)
        if gcd(p, q) == 1
        for knot in ("K0", "K1")
    ]
    items += [c for c in deep_inputs("full") + deep_inputs("tiny") if c not in items]
    table = {}
    for p, q, knot_name, k_max in items:
        lens, knot = unknots.LensSpace(p, q), unknots.KnotId.parse(knot_name)
        ranges = unknots.classify(lens, knot, k_max)
        table[classify_key(p, q, knot_name, k_max)] = digest(
            render.classification_dict(lens, knot, k_max, ranges)
        )
    modules = {"farey": farey, "cfrac": cfrac, "decorated": decorated}
    verdicts = "".join(
        "1" if decorated.is_tight(*_decorated_input(modules, item)) else "0"
        for item in tight_universe()
    )
    with open(os.path.join(HERE, "expected.json"), "w") as f:
        json.dump({"classify": table, "is_tight": verdicts}, f, indent=0, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    main()
