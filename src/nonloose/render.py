"""Output formatting: tables, JSON, CSV and static SVG mountain ranges.

Every renderer consumes the same JSON-ready payload dictionary, so
cached atlases and fresh classifications produce byte-identical output.
The JSON writer has one flat writer per atlas schema object: on a payload
in the schema it emits the bytes `json.dumps` gives with `indent=2`, and on
anything else it raises `ValueError` where an object has the wrong type or
keys, and `TypeError` where a list, str or int (bools excluded) does.  The
SVG writer formats each member's position once, for its segments and marker.
"""

from __future__ import annotations

# json.dumps's own string escaper, which raises TypeError on a non-str
from json.encoder import encode_basestring_ascii as _str

from .unknots import KnotId, LensSpace, MountainRange


def classification_dict(
    lens: LensSpace, knot: KnotId, k_max: int, ranges: list[MountainRange]
) -> dict:
    """The JSON-ready atlas of one lens and knot.  Treat it as read-only: members
    of a level share its path text list, and equal minus counts one minus list."""
    paths = {m.cls.k: m.cls.complement.path for mr in ranges for m in mr.members}
    texts = {k: [str(s) for s in path] for k, path in paths.items()}
    minus = {c: list(c) for c in {m.cls.complement.minus_counts for mr in ranges for m in mr.members}}
    return {
        "lens": {"p": lens.p, "q": lens.q},
        "knot": str(knot),
        "k_max": k_max,
        "ranges": [
            {
                "kind": str(mr.kind),
                # Fraction text is exact "a/b", integers bare, never decimals
                "base": [str(mr.base_rot), str(mr.base_tb)],
                "euler": mr.euler,
                "members": [
                    {
                        "id": m.member_id,
                        "arm": m.arm,
                        "index": m.index,
                        "tb": str(m.cls.tb_q),
                        "rot": str(m.cls.rot_q),
                        "slope": str(m.cls.dividing_slope),
                        "complement": {"path": texts[m.cls.k], "minus": minus[m.cls.complement.minus_counts]},
                    }
                    for m in mr.members
                ],
                "stabilizations": [
                    {"source": e.source, "sign": str(e.sign), "target": e.target if e.target is not None else "loose"}
                    for e in mr.edges
                ],
            }
            for mr in ranges
        ],
    }


def _checked(obj, keys: tuple) -> dict:
    if not isinstance(obj, dict) or tuple(obj) != keys:
        raise ValueError(f"expected an atlas object with keys {keys}")
    return obj


def _int(value) -> str:
    if type(value) is not int:
        raise TypeError(f"expected an int, got {type(value).__name__}")
    return repr(value)


# a new line and the indent of each nesting depth, as json.dumps writes them with indent=2
_PADS = tuple("\n" + "  " * depth for depth in range(8))
_SEPS = tuple("," + pad for pad in _PADS)


def _array(values, item, depth: int) -> str:
    # a list at this nesting depth whose values item writes
    if not isinstance(values, (list, tuple)):
        raise TypeError(f"expected a list, got {type(values).__name__}")
    return f"[{_PADS[depth + 1]}{_SEPS[depth + 1].join(map(item, values))}{_PADS[depth]}]" if values else "[]"


# The writers of the atlas objects: each f-string is its object's layout, and
# writes the fields in key order, so the first defect in key order raises.
def _edge(edge) -> str:
    source, sign, target = _checked(edge, ("source", "sign", "target")).values()
    return f"""{{
          "source": {_str(source)},
          "sign": {_str(sign)},
          "target": {_str(target)}
        }}"""


def _member(member) -> str:
    keys = ("id", "arm", "index", "tb", "rot", "slope", "complement")
    id_, arm, index, tb, rot, slope, complement = _checked(member, keys).values()
    return f"""{{
          "id": {_str(id_)},
          "arm": {_str(arm)},
          "index": {_int(index)},
          "tb": {_str(tb)},
          "rot": {_str(rot)},
          "slope": {_str(slope)},
          "complement": {{
            "path": {_array(_checked(complement, ("path", "minus"))["path"], _str, 6)},
            "minus": {_array(complement["minus"], _int, 6)}
          }}
        }}"""


def _range(range_) -> str:
    keys = ("kind", "base", "euler", "members", "stabilizations")
    kind, base, euler, members, stabilizations = _checked(range_, keys).values()
    return f"""{{
      "kind": {_str(kind)},
      "base": {_array(base, _str, 3)},
      "euler": {_int(euler)},
      "members": {_array(members, _member, 3)},
      "stabilizations": {_array(stabilizations, _edge, 3)}
    }}"""


def classification_json(payload: dict) -> str:
    lens, knot, k_max, ranges = _checked(payload, ("lens", "knot", "k_max", "ranges")).values()
    return f"""{{
  "lens": {{
    "p": {_int(_checked(lens, ("p", "q"))["p"])},
    "q": {_int(lens["q"])}
  }},
  "knot": {_str(knot)},
  "k_max": {_int(k_max)},
  "ranges": {_array(ranges, _range, 1)}
}}\n"""


def classification_csv(payload: dict) -> str:
    rows = [f"{r['kind']},{r['base'][0]},{r['base'][1]},{r['euler']}\n" for r in payload["ranges"]]
    return "kind,rot_base,tb_base,euler\n" + "".join(rows)


def classification_table(payload: dict) -> str:
    lens, knot = payload["lens"], payload["knot"]
    head = f"L({lens['p']},{lens['q']}) {knot}: {len(payload['ranges'])} mountain ranges (k_max={payload['k_max']})"
    lines = [head, "-" * len(head)]
    for r in payload["ranges"]:
        lines.append(f"{r['kind']:<14} base=({r['base'][0]}, {r['base'][1]})  euler={r['euler']}")
        for m in r["members"]:
            tag = "base" if m["arm"] == "base" else f"{m['arm']}{m['index']}"
            lines.append(f"    {tag:<6} tb={m['tb']:<8} rot={m['rot']:<8} slope={m['slope']} [{m['id']}]")
    return "\n".join(lines) + "\n"


def _float(text: str) -> float:
    # "a/b" or "a": int true division rounds correctly, as Fraction.__float__ does
    num, _, den = str.partition(text, "/")
    return int(num) / int(den or 1)


def classification_svg(payload: dict) -> str:
    """Static mountain-range plot: rotation on x, tb on y, one marker per
    member, stabilization arms drawn as segments."""
    ranges = payload["ranges"]
    # each member's (rot, tb), parsed once and grouped by range
    values = [[(_float(m["rot"]), _float(m["tb"])) for m in r["members"]] for r in ranges]
    rots = [rot for vs in values for rot, _ in vs]
    tbs = [tb for vs in values for _, tb in vs]
    lo_r, hi_r = min(rots, default=0.0) - 0.5, max(rots, default=0.0) + 0.5
    lo_t, hi_t = min(tbs, default=0.0) - 0.5, max(tbs, default=0.0) + 0.5
    width, height, margin = 640, 480, 48

    def x(rot: float) -> float:
        return margin + (rot - lo_r) / (hi_r - lo_r) * (width - 2 * margin)

    def y(tb: float) -> float:
        return height - margin - (tb - lo_t) / (hi_t - lo_t) * (height - 2 * margin)

    lens, knot = payload["lens"], payload["knot"]
    colors = ["#1f6feb", "#d2322d", "#2c8a3d", "#8250df", "#b08800", "#0b7285"]
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f"<title>L({lens['p']},{lens['q']}) {knot} non-loose mountain ranges</title>",
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    if lo_r < 0 < hi_r:
        x0 = f"{x(0):.1f}"
        parts.append(f'<line x1="{x0}" y1="{margin}" x2="{x0}" y2="{height - margin}" stroke="#cccccc"/>')
    for ri, (r, vs) in enumerate(zip(ranges, values)):
        color = colors[ri % len(colors)]
        # each member's position, formatted once for its segments and its marker
        points = [(f"{x(rot):.1f}", f"{y(tb):.1f}") for rot, tb in vs]
        for arm in ("+", "-"):
            chain = [points[0]] + [pt for m, pt in zip(r["members"], points) if m["arm"] == arm]
            for (x1, y1), (x2, y2) in zip(chain, chain[1:]):
                parts.append(f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" stroke="{color}" stroke-width="1.5"/>')
        for m, (cx, cy) in zip(r["members"], points):
            parts.append(f'<circle class="member" cx="{cx}" cy="{cy}" r="4" fill="{color}">'
                         f'<title>rot={m["rot"]} tb={m["tb"]}</title></circle>')
        parts.append(f'<text x="{points[0][0]}" y="{y(vs[0][1]) + 16:.1f}" font-size="11" text-anchor="middle" '
                     f'fill="{color}">({r["base"][0]}, {r["base"][1]})</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
