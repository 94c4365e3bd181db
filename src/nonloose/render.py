"""Output formatting: tables, JSON, CSV and static SVG mountain ranges.

Every renderer consumes the same JSON-ready payload dictionary, so
cached atlases and fresh classifications produce byte-identical output.
The JSON writer knows the atlas schema: on a payload in it, it emits the
bytes `json.dumps` gives with `indent=2`, and on anything else (a missing,
extra or reordered key, a non-dict, non-list or non-str value where the
schema has one, or a value of a type other than `int`, bools included,
where it has an int) it raises `ValueError` or `TypeError`.
"""

from __future__ import annotations

# json.dumps's own string escaper, which raises TypeError on a non-str
from json.encoder import encode_basestring_ascii as _str

from .unknots import KnotId, LensSpace, MountainRange


def classification_dict(
    lens: LensSpace, knot: KnotId, k_max: int, ranges: list[MountainRange]
) -> dict:
    # one lens and knot: the classes of level k share a complement path,
    # so each level's path is printed once
    paths = {m.cls.k: m.cls.complement.path for mr in ranges for m in mr.members}
    texts = {k: [str(s) for s in path] for k, path in paths.items()}
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
                        "complement": {"path": texts[m.cls.k], "minus": list(m.cls.complement.minus_counts)},
                    }
                    for m in mr.members
                ],
                "stabilizations": [
                    {
                        "source": e.source,
                        "sign": str(e.sign),
                        "target": e.target if e.target is not None else "loose",
                    }
                    for e in mr.edges
                ],
            }
            for mr in ranges
        ],
    }


def _lay_out(opening: str, items, closing: str, depth: int) -> str:
    # a non-empty object or array at this nesting depth, as json.dumps lays it out with indent=2
    pad = "\n" + "  " * (depth + 1)
    return opening + pad + ("," + pad).join(items) + "\n" + "  " * depth + closing


def _int(value) -> str:
    if type(value) is not int:
        raise TypeError(f"expected an int, got {type(value).__name__}")
    return repr(value)


def _object(depth: int, **fields):
    # the writer of an object with exactly these keys, in this order, each
    # value written by its field's writer
    keys, writers = tuple(fields), tuple(fields.values())
    template = _lay_out("{{", (f'"{k}": {{}}' for k in keys), "}}", depth)

    def write(obj) -> str:
        if not isinstance(obj, dict) or tuple(obj) != keys:
            raise ValueError(f"expected an atlas object with keys {keys}")
        return template.format(*[field(v) for field, v in zip(writers, obj.values())])

    return write


def _array(item, depth: int):
    # the writer of a list whose values item writes
    def write(values) -> str:
        if not isinstance(values, (list, tuple)):
            raise TypeError(f"expected a list, got {type(values).__name__}")
        return _lay_out("[", map(item, values), "]", depth) if values else "[]"

    return write


# the atlas schema, in classification_dict's key order
_EDGE = _object(4, source=_str, sign=_str, target=_str)
_COMPLEMENT = _object(5, path=_array(_str, 6), minus=_array(_int, 6))
_MEMBER = _object(4, id=_str, arm=_str, index=_int, tb=_str, rot=_str, slope=_str, complement=_COMPLEMENT)
_RANGE = _object(
    2, kind=_str, base=_array(_str, 3), euler=_int, members=_array(_MEMBER, 3), stabilizations=_array(_EDGE, 3)
)
_ATLAS = _object(0, lens=_object(1, p=_int, q=_int), knot=_str, k_max=_int, ranges=_array(_RANGE, 1))


def classification_json(payload: dict) -> str:
    return _ATLAS(payload) + "\n"


def classification_csv(payload: dict) -> str:
    lines = ["kind,rot_base,tb_base,euler"]
    for r in payload["ranges"]:
        lines.append(f"{r['kind']},{r['base'][0]},{r['base'][1]},{r['euler']}")
    return "\n".join(lines) + "\n"


def classification_table(payload: dict) -> str:
    lens, knot = payload["lens"], payload["knot"]
    head = (
        f"L({lens['p']},{lens['q']}) {knot}: {len(payload['ranges'])} mountain "
        f"ranges (k_max={payload['k_max']})"
    )
    lines = [head, "-" * len(head)]
    for r in payload["ranges"]:
        lines.append(
            f"{r['kind']:<14} base=({r['base'][0]}, {r['base'][1]})  euler={r['euler']}"
        )
        for m in r["members"]:
            tag = "base" if m["arm"] == "base" else f"{m['arm']}{m['index']}"
            lines.append(
                f"    {tag:<6} tb={m['tb']:<8} rot={m['rot']:<8}"
                f" slope={m['slope']} [{m['id']}]"
            )
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
        parts.append(
            f'<line x1="{x(0):.1f}" y1="{margin}" x2="{x(0):.1f}" '
            f'y2="{height - margin}" stroke="#cccccc"/>'
        )
    for ri, (r, vs) in enumerate(zip(ranges, values)):
        color = colors[ri % len(colors)]
        points = [(x(rot), y(tb)) for rot, tb in vs]
        for arm in ("+", "-"):
            chain = [points[0]] + [pt for m, pt in zip(r["members"], points) if m["arm"] == arm]
            for (x1, y1), (x2, y2) in zip(chain, chain[1:]):
                parts.append(
                    f'<line x1="{x1:.1f}" y1="{y1:.1f}" x2="{x2:.1f}" y2="{y2:.1f}" '
                    f'stroke="{color}" stroke-width="1.5"/>'
                )
        for m, (cx, cy) in zip(r["members"], points):
            parts.append(
                f'<circle class="member" cx="{cx:.1f}" cy="{cy:.1f}" r="4" '
                f'fill="{color}"><title>rot={m["rot"]} tb={m["tb"]}</title></circle>'
            )
        bx, by = points[0]
        parts.append(
            f'<text x="{bx:.1f}" y="{by + 16:.1f}" font-size="11" '
            f'text-anchor="middle" fill="{color}">({r["base"][0]}, {r["base"][1]})</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
