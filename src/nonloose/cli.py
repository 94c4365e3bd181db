"""Command-line front end for the rational-unknot classifier.

One-shot queries only; every output is deterministic for a given argv.
Exit codes: 0 success, 1 domain error, 2 usage error.

Each command line is parsed by its command's own parser, as the top parser
would pass it on unchanged; the top one only answers help and usage errors.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import tempfile
from dataclasses import asdict
from pathlib import Path
from typing import Optional

from . import render
from .cables import (
    CableSpec,
    LegendrianInvariants,
    divide_cable_tb,
    cable_rot,
    negative_cable_tb,
    positive_cable,
    ruling_cable_tb,
    self_linking,
    transnonsimple_family,
)
from .cfrac import FareyPath, expand, minimal_path
from .decorated import (
    DecoratedPath,
    DecorationError,
    LowerSolidTorus,
    Sign,
    ThickenedTorus,
    UpperSolidTorus,
    count_tight,
    is_tight,
)
from .farey import Slope, dot, farey_sum, has_edge
from .unknots import (
    Existence,
    Flavor,
    KnotId,
    LensSpace,
    TopologyFacts,
    admits_nonloose,
    classify,
)

FORMATS = ("table", "json", "csv", "svg")
KNOTS = ("K0", "K1", "-K0", "-K1")
# part of every cache file name; bump it when the cached payload changes
CACHE_SCHEMA = 1
# path check's contexts, each built from the path's first and last vertex
_PATH_CONTEXTS = {
    "torus": ThickenedTorus,
    "upper": lambda first, last: UpperSolidTorus(meridian=last, boundary=first),
    "lower": LowerSolidTorus,
}
# tight-count solid's sides: the argparse choices and the context built
_SOLID_TORI = {"upper": UpperSolidTorus, "lower": LowerSolidTorus}


class _ParseEnd(Exception):
    """argv parsing ended early: (exit code, text for stdout if 0 else stderr)"""


class _Parser(argparse.ArgumentParser):
    # raise instead of printing or exiting so run() controls streams and codes
    def error(self, message):
        raise _ParseEnd(2, f"usage error: {message}\n")

    def print_help(self, file=None):
        raise _ParseEnd(0, self.format_help())

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # let negative slopes like -5/2 parse as positional arguments
        self._negative_number_matcher = re.compile(r"^-\d+(/\d+)?$")


def _line(value):
    # a leaf handler printing value(args) on one line
    return lambda args, out: out.write(f"{value(args)}\n")


def _fields(value):
    # a leaf handler printing the dict value(args) on one line: JSON under
    # --format json, else k=v pairs
    def text(args) -> str:
        fields = value(args)
        if getattr(args, "format", None) == "json":
            return json.dumps(fields)
        return " ".join(f"{k}={v}" for k, v in fields.items())

    return _line(text)


def _build_parser() -> _Parser:
    # every leaf parser binds its handler as args.run, top.commands maps each
    # command to its parser, and help omits the docstring's last paragraph
    top = _Parser(prog="nonloose", description=__doc__ and __doc__.rpartition("\n\n")[0])
    sub = top.add_subparsers(dest="command", required=True)

    cl = sub.add_parser("classify", help="mountain ranges of a rational unknot")
    cl.add_argument("p", type=int)
    cl.add_argument("q", type=int)
    cl.add_argument("--knot", default="K0", choices=KNOTS)
    cl.add_argument("--kmax", type=int, default=5)
    cl.add_argument("--format", default=None, choices=FORMATS)
    cl.add_argument("--cache-dir", default=None)
    cl.set_defaults(run=_run_classify)

    tc = sub.add_parser("tight-count", help="count tight contact structures")
    tsub = tc.add_subparsers(dest="space", required=True)
    t_lens = tsub.add_parser("lens")
    t_lens.add_argument("p", type=int)
    t_lens.add_argument("q", type=int)
    t_lens.set_defaults(run=_line(lambda a: count_tight(LensSpace(a.p, a.q))))
    t_torus = tsub.add_parser("torus")
    t_torus.add_argument("s0")
    t_torus.add_argument("s1")
    t_torus.set_defaults(run=_line(lambda a: count_tight(ThickenedTorus(Slope.parse(a.s0), Slope.parse(a.s1)))))
    t_solid = tsub.add_parser("solid")
    t_solid.add_argument("side", choices=_SOLID_TORI)
    t_solid.add_argument("meridian")
    t_solid.add_argument("boundary")
    t_solid.set_defaults(run=_line(lambda a: count_tight(_SOLID_TORI[a.side](Slope.parse(a.meridian), Slope.parse(a.boundary)))))

    fa = sub.add_parser("farey", help="Farey-circle utilities")
    fsub = fa.add_subparsers(dest="op", required=True)
    for name, op in (("sum", farey_sum), ("dot", dot), ("edge", lambda x, y: str(has_edge(x, y)).lower())):
        p = fsub.add_parser(name)
        p.add_argument("x")
        p.add_argument("y")
        p.set_defaults(run=_line(lambda a, op=op: op(Slope.parse(a.x), Slope.parse(a.y))))
    f_path = fsub.add_parser("path")
    f_path.add_argument("start")
    f_path.add_argument("end")
    f_path.set_defaults(run=_line(lambda a: json.dumps(list(map(str, minimal_path(Slope.parse(a.start), Slope.parse(a.end)).vertices)))))
    f_cf = fsub.add_parser("cf")
    f_cf.add_argument("slope")
    f_cf.set_defaults(run=_line(lambda a: expand(Slope.parse(a.slope))))

    pa = sub.add_parser("path", help="decorated path queries")
    psub = pa.add_subparsers(dest="op", required=True)
    p_check = psub.add_parser("check")
    p_check.add_argument("--context", required=True, choices=_PATH_CONTEXTS)
    p_check.add_argument("--signs", required=True, help='e.g. "-8/3:- -5/2:+ -2:- -1"')
    p_check.set_defaults(run=_line(_path_check))

    ca = sub.add_parser("cable", help="cable invariant calculators")
    csub = ca.add_subparsers(dest="op", required=True)
    c_tb = csub.add_parser("tb")
    c_tb.add_argument("p", type=int)
    c_tb.add_argument("q", type=int)
    c_tb.add_argument("--dividing", default=None, help="dividing slope q'/p'")
    c_tb.set_defaults(run=_line(_cable_tb))
    c_rot = csub.add_parser("rot")
    c_rot.add_argument("p", type=int)
    c_rot.add_argument("q", type=int)
    c_rot.add_argument("r_disk", type=int)
    c_rot.add_argument("r_seifert", type=int)
    c_rot.set_defaults(run=_line(lambda a: cable_rot(CableSpec(a.p, a.q), a.r_disk, a.r_seifert)))
    c_pos = csub.add_parser("positive")
    c_pos.add_argument("p", type=int)
    c_pos.add_argument("q", type=int)
    c_pos.add_argument("tb", type=int)
    c_pos.add_argument("rot", type=int)
    c_pos.add_argument("--format", default=None, choices=["table", "json"])
    c_pos.set_defaults(run=_fields(_positive_cable))
    c_neg = csub.add_parser("negative")
    c_neg.add_argument("p", type=int)
    c_neg.add_argument("q", type=int)
    c_neg.add_argument("tb", type=int)
    c_neg.set_defaults(
        run=_fields(lambda a: {"tb": negative_cable_tb(LegendrianInvariants(a.tb, 0), CableSpec(a.p, a.q))})
    )
    c_fam = csub.add_parser("family")
    c_fam.add_argument("n", type=int)
    c_fam.add_argument("--format", default=None, choices=["table", "json"])
    c_fam.set_defaults(run=_fields(lambda a: asdict(transnonsimple_family(a.n))))

    ex = sub.add_parser("exists", help="non-loose existence oracle")
    ex.add_argument("--flavor", required=True, choices=["legendrian", "transverse"])
    ex.add_argument("--sphere-once", action="store_true")
    ex.add_argument("--rational-unknot", action="store_true")
    ex.add_argument("--unknot-s3", action="store_true")
    ex.add_argument("--in-ball", action="store_true")
    ex.add_argument("--ambient", default=None)
    ex.add_argument("--summand-tight", default=None, choices=["yes", "no"])
    ex.set_defaults(run=_line(_exists))
    top.commands = sub.choices
    return top


# built by the first run() call, not at import, then shared and never changed;
# the --format defaults are None so NONLOOSE_FORMAT can be read on every call
_PARSER: Optional[_Parser] = None


def _parse_decorated(text: str) -> DecoratedPath:
    vertices, signs = [], []
    tokens = text.split()
    for i, tok in enumerate(tokens):
        sign = Sign.UNSIGNED
        if tok.endswith(":+"):
            sign, tok = Sign.PLUS, tok[:-2]
        elif tok.endswith(":-"):
            sign, tok = Sign.MINUS, tok[:-2]
        vertices.append(Slope.parse(tok))
        if i < len(tokens) - 1:
            signs.append(sign)
        elif sign is not Sign.UNSIGNED:
            raise DecorationError("the last vertex ends the path and carries no sign")
    return DecoratedPath(FareyPath(tuple(vertices)), tuple(signs))


def _read_cached(path: Path, request: dict, renderer) -> Optional[str]:
    """The request's cached atlas, rendered, or None for a missing, unreadable,
    too large to read, truncated or foreign file, or one renderer cannot read.
    A header field must have the request's repr: 3.0 or true is not 3 or 1."""
    try:
        payload = json.loads(path.read_text())
        ok = isinstance(payload, dict) and isinstance(payload.get("ranges"), list)
        if ok and all(repr(payload.get(k)) == repr(v) for k, v in request.items()):
            return renderer(payload)
    except (OSError, MemoryError, RecursionError, LookupError, TypeError, ValueError, ArithmeticError):
        pass
    return None


def _write_atomic(path: Path, text: str) -> None:
    # readers see the old file or the whole new one, never a partial write
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=".classify-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as f:
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _run_classify(args, out) -> None:
    lens = LensSpace(args.p, args.q)
    knot = KnotId.parse(args.knot)
    # looked up at call time, so a wrapped renderer is the one called
    renderer = getattr(render, f"classification_{args.format}")
    text = cache_file = None
    if args.cache_dir:
        # the directory is made on the first write; until then a read misses
        cache_file = Path(args.cache_dir) / f"classify-v{CACHE_SCHEMA}-{args.p}-{args.q}-{knot}-{args.kmax}.json"
        request = {"lens": {"p": lens.p, "q": lens.q}, "knot": str(knot), "k_max": args.kmax}
        text = _read_cached(cache_file, request, renderer)
    if text is None:
        ranges = classify(lens, knot, args.kmax)
        payload = render.classification_dict(lens, knot, args.kmax, ranges)
        if cache_file is not None:
            try:
                # a fresh payload shares lists but has no cycles
                _write_atomic(cache_file, json.dumps(payload, separators=(",", ":"), check_circular=False))
            except OSError as exc:
                raise ValueError(f"cannot use cache dir {args.cache_dir}: {exc.strerror or exc}") from None
        text = renderer(payload)
    out.write(text)


def _path_check(args) -> str:
    d = _parse_decorated(args.signs)
    ctx = _PATH_CONTEXTS[args.context](d.vertices[0], d.vertices[-1])
    return "tight" if is_tight(d, ctx) else "overtwisted"


def _cable_tb(args) -> int:
    spec = CableSpec(args.p, args.q)
    return divide_cable_tb(spec) if args.dividing is None else ruling_cable_tb(spec, Slope.parse(args.dividing))


def _positive_cable(args) -> dict:
    inv = positive_cable(LegendrianInvariants(args.tb, args.rot), CableSpec(args.p, args.q))
    return {**asdict(inv), "sl": self_linking(inv)}


def _exists(args) -> Existence:
    summand = None if args.summand_tight is None else args.summand_tight == "yes"
    facts = TopologyFacts(
        intersects_essential_sphere_once=args.sphere_once,
        summand_admits_tight=summand,
        is_rational_unknot=args.rational_unknot or args.unknot_s3,
        is_unknot_in_s3=args.unknot_s3,
        contained_in_ball=args.in_ball,
        ambient=args.ambient,
    )
    return admits_nonloose(facts, Flavor(args.flavor))


def _attach_knot_values(argv: list[str]) -> list[str]:
    # argparse reads an option value that starts with "-" only in the
    # attached form, so "--knot -K0" becomes "--knot=-K0"
    argv = list(argv)
    for i in range(len(argv) - 1, 0, -1):
        if argv[i - 1] == "--knot" and argv[i] in KNOTS:
            argv[i - 1 : i + 1] = [f"--knot={argv[i]}"]
    return argv


def run(argv: list[str], stdout=None, stderr=None) -> int:
    """Execute one command line; returns the process exit status."""
    out = stdout if stdout is not None else sys.stdout
    err = stderr if stderr is not None else sys.stderr
    global _PARSER
    if _PARSER is None:
        _PARSER = _build_parser()
    try:
        argv = _attach_knot_values(argv)
        command = _PARSER.commands.get(argv[0]) if argv else None
        args = command.parse_args(argv[1:]) if command else _PARSER.parse_args(argv)
        if getattr(args, "format", "") is None:
            default_format = os.environ.get("NONLOOSE_FORMAT", "table")
            args.format = default_format if default_format in FORMATS else "table"
        args.run(args, out)
    except _ParseEnd as exc:
        code, text = exc.args
        (err if code else out).write(text)
        return code
    except ValueError as exc:
        err.write(f"error: {exc}\n")
        return 1
    return 0


def main() -> None:
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # stdout was closed early; point it at devnull so the flush at
        # interpreter exit cannot raise again, then exit 1 with no traceback
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    main()
