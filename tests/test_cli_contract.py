"""The CLI's output contract, over a token grammar and a pinned corpus.

Every argv gets exit code 0, 1 or 2 and never an escaping exception; a
success writes nothing to stderr; a failure writes nothing to stdout and
exactly one stderr line, `error: ...` or `usage error: ...`; and the same
argv gives the same bytes twice.  The corpus digest pins the bytes of one
fixed run of every leaf subcommand.
"""

import hashlib
import io
import json
import os
import tempfile
from math import gcd
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nonloose import cli
from nonloose.cli import CACHE_SCHEMA, FORMATS, KNOTS, run


def invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(argv, stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


def _check_contract(argv, result):
    code, out, err = result
    assert code in (0, 1, 2), (argv, result)
    if code == 0:
        assert err == "", (argv, result)
    else:
        assert out == "", (argv, result)
        assert err.count("\n") == 1 and err.endswith("\n"), (argv, result)
        assert err.startswith("error:" if code == 1 else "usage error:"), (argv, result)


# one fixed run of every leaf subcommand, with successes and domain errors
CORPUS = [
    ["classify", "5", "2"],
    ["classify", "7", "3", "--knot", "-K1", "--kmax", "4"],
    ["classify", "3", "1", "--knot", "K1", "--kmax", "3"],
    ["classify", "1", "1", "--kmax", "3"],
    ["classify", "4", "2"],
    ["classify", "5", "2", "--kmax", "2"],
    *(["classify", "5", "2", "--kmax", "3", "--format", fmt] for fmt in FORMATS),
    ["tight-count", "lens", "13", "5"],
    ["tight-count", "lens", "6", "2"],
    ["tight-count", "torus", "-8/3", "0"],
    ["tight-count", "torus", "1/0", "1/0"],
    ["tight-count", "solid", "upper", "0/1", "-8/3"],
    ["tight-count", "solid", "lower", "-5/2", "1/0"],
    ["tight-count", "solid", "lower", "0/0", "1/0"],
    ["farey", "sum", "1/0", "-3"],
    ["farey", "sum", "0/1", "2/1"],
    ["farey", "dot", "1/2", "-1/3"],
    ["farey", "edge", "0/1", "1/0"],
    ["farey", "path", "-7/3", "1/0"],
    ["farey", "path", "2", "2"],
    ["farey", "cf", "-29/12"],
    ["farey", "cf", "-1"],
    ["farey", "cf", "x/2"],
    ["path", "check", "--context", "torus", "--signs", "-8/3:- -5/2:+ -2:- -1"],
    ["path", "check", "--context", "torus", "--signs", "-3:+ -2:- -1"],
    ["path", "check", "--context", "upper", "--signs", "1/0:+ -5:+ -4:+ -3:+ -2:+ -1 0"],
    ["path", "check", "--context", "upper", "--signs", "1/0:- -5:+ -4:+ -3:+ -2:+ -1 0"],
    ["path", "check", "--context", "lower", "--signs", "-5/2 -2:+ 1/0"],
    ["path", "check", "--context", "lower", "--signs", "-5/2:+ -2:+ 1/0"],
    ["path", "check", "--context", "upper", "--signs", "-3:+ -2:+ -1:+"],
    ["cable", "tb", "3", "2"],
    ["cable", "tb", "2", "7", "--dividing", "1/0"],
    ["cable", "tb", "2", "7", "--dividing", "7/2"],
    ["cable", "rot", "5", "2", "-1", "1"],
    ["cable", "rot", "0", "1", "0", "0"],
    ["cable", "positive", "2", "7", "1", "0"],
    ["cable", "positive", "2", "3", "2", "-1"],
    ["cable", "negative", "2", "1", "1"],
    ["cable", "negative", "2", "5", "1"],
    ["cable", "family", "3"],
    ["cable", "family", "0"],
    ["exists", "--flavor", "legendrian", "--unknot-s3", "--rational-unknot"],
    ["exists", "--flavor", "transverse", "--summand-tight", "yes"],
    ["exists", "--flavor", "legendrian", "--in-ball", "--ambient", "M_n"],
    ["exists", "--flavor", "legendrian", "--in-ball"],
]

# SHA-256 of the corpus run under NONLOOSE_FORMAT unset, json and csv:
# one JSON line [format, argv, exit code, stdout, stderr] per run
CORPUS_DIGEST = "c819f60acd25441c520da10699b600c7f965a11ff1adbcb12f837b7bdf90c4f4"


def test_corpus_output_is_pinned(monkeypatch):
    digest = hashlib.sha256()
    for fmt in (None, "json", "csv"):
        if fmt is None:
            monkeypatch.delenv("NONLOOSE_FORMAT", raising=False)
        else:
            monkeypatch.setenv("NONLOOSE_FORMAT", fmt)
        for argv in CORPUS:
            result = invoke(argv)
            _check_contract(argv, result)
            digest.update((json.dumps([fmt, argv, *result]) + "\n").encode())
    assert digest.hexdigest() == CORPUS_DIGEST


# the token grammar: slopes valid and malformed, small bounded integers,
# and valid lenses and decorated paths often enough to reach every handler
_ints = st.integers(-50, 50).map(str)
_slopes = st.one_of(
    _ints,
    st.tuples(st.integers(-50, 50), st.integers(-50, 50)).map(lambda t: f"{t[0]}/{t[1]}"),
    st.sampled_from(["0/0", "1/0", "-1/0", "inf", "oo", "x", "1/x", "/2", "3/", "1/2/3", "", "--", "-K0"]),
)
_lens = st.one_of(
    st.sampled_from([(1, 1)] + [(p, q) for p in range(2, 31) for q in range(1, p) if gcd(p, q) == 1]),
    st.tuples(st.integers(-2, 30), st.integers(-2, 30)),
).map(lambda t: [str(t[0]), str(t[1])])
_kmax = st.integers(3, 5).map(str)
_vertices = st.one_of(
    st.integers(2, 8).map(lambda n: [str(-n + i) for i in range(n + 1)]),
    st.integers(2, 8).map(lambda n: ["1/0"] + [str(-n + i) for i in range(n + 1)]),
    st.sampled_from([["-8/3", "-5/2", "-2", "-1"], ["-5/2", "-2", "1/0"], ["-3", "-5/2", "-2", "0"]]),
    st.lists(_slopes, max_size=6),
)
_CONTEXTS = ["upper", "torus", "lower", "lens"]


def _decorated(context, vertices, signs):
    # a sign on every edge but the one the context leaves bare
    edges = len(vertices) - 1
    bare = {"upper": edges - 1, "lower": 0}.get(context)
    return " ".join(v + ("" if i in (bare, edges) else s) for i, (v, s) in enumerate(zip(vertices, signs)))


# one sign token per vertex: the paths above have at most ten
_signs = st.lists(st.sampled_from([":+", ":-", "", ":", ":*"]), min_size=10, max_size=10)
_edge_signs = st.lists(st.sampled_from([":+", ":-"]), min_size=10, max_size=10)
_path_check = st.one_of(
    st.tuples(st.sampled_from(_CONTEXTS[:3]), _vertices, _edge_signs).map(
        lambda t: ["--context", t[0], "--signs", _decorated(*t)]
    ),
    st.tuples(_vertices, _signs).map(lambda t: ["--signs", " ".join(map("".join, zip(*t)))]),
)
_format = st.sampled_from((None, *FORMATS, "bogus"))
_CACHES = (None, "empty", "file", "under-file", "truncated", "foreign", "indented", "malformed")


def _opts(*pairs):
    # each (flag, strategy) pair drawn or left out
    return st.tuples(*(st.one_of(s.map(lambda v, f=f: [f, v]), st.just([])) for f, s in pairs)).map(
        lambda parts: [tok for part in parts for tok in part]
    )


def _cmd(*parts):
    return st.tuples(*parts).map(lambda t: [tok for part in t for tok in part])


def _one(s):
    return s.map(lambda v: [v])


def _small_ints(n):
    # n small integers, or too few or too many
    small = st.integers(-6, 12).map(str)
    return st.one_of(st.lists(small, min_size=n, max_size=n), st.lists(small, max_size=n + 1))


# one argv strategy per leaf subcommand, so each leaf is drawn as often
LEAVES = {
    "classify": _cmd(
        st.just(["classify"]), _lens,
        _opts(("--knot", st.sampled_from(KNOTS + ("K2",))), ("--kmax", _kmax), ("--format", st.sampled_from(FORMATS))),
    ),
    "tight-count lens": _cmd(st.just(["tight-count", "lens"]), _lens),
    "tight-count torus": _cmd(st.just(["tight-count", "torus"]), _one(_slopes), _one(_slopes)),
    "tight-count solid": _cmd(
        st.just(["tight-count", "solid"]), _one(st.sampled_from(["upper", "lower", "side"])), _one(_slopes), _one(_slopes)
    ),
    "farey": _cmd(st.just(["farey"]), _one(st.sampled_from(["sum", "dot", "edge", "path"])), _one(_slopes), _one(_slopes)),
    "farey cf": _cmd(st.just(["farey", "cf"]), _one(_slopes)),
    "path check": _cmd(st.just(["path", "check"]), _path_check, _opts(("--context", st.sampled_from(_CONTEXTS)))),
    "cable tb": _cmd(st.just(["cable", "tb"]), _small_ints(2), _opts(("--dividing", _slopes))),
    "cable rot": _cmd(st.just(["cable", "rot"]), _small_ints(4)),
    "cable positive": _cmd(st.just(["cable", "positive"]), _small_ints(4), _opts(("--format", st.sampled_from(FORMATS)))),
    "cable negative": _cmd(st.just(["cable", "negative"]), _small_ints(3)),
    "cable family": _cmd(
        st.just(["cable", "family"]), _one(st.integers(-5, 50).map(str)), _opts(("--format", st.sampled_from(["table", "json", "csv"])))
    ),
    "exists": _cmd(
        st.just(["exists", "--flavor"]),
        _one(st.sampled_from(["legendrian", "transverse", "other"])),
        _opts(("--ambient", st.sampled_from(["S3", "M_n", "L"])), ("--summand-tight", st.sampled_from(["yes", "no", "maybe"]))),
        st.lists(st.sampled_from(["--sphere-once", "--rational-unknot", "--unknot-s3", "--in-ball"]), unique=True),
    ),
}


def _cache_dir(root: Path, kind, argv):
    # a --cache-dir of the given kind for a classify argv; the prepared
    # kinds hold the file this query reads, filled by one earlier run
    if kind == "empty":
        return root
    if kind in ("file", "under-file"):
        (root / "atlas").write_text("not a directory\n")
        return root / "atlas" / ("below" if kind == "under-file" else "")
    if invoke(argv + ["--cache-dir", str(root)])[0] != 0:
        return root
    (path,) = root.glob(f"classify-v{CACHE_SCHEMA}-*.json")
    text = path.read_text()
    if kind == "truncated":
        path.write_text(text[: len(text) // 2])
    elif kind == "indented":
        path.write_text(json.dumps(json.loads(text), indent=2))
    elif kind == "malformed":
        # the request's header over a range that no renderer can read
        doc = json.loads(text)
        doc["ranges"].append({"kind": "V", "euler": True, "members": [{"tb": "1/0"}]})
        path.write_text(json.dumps(doc))
    else:
        doc = json.loads(text)
        doc["lens"] = {"p": doc["lens"]["p"] + 1, "q": doc["lens"]["q"]}
        path.write_text(json.dumps(doc))
    return root


@pytest.mark.parametrize("leaf", LEAVES)
@settings(derandomize=True, max_examples=40, deadline=None, database=None)
@given(data=st.data(), fmt=_format, cache=st.sampled_from(_CACHES))
def test_cli_contract_over_token_grammar(leaf, data, fmt, cache):
    _check_twice(data.draw(LEAVES[leaf], label="argv"), fmt, cache)


@settings(derandomize=True, max_examples=30, deadline=None, database=None)
@given(argv=LEAVES["classify"], fmt=_format)
def test_cli_contract_over_malformed_cache_files(argv, fmt):
    # the grammar's draws rarely pair a valid lens with this kind
    _check_twice(argv, fmt, "malformed")


@pytest.mark.parametrize("cache", _CACHES)
@pytest.mark.parametrize("fmt", (None, *FORMATS))
def test_cli_contract_over_every_cache_kind(cache, fmt):
    # each kind on a valid lens, so every prepared kind holds its file; the
    # output is a cold run's, or exit 1 where the cache dir cannot be made
    argv = ["classify", "7", "3", "--knot", "-K1", "--kmax", "4"]
    result = _check_twice(argv, fmt, cache)
    if cache in ("file", "under-file"):
        assert result[0] == 1, result
    else:
        assert result == _check_twice(argv, fmt, None)


def _check_twice(argv, fmt, cache):
    # the contract, and the same bytes from a second run; returns the run
    with mock.patch.dict(os.environ), tempfile.TemporaryDirectory() as tmp:
        os.environ.pop("NONLOOSE_FORMAT", None)
        if fmt is not None:
            os.environ["NONLOOSE_FORMAT"] = fmt
        if argv[0] == "classify" and cache is not None:
            argv = argv + ["--cache-dir", str(_cache_dir(Path(tmp), cache, argv))]
        first = invoke(argv)
        _check_contract(argv, first)
        assert invoke(argv) == first, argv
        assert not list(Path(tmp).glob("**/.classify-*.tmp"))
    return first


def test_cache_replace_failure_removes_the_temp_file(tmp_path, monkeypatch):
    def refuse(*args):
        raise OSError(5, os.strerror(5))

    monkeypatch.setattr(cli.os, "replace", refuse)
    code, out, err = invoke(["classify", "5", "2", "--cache-dir", str(tmp_path)])
    assert (code, out) == (1, "") and err.count("\n") == 1
    assert err == f"error: cannot use cache dir {tmp_path}: {os.strerror(5)}\n"
    assert list(tmp_path.iterdir()) == []


@pytest.fixture(scope="module")
def top():
    # one parser for the comparisons, which never change it
    return cli._build_parser()


def _parsed(parse, argv):
    # the namespace parse(argv) returns, less command, or how parsing ended
    try:
        args = vars(parse(argv))
    except cli._ParseEnd as end:
        return end.args
    args.pop("command", None)
    return args


def _check_command_parser(top, argv):
    # a line that starts with a command parses alike through the top parser
    # and through that command's own parser, which run() calls directly
    argv = cli._attach_knot_values(argv)
    assert argv and argv[0] in top.commands, argv
    expected = _parsed(top.parse_args, argv)
    assert _parsed(top.commands[argv[0]].parse_args, argv[1:]) == expected, argv


# tokens argparse treats specially: the end of options, help flags, option
# prefixes and attached values, negative numbers and unknown options
_PROBES = [
    "--", "-h", "--he", "--help=x", "--km", "--kn", "--knot", "-K1", "-5/2", "--cache-dir", "--format=json", "--bogus", "x"
]
DISPATCH_EDGES = [
    ["classify", "--", "5", "2"],
    ["classify", "--help=x"],
    ["classify", "5", "2", "--km", "4"],
    ["classify", "5", "2", "--he"],
    ["classify", "5", "2", "--knot", "-K1"],
]


@pytest.mark.parametrize("leaf", LEAVES)
@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(data=st.data(), probes=st.lists(st.sampled_from(_PROBES), max_size=3))
def test_command_parser_matches_the_top_parser_over_token_grammar(top, leaf, data, probes):
    argv = data.draw(LEAVES[leaf], label="argv")
    at = data.draw(st.integers(1, len(argv)), label="at")
    _check_command_parser(top, argv[:at] + probes + argv[at:])


def test_command_parser_matches_the_top_parser_on_corpus_and_edges(top):
    for argv in CORPUS + DISPATCH_EDGES:
        _check_command_parser(top, argv)


class _TopParserReached(Exception):
    pass


def test_command_lines_never_reach_the_top_parser(monkeypatch):
    monkeypatch.delenv("NONLOOSE_FORMAT", raising=False)
    # the oracle: a parser with no commands to hand lines to parses them all
    oracle = cli._build_parser()
    oracle.commands = {}
    monkeypatch.setattr(cli, "_PARSER", oracle)
    expected = [invoke(argv) for argv in CORPUS + DISPATCH_EDGES]

    def refuse(argv):
        raise _TopParserReached(argv)

    top = cli._build_parser()
    top.parse_args = refuse
    monkeypatch.setattr(cli, "_PARSER", top)
    assert [invoke(argv) for argv in CORPUS + DISPATCH_EDGES] == expected
    # what starts with no command is the top parser's alone
    for argv in ([], ["-h"], ["--help"], ["bogus"], ["bogus", "5", "2"], ["--knot", "K0"]):
        with pytest.raises(_TopParserReached):
            invoke(argv)
