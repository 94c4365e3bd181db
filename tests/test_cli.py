import errno
import hashlib
import io
import json
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from fractions import Fraction
from pathlib import Path

import nonloose
from nonloose import cli, render
from nonloose.cli import FORMATS, KNOTS, run
from nonloose.render import classification_dict, classification_svg
from nonloose.unknots import K0, LensSpace, classify


def invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(argv, stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


def test_classify_csv():
    code, out, err = invoke(["classify", "3", "1", "--format", "csv"])
    assert code == 0 and err == ""
    lines = out.strip().splitlines()
    assert lines[0] == "kind,rot_base,tb_base,euler"
    rows = {tuple(line.split(",")) for line in lines[1:]}
    assert rows == {
        ("V", "0", "1/3", "0"),
        ("V", "1/3", "4/3", "-1"),
        ("V", "-1/3", "4/3", "1"),
    }


def test_classify_json_round_trip():
    code, out, _ = invoke(["classify", "5", "2", "--knot", "K1", "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["lens"] == {"p": 5, "q": 2}
    assert doc["knot"] == "K1"
    assert {r["kind"] for r in doc["ranges"]} == {"V", "back-slash", "forward-slash"}
    for r in doc["ranges"]:
        rot, tb = Fraction(r["base"][0]), Fraction(r["base"][1])
        base_member = r["members"][0]
        assert Fraction(base_member["rot"]) == rot
        assert Fraction(base_member["tb"]) == tb
        ids = {m["id"] for m in r["members"]}
        for e in r["stabilizations"]:
            assert e["source"] in ids
            assert e["target"] == "loose" or e["target"] in ids


def test_classify_table_and_errors():
    code, out, _ = invoke(["classify", "4", "3"])
    assert code == 0
    assert "back-slash" in out and "forward-slash" in out
    code, _, err = invoke(["classify", "4", "2"])
    assert code == 1 and "error" in err
    code, _, err = invoke(["classify", "4"])
    assert code == 2


def test_classify_svg_well_formed():
    code, out, _ = invoke(["classify", "5", "2", "--format", "svg", "--kmax", "4"])
    assert code == 0
    root = ET.fromstring(out)
    markers = [
        el
        for el in root.iter()
        if el.tag.endswith("circle") and el.get("class") == "member"
    ]
    doc_code, doc_out, _ = invoke(["classify", "5", "2", "--format", "json", "--kmax", "4"])
    members = sum(len(r["members"]) for r in json.loads(doc_out)["ranges"])
    assert len(markers) == members


def test_classify_deterministic():
    a = invoke(["classify", "7", "3", "--format", "json"])
    b = invoke(["classify", "7", "3", "--format", "json"])
    assert a == b


def test_classify_cache(tmp_path):
    args = ["classify", "5", "3", "--format", "json", "--cache-dir", str(tmp_path)]
    code1, out1, _ = invoke(args)
    files = list(tmp_path.glob("classify-*.json"))
    assert code1 == 0 and len(files) == 1
    code2, out2, _ = invoke(args)
    assert code2 == 0 and out2 == out1
    # every format renders from the cached atlas byte-identically
    for fmt in ("table", "csv", "svg"):
        fresh = invoke(["classify", "5", "3", "--format", fmt])
        cached = invoke(["classify", "5", "3", "--format", fmt, "--cache-dir", str(tmp_path)])
        assert cached == fresh


def _cache_file(cache_dir, p, q):
    (path,) = cache_dir.glob(f"classify*-{p}-{q}-K0-5.json")
    return path


def test_classify_cache_rejects_foreign_and_truncated_files(tmp_path):
    fresh = invoke(["classify", "5", "2", "--format", "json"])
    cached = ["classify", "5", "2", "--format", "json", "--cache-dir", str(tmp_path)]
    assert invoke(["classify", "7", "3", "--cache-dir", str(tmp_path)])[0] == 0
    # an L(7,3) atlas stored under L(5,2)'s key is a miss, then overwritten
    other = _cache_file(tmp_path, 7, 3)
    key = other.with_name(other.name.replace("-7-3-", "-5-2-"))
    key.write_text(other.read_text())
    assert invoke(cached) == fresh
    assert json.loads(key.read_text())["lens"] == {"p": 5, "q": 2}
    # a truncated file is a miss as well
    key.write_text(key.read_text()[:100])
    assert invoke(cached) == fresh
    assert sorted(f.name for f in tmp_path.iterdir()) == sorted([key.name, other.name])


def test_malformed_cache_files_are_misses(tmp_path):
    # a file with the request's header whose atlas the requested renderer
    # cannot read is recomputed, rewritten compactly and printed fresh; a
    # well-formed but wrong value it can read is printed as it stands
    query = ["classify", "5", "2", "--kmax", "3"]
    fresh = {fmt: invoke(query + ["--format", fmt]) for fmt in FORMATS}
    assert invoke(query + ["--cache-dir", str(tmp_path)])[0] == 0
    (path,) = tmp_path.glob("classify-*.json")
    compact = path.read_text()
    cases = [  # (defect, the formats whose renderer cannot read it)
        (lambda doc: doc.update(ranges=[{"kind": "V"}]), set(FORMATS)),
        (lambda doc: doc["ranges"][0]["members"][0].update(tb="1/0"), {"svg"}),
        (lambda doc: doc["ranges"][0].update(euler=True), {"json"}),
        (lambda doc: doc["ranges"][0].update(extra=0), {"json"}),
    ]
    for defect, misses in cases:
        doc = json.loads(compact)
        defect(doc)
        for fmt in FORMATS:
            path.write_text(json.dumps(doc))
            result = invoke(query + ["--format", fmt, "--cache-dir", str(tmp_path)])
            if fmt in misses:
                assert result == fresh[fmt] and path.read_text() == compact, (doc, fmt)
            else:
                assert result == (0, getattr(render, f"classification_{fmt}")(doc), ""), (doc, fmt)
                assert json.loads(path.read_text()) == doc
    # a file nested deeper than the JSON parser can recurse is a miss too
    path.write_text("[" * 100_000)
    assert invoke(query + ["--format", "table", "--cache-dir", str(tmp_path)]) == fresh["table"]
    assert path.read_text() == compact


def test_cache_header_matches_in_type_as_well_as_value(tmp_path):
    # a header equal to the request only under == (3.0 for 3, true for 1)
    # is a miss: recomputed, rewritten and printed as a cold run prints it
    cases = [
        (["5", "2"], lambda doc: doc.update(k_max=3.0)),
        (["5", "2"], lambda doc: doc["lens"].update(p=5.0)),
        (["5", "2"], lambda doc: doc["lens"].update(q=2.0)),
        (["3", "1"], lambda doc: doc["lens"].update(q=True)),
        (["1", "1"], lambda doc: doc["lens"].update(p=True)),
        (["1", "1"], lambda doc: doc.update(lens={"p": 1.0, "q": True}, k_max=3.0)),
    ]
    for lens, defect in cases:
        query = ["classify", *lens, "--kmax", "3"]
        cold = {fmt: invoke(query + ["--format", fmt]) for fmt in FORMATS}
        assert invoke(query + ["--cache-dir", str(tmp_path)])[0] == 0
        (path,) = tmp_path.glob(f"classify-*-{lens[0]}-{lens[1]}-K0-3.json")
        compact = path.read_text()
        doc = json.loads(compact)
        defect(doc)
        for fmt in FORMATS:
            path.write_text(json.dumps(doc))
            assert invoke(query + ["--format", fmt, "--cache-dir", str(tmp_path)]) == cold[fmt], (lens, doc, fmt)
            assert path.read_text() == compact


def test_classify_cache_warm_hit_skips_classification(tmp_path, monkeypatch):
    args = ["classify", "5", "2", "--format", "table", "--cache-dir", str(tmp_path)]
    cold = invoke(args)
    assert cold[0] == 0

    def fail(*args):
        raise AssertionError("warm query recomputed the classification")

    monkeypatch.setattr(cli, "classify", fail)
    assert invoke(args) == cold


def test_svg_of_empty_atlas():
    payload = {"lens": {"p": 5, "q": 2}, "knot": "K0", "k_max": 3, "ranges": []}
    root = ET.fromstring(classification_svg(payload))
    assert root.tag.endswith("svg")
    assert not [el for el in root.iter() if el.tag.endswith("circle")]


def test_tight_count_commands():
    assert invoke(["tight-count", "lens", "5", "2"]) == (0, "2\n", "")
    assert invoke(["tight-count", "lens", "1", "1"]) == (0, "1\n", "")
    assert invoke(["tight-count", "torus", "-5", "-1"]) == (0, "5\n", "")
    assert invoke(["tight-count", "solid", "upper", "0/1", "-8/3"])[1] == "6\n"
    assert invoke(["tight-count", "solid", "lower", "-5/2", "1/0"])[1].strip().isdigit()
    code, _, err = invoke(["tight-count", "lens", "6", "2"])
    assert code == 1


def test_tight_count_long_solid_torus():
    # 20002-vertex minimal path, beyond any fixed vertex cap
    assert invoke(["tight-count", "solid", "upper", "0/1", "-20001"]) == (0, "20001\n", "")


def test_farey_commands():
    assert invoke(["farey", "sum", "0/1", "1/0"]) == (0, "1/1\n", "")
    assert invoke(["farey", "sum", "1/0", "-3"]) == (0, "-4/1\n", "")
    assert invoke(["farey", "dot", "1/2", "1/3"]) == (0, "1\n", "")
    assert invoke(["farey", "edge", "0/1", "2/1"]) == (0, "false\n", "")
    code, out, _ = invoke(["farey", "path", "-4", "0"])
    assert json.loads(out) == ["-4/1", "-3/1", "-2/1", "-1/1", "0/1"]
    assert invoke(["farey", "cf", "-5/2"]) == (0, "[-3,-2]\n", "")
    code, _, err = invoke(["farey", "sum", "0/1", "2/1"])
    assert code == 1


def test_path_check_command():
    code, out, _ = invoke(
        ["path", "check", "--context", "torus", "--signs", "-8/3:- -5/2:+ -2:- -1"]
    )
    assert code == 0 and out == "tight\n"
    # stabilized complements over the four-fold integer surgery; the final
    # edge into the meridian stays unsigned
    tight = "1/0:+ -5:+ -4:+ -3:+ -2:+ -1 0"
    loose = "1/0:- -5:+ -4:+ -3:+ -2:+ -1 0"
    assert invoke(["path", "check", "--context", "upper", "--signs", tight])[1] == "tight\n"
    assert (
        invoke(["path", "check", "--context", "upper", "--signs", loose])[1]
        == "overtwisted\n"
    )


def test_cable_commands():
    assert invoke(["cable", "family", "2"]) == (0, "tb=10 rot=3 sl=7 count=2\n", "")
    code, out, _ = invoke(["cable", "family", "3", "--format", "json"])
    assert json.loads(out) == {"tb": 14, "rot": 5, "sl": 9, "count": 3}
    assert invoke(["cable", "tb", "3", "2"]) == (0, "6\n", "")
    assert invoke(["cable", "tb", "2", "7", "--dividing", "1/1"])[1] == "9\n"
    assert invoke(["cable", "rot", "5", "2", "-1", "1"])[1] == "3\n"
    code, out, _ = invoke(["cable", "positive", "2", "7", "1", "0", "--format", "json"])
    assert json.loads(out) == {"tb": 9, "rot": 0, "sl": 9}
    assert invoke(["cable", "negative", "2", "1", "1"])[1] == "tb=2\n"
    code, _, err = invoke(["cable", "negative", "2", "5", "1"])
    assert code == 1


def test_exists_command():
    code, out, _ = invoke(["exists", "--flavor", "legendrian", "--unknot-s3", "--rational-unknot"])
    assert out == "exactly-one\n"
    code, out, _ = invoke(["exists", "--flavor", "transverse", "--rational-unknot"])
    assert out == "none\n"
    code, out, _ = invoke(
        ["exists", "--flavor", "legendrian", "--in-ball", "--ambient", "M_n"]
    )
    assert out == "none\n"
    code, out, _ = invoke(["exists", "--flavor", "transverse", "--summand-tight", "yes"])
    assert out == "at-least-two\n"
    code, _, err = invoke(["exists", "--flavor", "legendrian", "--in-ball"])
    assert code == 1


def test_env_default_format(monkeypatch):
    monkeypatch.setenv("NONLOOSE_FORMAT", "csv")
    code, out, _ = invoke(["classify", "3", "1"])
    assert out.startswith("kind,rot_base,tb_base,euler")
    monkeypatch.setenv("NONLOOSE_FORMAT", "bogus")
    code, out, _ = invoke(["classify", "3", "1"])
    assert not out.startswith("kind,")


def test_classify_knot_value_with_leading_dash():
    for knot in ("-K0", "-K1"):
        code, out, err = invoke(["classify", "5", "2", "--knot", knot])
        assert code == 0 and err == ""
        assert (code, out, err) == invoke(["classify", "5", "2", f"--knot={knot}"])
    code, _, err = invoke(["classify", "5", "2", "--knot", "--kmax", "3"])
    assert code == 2 and "--knot" in err


def test_parser_built_once_per_process(monkeypatch):
    builds = []

    def counting_build():
        builds.append(1)
        return build()

    build = cli._build_parser
    monkeypatch.setattr(cli, "_PARSER", None)
    monkeypatch.setattr(cli, "_build_parser", counting_build)
    assert invoke(["classify", "3", "1"])[0] == 0
    assert invoke(["cable", "family", "2"])[0] == 0
    assert invoke(["farey", "sum", "0/1", "1/0"])[0] == 0
    assert len(builds) == 1


def test_usage_error_leaves_shared_parser_intact(monkeypatch):
    query = ["classify", "5", "2", "--knot", "-K1", "--kmax", "4"]
    monkeypatch.setattr(cli, "_PARSER", None)
    fresh = invoke(query)
    monkeypatch.setattr(cli, "_PARSER", None)
    code, _, err = invoke(["classify", "5"])
    assert code == 2 and err.startswith("usage error:")
    assert invoke(query) == fresh


def test_env_default_format_for_cable(monkeypatch):
    monkeypatch.setenv("NONLOOSE_FORMAT", "json")
    assert json.loads(invoke(["cable", "family", "3"])[1]) == {
        "tb": 14, "rot": 5, "sl": 9, "count": 3
    }
    assert json.loads(invoke(["cable", "positive", "2", "3", "1", "0"])[1]) == {
        "tb": 5, "rot": 0, "sl": 5
    }
    # svg is not among cable's formats, so cable prints its table form
    monkeypatch.setenv("NONLOOSE_FORMAT", "svg")
    assert invoke(["cable", "family", "3"]) == (0, "tb=14 rot=5 sl=9 count=3\n", "")
    assert invoke(["cable", "positive", "2", "3", "1", "0"]) == (0, "tb=5 rot=0 sl=5\n", "")


def test_import_builds_no_parser():
    src = str(Path(nonloose.__file__).parents[1])
    code = "import nonloose.cli as c; print(c._PARSER is None)"
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert (done.returncode, done.stdout) == (0, "True\n")


def test_classify_cache_reads_indented_files(tmp_path, monkeypatch):
    query = ["classify", "7", "3", "--knot", "K1", "--kmax", "4"]
    fresh = {fmt: invoke(query + ["--format", fmt]) for fmt in FORMATS}
    assert invoke(query + ["--cache-dir", str(tmp_path)])[0] == 0
    (path,) = tmp_path.glob("classify-*-7-3-K1-4.json")
    # the layout older versions wrote
    path.write_text(json.dumps(json.loads(path.read_text()), indent=2))

    def fail(*args):
        raise AssertionError("warm query recomputed the classification")

    monkeypatch.setattr(cli, "classify", fail)
    for fmt in FORMATS:
        assert invoke(query + ["--format", fmt, "--cache-dir", str(tmp_path)]) == fresh[fmt]


def test_classify_cache_files_are_compact(tmp_path):
    assert invoke(["classify", "7", "3", "--cache-dir", str(tmp_path)])[0] == 0
    (path,) = tmp_path.glob("classify-*-7-3-K0-5.json")
    text = path.read_text()
    assert "\n" not in text and ", " not in text and ": " not in text
    lens = LensSpace(7, 3)
    assert json.loads(text) == classification_dict(lens, K0, 5, classify(lens, K0, 5))


def test_svg_output_pinned():
    # SHA-256 of the SVG text: renderer changes must keep these bytes
    for argv, digest in [
        (["classify", "7", "3"], "a7fe3cb3a367725086cd80af99b484f3b1e918424fbfd5631e8d2414e54918ee"),
        (
            ["classify", "5", "2", "--knot", "K1", "--kmax", "5"],
            "9aced55cc6714bd835b9058bfdbae7a27d5ecad01db25ad4243c25e9f3ccbd80",
        ),
    ]:
        code, out, err = invoke(argv + ["--format", "svg"])
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_deep_atlases_do_not_depend_on_k_max():
    # levels from 3 up share one stabilization map and each arm repeats one
    # class there, so the range list does not depend on the depth; this runs
    # the shared map far deeper than the other tests do
    for lens, knots, deep in ((["5", "2"], KNOTS, "2000"), (["1000", "377"], ("K0", "K1"), "60")):
        for knot in knots:
            query = ["classify", *lens, f"--knot={knot}", "--format", "csv"]
            low = invoke(query + ["--kmax", "3"])
            assert low[0] == 0 and invoke(query + ["--kmax", deep]) == low, (lens, knot)


def test_deep_atlases_keep_their_json_bytes():
    # SHA-256 of the JSON text, recorded before levels from 2 up took their
    # rots from the level above: a negative knot deep, and L(1000,377)
    # deeper than the benchmark runs it
    for argv, digest in [
        (
            ["classify", "5", "2", "--knot=-K1", "--kmax", "800"],
            "dc53b83e1b9d9c77ecbba66e05630709942c6ff8030879e08a3533cd507e107e",
        ),
        (
            ["classify", "1000", "377", "--knot", "K1", "--kmax", "12"],
            "7ef3cce7cd667208e7af9b68d2aadd2087776c5400fc7d5d9b1efc3d6b4e35c3",
        ),
    ]:
        code, out, err = invoke(argv + ["--format", "json"])
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_farey_domain_edges_are_one_error_line():
    # equal operands or endpoints are refused by the pairing, 0 and 2 are
    # not adjacent, and 1/0 is outside the expansion's domain
    for args in (["sum", "1/0", "1/0"], ["sum", "0", "2"], ["path", "1/0", "1/0"], ["cf", "1/0"]):
        _one_error_line(invoke(["farey", *args]), "error: ")


def test_an_unknown_command_is_one_usage_error_and_command_help_exits_0():
    code, out, err = invoke(["bogus"])
    assert (code, out) == (2, "") and err.startswith("usage error: ") and err.count("\n") == 1, err
    code, out, err = invoke(["classify", "-h"])
    assert (code, err) == (0, "") and out.startswith("usage: ")


def test_help_goes_to_the_stdout_argument(monkeypatch):
    # argparse wraps help text to COLUMNS, so both sides get the same width
    monkeypatch.setenv("COLUMNS", "80")
    env = {**os.environ, "PYTHONPATH": str(Path(nonloose.__file__).parents[1])}
    # SHA-256 of the subprocess stdout, recorded with Python 3.11 before
    # in-process help was captured; argparse layout varies across versions
    pinned = {
        "--help": "c233b6e0d43b378a328b5d9d7b0a3d50684dedbba3b9269fe57ec4cf48a0aa03",
        "classify --help": "c3ac4050b9e32bcfb3a66b06986684b5cb6519e254dabebdfc0c776cad1f4b02",
    }
    for argv in (["--help"], ["-h"], ["classify", "--help"], ["cable", "positive", "-h"]):
        done = subprocess.run(
            [sys.executable, "-m", "nonloose", *argv], capture_output=True, text=True, env=env
        )
        assert (done.returncode, done.stderr) == (0, "")
        assert invoke(argv) == (0, done.stdout, "")
        digest = pinned.get(" ".join(argv))
        if digest and sys.version_info[:2] == (3, 11):
            assert hashlib.sha256(done.stdout.encode()).hexdigest() == digest


def test_path_check_rejects_a_sign_on_the_last_vertex():
    # the last vertex starts no edge, so a sign written there has nothing
    # to decorate
    for signs in ("-3:+ -2:+ -1:-", "-3:+ -2:+ -1:+", "1/0:+ -1 0:-"):
        code, out, err = invoke(["path", "check", "--context", "torus", "--signs", signs])
        assert (code, out) == (1, "") and err.startswith("error: ") and "last vertex" in err
    assert invoke(["path", "check", "--context", "torus", "--signs", "-3:+ -2:+ -1"]) == (0, "tight\n", "")


def _one_error_line(result, prefix):
    code, out, err = result
    assert (code, out) == (1, "") and err.startswith(prefix) and err.count("\n") == 1, result


def test_unusable_cache_dir_is_a_domain_error(tmp_path):
    a_file = tmp_path / "atlas"
    a_file.write_text("not a directory\n")
    for cache_dir in (a_file, a_file / "below"):
        result = invoke(["classify", "5", "2", "--cache-dir", str(cache_dir)])
        _one_error_line(result, f"error: cannot use cache dir {cache_dir}: ")
    assert a_file.read_text() == "not a directory\n"


def test_cache_write_failure_is_a_domain_error(tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise PermissionError(errno.EACCES, os.strerror(errno.EACCES))

    monkeypatch.setattr(cli.tempfile, "mkstemp", refuse)
    result = invoke(["classify", "5", "2", "--cache-dir", str(tmp_path)])
    _one_error_line(result, f"error: cannot use cache dir {tmp_path}: {os.strerror(errno.EACCES)}")
    assert list(tmp_path.iterdir()) == []


def test_unreadable_cache_file_is_a_miss(tmp_path, monkeypatch):
    args = ["classify", "5", "2", "--cache-dir", str(tmp_path)]
    fresh = invoke(args)
    assert fresh[0] == 0

    def unreadable(*args, **kwargs):
        raise PermissionError(errno.EACCES, os.strerror(errno.EACCES))

    monkeypatch.setattr(Path, "read_text", unreadable)
    assert invoke(args) == fresh


def test_path_check_lower_context_and_infinite_dividing_slope():
    assert invoke(["path", "check", "--context", "lower", "--signs", "-5/2 -2:+ 1/0"]) == (0, "tight\n", "")
    assert invoke(["cable", "tb", "2", "7", "--dividing", "1/0"]) == (0, "12\n", "")


def test_a_path_too_long_for_a_tuple_is_a_domain_error():
    # each path has a block of about 10^20 edges, past sys.maxsize; it must
    # be refused before any vertex is built, so well inside the child's
    # address-space limit and with no OverflowError traceback
    import resource
    import time

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    env = {**os.environ, "PYTHONPATH": str(Path(nonloose.__file__).parents[1])}
    cases = {
        ("classify", "99999999999999999999", "1"): "-499999999999999999996/5 to 0/1",
        ("farey", "path", "-99999999999999999999", "0"): "-99999999999999999999/1 to 0/1",
    }
    for args, ends in cases.items():
        start = time.perf_counter()
        done = subprocess.run(
            [sys.executable, "-m", "nonloose.cli", *args], env=env, capture_output=True, text=True, preexec_fn=limit
        )
        elapsed = time.perf_counter() - start
        message = f"error: minimal path from {ends} has too many vertices for a tuple\n"
        assert (done.returncode, done.stdout, done.stderr) == (1, "", message), args
        assert elapsed < 2, (args, elapsed)


def _run_in_a_gigabyte(*args):
    # the CLI as a child process whose address space is limited to 1 GiB, so
    # an input that asks for a huge allocation fails there, never in this process
    import resource
    import time

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    env = {**os.environ, "PYTHONPATH": str(Path(nonloose.__file__).parents[1])}
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "nonloose.cli", *args], env=env, capture_output=True, text=True, preexec_fn=limit
    )
    return done, time.perf_counter() - start


def test_a_kmax_too_large_for_a_list_is_a_domain_error():
    # classify keeps k_max + 1 levels in a list; past sys.maxsize it must be
    # refused before the first level is built
    done, elapsed = _run_in_a_gigabyte("classify", "5", "2", "--kmax", "99999999999999999999")
    message = "error: k_max 99999999999999999999 has too many levels for a list\n"
    assert (done.returncode, done.stdout, done.stderr) == (1, "", message)
    assert elapsed < 2, elapsed


def test_a_cache_file_too_large_to_read_is_a_miss(tmp_path):
    # a 2 GiB sparse file under the request's key cannot be read in the
    # child's 1 GiB address space: a miss, printed fresh and rewritten
    # compactly.  Only the child reads it, and only after the size check
    fresh = invoke(["classify", "5", "2", "--cache-dir", str(tmp_path / "fresh")])
    big = tmp_path / "big" / f"classify-v{cli.CACHE_SCHEMA}-5-2-K0-5.json"
    big.parent.mkdir()
    big.touch()
    os.truncate(big, 2 << 30)
    done, elapsed = _run_in_a_gigabyte("classify", "5", "2", "--cache-dir", str(big.parent))
    assert (done.returncode, done.stdout, done.stderr) == fresh
    assert elapsed < 2, elapsed
    assert big.stat().st_size < 100_000
    assert big.read_text() == _cache_file(tmp_path / "fresh", 5, 2).read_text()


def test_an_expansion_too_long_for_a_tuple_is_a_domain_error():
    # -(d + 1)/d expands to d coefficients -2, here about 10^20, past
    # sys.maxsize; the run must be refused before any list is asked for
    slope = "-99999999999999999999/99999999999999999998"
    done, elapsed = _run_in_a_gigabyte("farey", "cf", slope)
    message = f"error: continued fraction of {slope} has too many coefficients for a tuple\n"
    assert (done.returncode, done.stdout, done.stderr) == (1, "", message)
    assert elapsed < 2, elapsed


def test_a_closed_stdout_exits_1_with_nothing_on_stderr():
    # the read end of stdout's pipe is closed before the child starts, so its
    # first write to stdout meets a broken pipe
    env = {**os.environ, "PYTHONPATH": str(Path(nonloose.__file__).parents[1])}
    for argv in (["classify", "5", "2"], ["--help"]):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            done = subprocess.run(
                [sys.executable, "-m", "nonloose", *argv], stdout=write_end, stderr=subprocess.PIPE, env=env
            )
        finally:
            os.close(write_end)
        assert (done.returncode, done.stderr) == (1, b""), argv
