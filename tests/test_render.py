"""The schema-exact JSON writer against the general-purpose encoder, and
every renderer on malformed atlases.

`classification_json` must give the bytes of `json.dumps(indent=2)` on
every payload in the atlas schema, and raise on anything else.  The other
renderers may print a malformed atlas, but when they fail they raise only
the exceptions that make `nonloose classify --cache-dir` treat the file as
a miss.
"""

import json
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nonloose import render
from nonloose.render import classification_dict, classification_json
from nonloose.unknots import KnotId, LensSpace, classify, smooth_knot_classes
from oracles import classification_json_by_dumps, classification_svg_by_floats

# what cli._read_cached counts as a file the renderer cannot read
MISSES = (LookupError, TypeError, ValueError, ArithmeticError)


def test_json_writer_matches_dumps_on_every_small_lens():
    checked = 0
    for p in range(2, 14):
        for q in range(1, p):
            if gcd(p, q) != 1:
                continue
            lens = LensSpace(p, q)
            for knot in smooth_knot_classes(lens):
                for k_max in (3, 5):
                    payload = classification_dict(lens, knot, k_max, classify(lens, knot, k_max))
                    assert classification_json(payload) == classification_json_by_dumps(payload), (p, q, str(knot), k_max)
                    checked += 1
    assert checked == 362


# atlas-shaped payloads: strings from all of Unicode, lone surrogates,
# quotes, backslashes and control characters included, and ints of any size
_texts = st.text(st.one_of(st.sampled_from('"\\\x00\x1f\x7f \ud800\U0001f600'), st.characters(exclude_categories=())), max_size=4)
_ints = st.one_of(st.integers(), st.integers(min_value=2**63), st.integers(max_value=-(2**63)))


def _lists(elements):
    return st.lists(elements, max_size=3)


def _object(**values):
    # a dict with these keys in this order
    return st.tuples(*values.values()).map(lambda drawn: dict(zip(values, drawn)))


_edges = _object(source=_texts, sign=_texts, target=_texts)
_members = _object(
    id=_texts, arm=_texts, index=_ints, tb=_texts, rot=_texts, slope=_texts,
    complement=_object(path=_lists(_texts), minus=_lists(_ints)),
)
_ranges = _object(kind=_texts, base=_lists(_texts), euler=_ints, members=_lists(_members), stabilizations=_lists(_edges))
_payloads = _object(lens=_object(p=_ints, q=_ints), knot=_texts, k_max=_ints, ranges=_lists(_ranges))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(payload=_payloads)
def test_json_writer_matches_dumps_on_atlas_shaped_payloads(payload):
    assert classification_json(payload) == classification_json_by_dumps(payload)


def test_svg_reads_a_fraction_text_as_fraction_float_does(rng):
    # past a float's 53-bit mantissa, float(num) / float(den) would round twice
    for bits in (8, 60, 200):
        for _ in range(300):
            value = Fraction(rng.randrange(-(2**bits), 2**bits), rng.randrange(1, 2**bits))
            assert render._float(str(value)) == float(value), value


def _values(doc, path=()):
    # (path, value) for doc and every value nested in it
    yield path, doc
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from _values(value, path + (key,))


def _defects(value):
    # the values to put in place of value, each breaking the schema once
    if isinstance(value, dict):
        yield from ([value], list(value))
        yield {**value, "extra": 0}
        yield dict(reversed(value.items()))
        for key in value:
            yield {k: v for k, v in value.items() if k != key}
    elif isinstance(value, list):
        yield "[]"
    elif type(value) is int:
        yield from (True, float(value))
    elif isinstance(value, str):
        yield 0


def _with(doc, path, defect):
    # a copy of doc with defect in place of the value at path
    if not path:
        return defect
    doc = json.loads(json.dumps(doc))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = defect
    return doc


def _malformed_at(payload):
    # (the value a defect replaces, the copy of payload with that one defect)
    for path, value in _values(payload):
        for defect in _defects(value):
            yield value, _with(payload, path, defect)


def _malformed(payload):
    # copies of payload with one defect each
    return (doc for _, doc in _malformed_at(payload))


def test_renderers_raise_only_misses_on_malformed_atlases():
    lens, knot = LensSpace(5, 2), smooth_knot_classes(LensSpace(5, 2))[0]
    payload = classification_dict(lens, knot, 3, classify(lens, knot, 3))
    checked = 0
    for doc in _malformed(payload):
        with pytest.raises((TypeError, ValueError)):
            classification_json(doc)
        for fmt in ("table", "csv", "svg"):
            try:
                getattr(render, f"classification_{fmt}")(doc)
            except MISSES:
                pass
        checked += 1
    assert checked > 500


def _atlas(p: int, q: int, knot: KnotId, k_max: int) -> dict:
    lens = LensSpace(p, q)
    return classification_dict(lens, knot, k_max, classify(lens, knot, k_max))


def test_json_writer_raises_value_error_exactly_where_an_object_is_broken():
    # the exception names the defect: ValueError for a broken object, TypeError
    # otherwise, on the corpus of test_renderers_raise_only_misses_on_malformed_atlases
    checked = 0
    for value, doc in _malformed_at(_atlas(5, 2, KnotId.parse("K0"), 3)):
        expected = ValueError if isinstance(value, dict) else TypeError
        with pytest.raises((TypeError, ValueError)) as caught:
            classification_json(doc)
        assert caught.type is expected, (value, doc)
        checked += 1
    assert checked == 1505


def test_json_writer_raises_for_the_first_defect_in_key_order(rng):
    # two defects, one breaking an object and one a list, str or int: the
    # writer reads fields in key order, so the one earlier in the document raises
    payload = _atlas(5, 2, KnotId.parse("K0"), 3)
    positions = [(path, value) for path, value in _values(payload) if path]
    checked = 0
    while checked < 300:
        i, j = sorted(rng.sample(range(len(positions)), 2))
        (first, value), (second, other) = positions[i], positions[j]
        if second[: len(first)] == first or isinstance(value, dict) == isinstance(other, dict):
            continue
        doc = _with(_with(payload, second, next(_defects(other))), first, next(_defects(value)))
        with pytest.raises((TypeError, ValueError)) as caught:
            classification_json(doc)
        assert caught.type is (ValueError if isinstance(value, dict) else TypeError), (first, second)
        checked += 1


@pytest.fixture(scope="module")
def small_lens_atlases():
    # every oriented core of every L(p,q) with p <= 13, at k_max 3 and 5
    return [
        _atlas(p, q, knot, k_max)
        for p in range(2, 14)
        for q in range(1, p)
        if gcd(p, q) == 1
        for knot in smooth_knot_classes(LensSpace(p, q))
        for k_max in (3, 5)
    ]


@pytest.fixture(scope="module")
def cli_atlases():
    # the cli benchmark's queries: every coprime q for p in {13, 29}, K0 and K1, k_max 3
    return [
        _atlas(p, q, KnotId.parse(name), 3) for p in (13, 29) for q in range(2, p) if gcd(p, q) == 1 for name in ("K0", "K1")
    ]


@pytest.mark.parametrize("atlases, count", [("small_lens_atlases", 362), ("cli_atlases", 76)])
def test_renderers_match_their_oracles_byte_for_byte(atlases, count, request):
    payloads = request.getfixturevalue(atlases)
    assert len(payloads) == count
    for payload in payloads:
        text = classification_json(payload)
        where = (payload["lens"], payload["knot"], payload["k_max"])
        assert text == classification_json_by_dumps(payload), where
        # a cached atlas is rendered from the JSON text read back
        for doc in (payload, json.loads(text)):
            assert render.classification_svg(doc) == classification_svg_by_floats(doc), where
