"""Fuzzing of every text and JSON reader.

Each reader either returns a value or raises ValueError (BraidSyntaxError
is one); a value it returns survives the round trip through its writer.
The CLI, run in-process on files of arbitrary or nearly valid JSON, ends
with one of the documented exit codes and lets no exception escape.
"""

import contextlib
import copy
import io
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from braidrev import (
    B3Rep,
    BraidWord,
    CycMatrix,
    CycRat,
    DimVector,
    QuiverRep,
    build_rep,
    parse_braid,
    parse_cycrat,
)
from braidrev.cli import main

QUIVER = QuiverRep(DimVector(1, 1, 1, 0, 1),
                   CycMatrix([[1, 1], [2, CycRat(Fraction(1, 2), -1)]])).to_obj()
REP = build_rep(QuiverRep.from_obj(QUIVER)).to_obj()
VALID = {CycMatrix: QUIVER["B"], DimVector: QUIVER["dims"], QuiverRep: QUIVER, B3Rep: REP}

JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 6) | st.floats() | st.text(max_size=6),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=4), inner, max_size=4)),
    max_leaves=12,
)


@st.composite
def mutated(draw, obj):
    """``obj`` with one value somewhere inside it replaced by arbitrary JSON,
    or deleted if it sits in an object."""
    obj = copy.deepcopy(obj)
    parent, key, node = None, None, obj
    while isinstance(node, (dict, list)) and node and draw(st.integers(0, 3)):
        key = draw(st.sampled_from(list(node) if isinstance(node, dict)
                                   else range(len(node))))
        parent, node = node, node[key]
    if parent is None:
        return draw(JSON)
    if isinstance(parent, dict) and draw(st.booleans()):
        del parent[key]
    else:
        parent[key] = draw(JSON)
    return obj


BRAID_TEXT = st.text() | st.text(alphabet="s12^+-0 9x\t")
WORDS = st.builds(
    lambda first, exps: BraidWord(tuple((1 + (first + i) % 2, e) for i, e in enumerate(exps))),
    st.integers(0, 1),
    st.lists(st.integers(-6, 6).filter(bool), max_size=6),
)


class TestParsers:
    @given(BRAID_TEXT)
    @settings(deadline=None, max_examples=100)
    def test_parse_braid_returns_or_refuses(self, text):
        try:
            word = parse_braid(text)
        except ValueError:  # BraidSyntaxError, or an exponent int() refuses
            return
        assert parse_braid(str(word)) == word

    @given(WORDS)
    @settings(deadline=None, max_examples=100)
    def test_braid_round_trip(self, word):
        assert parse_braid(str(word)) == word

    @given(st.text() | st.text(alphabet="0123456789/+-w ") | JSON)
    @settings(deadline=None, max_examples=100)
    def test_parse_cycrat_returns_or_refuses(self, text):
        try:
            value = parse_cycrat(text)
        except ValueError:
            return
        assert parse_cycrat(str(value)) == value

    @given(st.fractions(), st.fractions())
    @settings(deadline=None, max_examples=100)
    def test_cycrat_round_trip(self, re, rh):
        value = CycRat(Fraction(re), Fraction(rh))
        assert parse_cycrat(str(value)) == value


@pytest.mark.parametrize("cls", list(VALID), ids=lambda cls: cls.__name__)
@given(data=st.data())
@settings(deadline=None, max_examples=60)
def test_from_obj_returns_or_refuses(cls, data):
    obj = data.draw(JSON | mutated(VALID[cls]))
    try:
        value = cls.from_obj(obj)
    except ValueError:
        return
    assert cls.from_obj(json.loads(json.dumps(value.to_obj()))) == value


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    (root / "quiver.json").write_text(json.dumps(QUIVER), encoding="utf-8")
    return root


@pytest.mark.parametrize("args, valid", [
    (["trace", "--rep", "{f}", "--braid", "s1 s2^-1"], REP),
    (["build", "--quiver", "{f}"], QUIVER),
    (["isom", "--rep1", "{f}", "--rep2", "{q}", "--output", "json"], QUIVER),
], ids=["trace", "build", "isom"])
@given(data=st.data())
@settings(deadline=None, max_examples=40)
def test_cli_exit_codes(files, args, valid, data):
    path = files / "input.json"
    content = data.draw(st.one_of(
        st.builds(json.dumps, JSON | mutated(valid)).map(str.encode),
        st.binary(max_size=20),
    ))
    path.write_bytes(content)
    argv = [a.replace("{f}", str(path)).replace("{q}", str(files / "quiver.json"))
            for a in args]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    assert (code == 2) == err.getvalue().startswith("error:")
