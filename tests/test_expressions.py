"""The expression grammar of custom coefficients and a(t) (`_expressions`)."""

import ast
import itertools
import sys
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skyframes import _expressions as ex
from skyframes import manifold as mf

STRUCTURE = {ast.Expression, ast.BinOp, ast.UnaryOp, ast.Constant, ast.Name, ast.Load}


def test_the_grammar_names_each_operator_once():
    nodes = ex._ALLOWED_NODES
    assert len(nodes) == len(set(nodes)) == len(STRUCTURE) + len(ex._OPS)
    assert set(nodes) - STRUCTURE == set(ex._OPS)
    assert all(issubclass(op, (ast.operator, ast.unaryop)) for op in ex._OPS)


@pytest.mark.parametrize("src", ["t+x", "t-x", "t*x", "t/x", "t**x", "-t", "+t"])
def test_each_operator_parses(src):
    assert ast.dump(ex._parse_expression(src)) == ast.dump(ast.parse(src, mode="eval").body)


@pytest.mark.parametrize(
    "src",
    ["t%x", "t//x", "t@x", "t<<x", "t>>x", "t&x", "t|x", "t^x", "~t", "not t", "t<x", "t==x",
     "t<=x<y", "t and x", "t or x", "t if x else y", "t[0]", "t.real", "(t, x)", "lambda: t",
     "f(t)"],
)
def test_every_other_construct_is_disallowed(src):
    with pytest.raises(ValueError, match="disallowed syntax"):
        ex._parse_expression(src)


@pytest.mark.parametrize("action", ["always", "error"])
def test_an_invalid_escape_is_refused_without_a_warning(action):
    # the parser warned of '\d' (DeprecationWarning), and under -W error the
    # warning turned into "does not parse"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter(action)
        with pytest.raises(ValueError, match="only numeric constants are allowed"):
            mf.metric_from_config({"kind": "flrw", "a_expr": "'\\d'"})
    assert not caught, [str(w.message) for w in caught]


def _at_depth(k, call):
    """call() made k frames deeper."""
    return call() if k == 0 else _at_depth(k - 1, call)


@pytest.mark.parametrize("frames", [0, 1])
def test_a_constant_scale_factor_nested_to_the_parse_limit_raises_value_error(frames):
    # a body without names is computed again, one call deeper than the
    # parse, and at one nesting below the parse's limit RecursionError got
    # through; the window is one frame wide, so two stack depths cover it
    start = sys.getrecursionlimit() // 2 - 100
    for n in itertools.count(start):
        src = "1" + "*1" * n
        try:
            _at_depth(frames, lambda: mf.metric_from_config({"kind": "flrw", "a_expr": src}))
        except ValueError as exc:
            assert "nests too deeply to parse" in str(exc)
            break
    assert n > start  # the scan began below the limit


def _bodies(depth):
    """Bodies of the grammar to the depth: the extreme numbers, the names,
    and the binary and unary operators, with and without parentheses."""
    leaf = st.sampled_from(["0", "1e308", "5e-324", "t", "x", "y", "z"])
    if depth == 0:
        return leaf
    inner = _bodies(depth - 1)
    binary = st.builds(str.format, st.sampled_from(["{}{}{}", "({}{}{})"]), inner,
                       st.sampled_from(["+", "-", "*", "/", "**"]), inner)
    return st.one_of(leaf, binary, st.builds("{}{}".format, st.sampled_from("-+"), inner))


BODIES = _bodies(4)
#: Bodies, truncated or with whitespace put in, and raw text, non-ASCII too.
TEXTS = st.one_of(
    BODIES,
    st.builds(lambda s, k: s[:k], BODIES, st.integers(0, 30)),
    st.builds(lambda s, k, w: s[:k] + w + s[k:], BODIES, st.integers(0, 30),
              st.sampled_from([" ", "\t", "\n", "\r", "\x0c", " ", "\\\n"])),
    st.text(st.sampled_from([*"tdq+-*/() .e019\t\n\\'\"%~,", "é", "ｔ", "²", "−", "π", "\x00"]),
            max_size=12),
)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(TEXTS, st.integers(0, 3))
def test_any_text_builds_a_metric_or_raises_value_error(src, slot):
    # as a coefficient (the others those of flat space) and as a(t)
    coeffs = ["1", "-1", "-1", "-1"]
    coeffs[slot] = src
    for cfg in ({"kind": "custom", "coeffs": coeffs}, {"kind": "flrw", "a_expr": src}):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                assert isinstance(mf.metric_from_config(cfg), mf.MetricSpec)
            except ValueError:
                pass
        assert not caught, (src, [str(w.message) for w in caught])
