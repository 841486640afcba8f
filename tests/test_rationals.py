"""The one digit rule: the integer and rational readers accept and reject
exactly what the reference regexes of ``helpers`` do, with equal values
and equal messages."""

import pytest
from helpers import reference_parse_integer, reference_parse_rational
from hypothesis import given, settings
from hypothesis import strategies as st

from covergame.rationals import _echo, _parse_integer, parse_rational

PROPERTY = settings(derandomize=True, max_examples=400, deadline=None, database=None)

EDGE_TOKENS = [
    "", "-", "+1", "1_0", " 1", "1\n", "١", "²", "１", "0/0", "5/00", "1/",
    "/1", "1/-2", "1/2/3", "--1", "-0", "007", "-12/34", "1 /2", "1.5", "1e3",
    "1" * 4300, "1" * 4301, "-" + "1" * 4300, "-" + "1" * 4301,
    "1/" + "7" * 4300, "1/" + "7" * 4301, "9" * 4301 + "/0",
]

# Mostly the characters the rule is about, so near misses are common.
TOKENS = st.one_of(
    st.text(alphabet="0123456789-/+_ .\n١²１a", max_size=8),
    st.from_regex(r"-?[0-9]{1,6}(/-?[0-9]{0,6})?", fullmatch=True),
)


def outcome(read, token):
    """(value, None) when ``read`` takes the token, else (None, its error)."""
    try:
        return read(token), None
    except ValueError as exc:
        return None, (type(exc), str(exc))


def assert_follows_reference(token: str) -> None:
    for read, reference in [
        (_parse_integer, reference_parse_integer),
        (parse_rational, reference_parse_rational),
    ]:
        got, expected = outcome(read, token), outcome(reference, token)
        assert got == expected and type(got[0]) is type(expected[0]), read.__name__


@pytest.mark.parametrize("token", EDGE_TOKENS, ids=[_echo(t) for t in EDGE_TOKENS])
def test_edge_tokens_follow_the_reference(token):
    assert_follows_reference(token)


@PROPERTY
@given(TOKENS)
def test_random_tokens_follow_the_reference(token):
    assert_follows_reference(token)

