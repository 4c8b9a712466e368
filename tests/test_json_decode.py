"""The decoder of the MDP, policy, experiment-config and cells files
(``mdp._decode_json``): orjson reads a file where it reads it as json does, and
json reads every other file, so both routes give the same objects and json
gives every error."""
import io
import json
import struct
from decimal import Decimal, localcontext

import numpy as np
import orjson
import pytest

from dml_ope import mdp_to_dict
from dml_ope.mdp import _ORJSON_DEPTH, _decode_json

from helpers import NOISY_CONFIG, UNUSUAL_CASES, noisy_lift, unusual_input


def by_json(raw: bytes):
    """The json route: ``json.load`` of the bytes as a UTF-8 text file."""
    return json.load(io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8"))


def same(a, b) -> bool:
    """Type- and bit-identical, dicts in the same key order; not recursive, as
    some inputs nest hundreds deep."""
    pending = [(a, b)]
    while pending:
        a, b = pending.pop()
        if type(a) is not type(b):
            return False
        if type(a) is float:
            if struct.pack("<d", a) != struct.pack("<d", b):
                return False
        elif type(a) is list:
            if len(a) != len(b):
                return False
            pending += zip(a, b)
        elif type(a) is dict:
            if list(a) != list(b):
                return False
            pending += zip(a.values(), b.values())
        elif a != b:
            return False
    return True


def outcome(decode, raw: bytes):
    try:
        return decode(raw)
    except (ValueError, RecursionError) as exc:  # JSONDecodeError, UnicodeDecodeError
        return type(exc), str(exc)


@pytest.fixture
def routes(monkeypatch) -> list:
    """The decoders ``_decode_json`` calls, in order: "orjson", "json"."""
    taken = []

    def spy(module, name, label):
        call = getattr(module, name)

        def wrapped(*args, **kwargs):
            taken.append(label)
            return call(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapped)

    spy(orjson, "loads", "orjson")
    spy(json, "load", "json")
    return taken


def numbers_text(texts) -> bytes:
    return ("[" + ", ".join(texts) + "]").encode()


@pytest.mark.parametrize("which", ["noisy_nuisance_config", "lift_mdp"])
def test_input_files_take_the_orjson_route_and_read_alike(routes, which):
    if which == "lift_mdp":  # as the CLI benchmark writes it
        raw = json.dumps(mdp_to_dict(noisy_lift()[0])).encode()
    else:
        raw = NOISY_CONFIG.read_bytes()
    del routes[:]
    assert same(_decode_json(raw), by_json(raw))
    assert routes == ["orjson", "json"]  # the second is by_json's


def test_float_reprs_read_alike(routes):
    bits = np.random.default_rng(20).integers(0, 2**64, 101_000, np.uint64, endpoint=False)
    values = bits.view(np.float64)
    values = values[np.isfinite(values)].tolist()
    assert len(values) >= 100_000
    raw = numbers_text(map(repr, values))
    assert same(_decode_json(raw), values) and routes == ["orjson"]
    assert same(by_json(raw), values)


def test_decimals_of_1_to_40_digits_read_alike():
    # Mantissas of 1 to 40 digits, the point anywhere in them, signs and exponents
    # from below the subnormals to near the largest double.
    rng = np.random.default_rng(21)
    n = 40_000
    lengths = rng.integers(1, 41, n)
    digits = (rng.integers(0, 10, lengths.sum()) + 48).astype(np.uint8).tobytes().decode()
    ends = np.cumsum(lengths).tolist()
    points = (rng.integers(0, 41, n) % (lengths + 1)).tolist()
    exponents = rng.integers(-345, 308, n).tolist()
    texts = []
    for end, size, point, exponent, sign in zip(ends, lengths.tolist(), points, exponents,
                                                rng.integers(0, 2, n).tolist()):
        d = digits[end - size:end]
        mantissa = (d[:point].lstrip("0") or "0") + (f".{d[point:]}" if point < size else "")
        texts.append(f"{'-' * sign}{mantissa}e{exponent - max(point, 1) + 1}")
    raw = numbers_text(texts)
    assert same(orjson.loads(raw), by_json(raw))


def test_midpoints_between_adjacent_doubles_read_alike():
    # Exact ties, which must round to the even neighbour: across all finite
    # exponents, and among the probabilities in [0, 1).
    rng = np.random.default_rng(22)
    low = np.concatenate([rng.integers(0, 0x7FEFFFFFFFFFFFFF, 5_000, np.uint64).view(np.float64),
                          rng.random(5_000)])
    high = np.nextafter(low, np.inf)
    with localcontext() as context:
        context.prec = 800  # a double's exact decimal has at most 767 digits
        texts = [format((Decimal(a) + Decimal(b)) / 2, "e")
                 for a, b in zip(low.tolist(), high.tolist())]
    raw = numbers_text(texts)
    assert same(orjson.loads(raw), by_json(raw))


@pytest.mark.parametrize("which", ["mdp", "policy", "config", "cells"])
@pytest.mark.parametrize("case", UNUSUAL_CASES)
def test_unusual_inputs_take_the_json_route(routes, which, case):
    raw = unusual_input(which, case)
    expected = outcome(by_json, raw)
    del routes[:]
    assert same(outcome(_decode_json, raw), expected)
    assert routes[-1] == "json"


@pytest.mark.parametrize("raw, route", [
    (b"[123456789012345678]", "orjson"),  # 18 digits: within 64 bits
    (b"[1234567890123456789]", "json"),
    (b"1234567890123456789", "json"),  # at the start of the file
    (b'{"a": -12345678901234567890}', "json"),
    (b"[1e1234567890123456789]", "json"),  # an exponent's run counts too
    (b"[0.1234567890123456789012345]", "orjson"),  # a fraction's run does not
    (b'["12345678901234567890"]', "json"),  # nor is a string's told apart
    (b"[" * _ORJSON_DEPTH + b"]" * _ORJSON_DEPTH, "orjson"),
    (b"[" * (_ORJSON_DEPTH + 1) + b"]" * (_ORJSON_DEPTH + 1), "json"),
    (b'["' + b"[" * 600 + b'"]', "orjson"),  # a string's brackets do not nest
    (b'["\\"' + b"]" * 600 + b'", ' + b"[" * 600 + b"]" * 600 + b"]", "json"),
    (b'["\\\\", ' + b"[" * 600 + b"]" * 600 + b"]", "json"),
    (b"[" * 100_000, "json"),  # orjson overflows the C stack 200,000 levels deep
], ids=["18_digits", "19_digits", "19_digits_first", "negative_20_digits", "long_exponent",
        "long_fraction", "digits_in_a_string", "depth_limit", "past_depth_limit",
        "brackets_in_a_string", "escaped_quote", "escaped_backslash", "nested_100k"])
def test_the_guard_routes(routes, raw, route):
    expected = outcome(by_json, raw)
    del routes[:]
    assert same(outcome(_decode_json, raw), expected)
    assert routes[-1] == route


@pytest.mark.parametrize("raw", [
    b'"a\tb"', b'"a\x1fb"', b"\x0b1", b"\xc2\xa01", b" \t\n\r1 \t\n\r", b"[1,]", b'{"a": 1,}',
    b"1.", b".5", b"1e", b"01", b"-", b"+1", b"[true, false, null]", b"True", b"/*c*/1",
    b'{"a": 1, "a": 2, "b": 3}', b'"\\ud83d\\ude00"', "\"\u00e9\U0001F600\"".encode(), b'"\\u0000"',
    b'"\xed\xa0\x80"', b"[1e-999]", b"[-0, -0.0, 0e-0]", b"[1]\x00", b"[]]",
], ids=["raw_tab_in_string", "raw_unit_separator", "vertical_tab", "no_break_space",
        "json_whitespace", "array_trailing_comma", "object_trailing_comma", "bare_point",
        "leading_point", "bare_exponent", "leading_zero", "bare_minus", "plus_sign", "literals",
        "capital_true", "comment", "repeated_key", "surrogate_pair", "utf8_text", "nul_escape",
        "utf8_surrogate", "underflow", "negative_zeros", "trailing_nul", "extra_bracket"])
def test_syntax_edge_cases_read_alike(raw):
    assert same(outcome(_decode_json, raw), outcome(by_json, raw))
