"""Canonical JSON encoding: rationals as "p/q" strings, matrices row-major."""

import json
import re
from fractions import Fraction

from .exactlin import asmat, mat

# the strings a rational is read from: ASCII digits, a sign, one "/"
_RATIONAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def rat_to_str(x):
    if type(x) is int:
        return str(x)
    f = Fraction(x)
    if f.denominator == 1:
        return str(f.numerator)
    return f"{f.numerator}/{f.denominator}"


def str_to_rat(s):
    """A rational from its JSON form: a JSON integer, or a string [+-]?digits
    or [+-]?digits/digits of ASCII digits, like "-3/4".  A float, a boolean
    and any other string (a decimal, an exponent, whitespace, "_", a
    non-ASCII digit) are input errors."""
    if type(s) is int:
        return s
    if type(s) is not str or not _RATIONAL.fullmatch(s):
        raise ValueError(f"a rational is a string like \"3/4\" or an integer, not {s!r}")
    try:
        f = Fraction(s)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {s!r}") from None
    return int(f) if f.denominator == 1 else f


def mat_to_json(m):
    return [[rat_to_str(x) for x in row] for row in asmat(m).rows]


def json_to_mat(rows):
    return mat([[str_to_rat(x) for x in row] for row in rows])


def json_to_vec(row):
    return [str_to_rat(x) for x in row]


def dumps(obj):
    """Deterministic, diff-friendly encoding."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"
