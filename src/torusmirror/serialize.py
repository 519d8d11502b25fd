"""Canonical JSON encoding: rationals as "p/q" strings, matrices row-major."""

import json
from fractions import Fraction

from .exactlin import asmat, mat


def rat_to_str(x):
    if type(x) is int:
        return str(x)
    f = Fraction(x)
    if f.denominator == 1:
        return str(f.numerator)
    return f"{f.numerator}/{f.denominator}"


def str_to_rat(s):
    """A rational from its JSON form: a string like "3/4" or a JSON integer;
    a float or a boolean is an input error."""
    if type(s) not in (str, int):
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
