from fractions import Fraction
import json

import pytest

from haltlab.cli import _json
from haltlab.intervals import Interval, format_fraction


def test_parsing_and_formatting():
    """An endpoint is an int or a Fraction: a string is not parsed, and a
    float is not taken as exact."""
    for value in ("3/4", 0.75):
        for build in (lambda: Interval(value, 1), lambda: Interval(0, value)):
            with pytest.raises(TypeError):
                build()
    assert Interval.exact(2).lo == Fraction(2)
    assert format_fraction(Fraction(1, 2)) == "1/2"
    assert format_fraction(Fraction(5)) == "5/1"  # integers keep the /1
    assert format_fraction(Fraction(0)) == "0/1"


def test_reversed_endpoints_rejected():
    with pytest.raises(ValueError):
        Interval(Fraction(1), Fraction(0))


def test_point_intervals():
    p = Interval.exact(Fraction(5, 8))
    assert p.width == 0
    assert p.lo == p.hi == Fraction(5, 8)


def test_string_form_never_floats():
    written = json.loads("".join(_json({"p": Interval(Fraction(1, 3), Fraction(1, 2))})))
    assert written["p"] == {"hi": "1/2", "lo": "1/3", "width": "1/6"}
