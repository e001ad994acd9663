"""Source guards for the one-implementation layers: every difference
quotient is formed in fd.py, cone_metric builds no jet exponent by
hand (it goes through jets.wirtinger_exponent), and every power by
square-and-multiply is rational.power."""

import pathlib
import re

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "conedeform"

QUOTIENT = re.compile(r"/ \((2 \* h|h \* h)")
HAND_EXPONENT = re.compile(r"\[0\] \* (\(2 \* n|nv\b)")
HALVING = re.compile(r"\bk >>= 1\b")


def _offending(pattern, path):
    return [f"{path.name}:{ln}" for ln, line in
            enumerate(path.read_text().splitlines(), start=1)
            if pattern.search(line)]


def test_only_fd_forms_difference_quotients():
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) > 10
    found = [hit for path in modules for hit in _offending(QUOTIENT, path)]
    assert found and all(hit.startswith("fd.py:") for hit in found), found


def test_cone_metric_builds_no_exponent_by_hand():
    assert _offending(HAND_EXPONENT, SRC / "cone_metric.py") == []


def test_only_rational_squares_and_multiplies():
    """rational.power is the one square-and-multiply loop."""
    found = [hit for path in sorted(SRC.glob("*.py"))
             for hit in _offending(HALVING, path)]
    assert found and all(hit.startswith("rational.py:") for hit in found), found


def test_patterns_catch_the_forms_they_guard():
    assert QUOTIENT.search("return (fp - fm) / (2 * h)")
    assert QUOTIENT.search("return (fp - 2 * f0 + fm) / (h * h)")
    assert HAND_EXPONENT.search("e = [0] * (2 * n)")
    assert HAND_EXPONENT.search("e = [0] * (2 * n + 2)")
    assert HAND_EXPONENT.search("e = [0] * nv")
    assert not HAND_EXPONENT.search("e = [0] * nvars")
    assert HALVING.search("        k >>= 1")
    assert not HALVING.search("        kk >>= 1")
