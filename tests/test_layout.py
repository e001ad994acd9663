"""Source guards for the one-implementation layers: every difference
quotient is formed in fd.py, cone_metric builds no jet exponent by
hand (it goes through jets.wirtinger_exponent), every power by
square-and-multiply is rational.power, and the Beltrami source
-a(zeta + zfrak) (1 + conj(d zfrak)) is formed only in
dbar._beltrami_source."""

import ast
import pathlib
import re

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "conedeform"

QUOTIENT = re.compile(r"/ \((2 \* h|h \* h)")
HAND_EXPONENT = re.compile(r"\[0\] \* (\(2 \* n|nv\b)")
HALVING = re.compile(r"\bk >>= 1\b")
BELTRAMI_FACTOR = re.compile(r"\(1\.0 \+ np\.conj\(")


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


def _enclosing_function(path, lineno):
    """Name of the innermost function whose body holds line `lineno`."""
    name = None
    for node in ast.walk(ast.parse(path.read_text())):
        if (isinstance(node, ast.FunctionDef)
                and node.lineno <= lineno <= node.end_lineno):
            if name is None or node.lineno > name[0]:
                name = (node.lineno, node.name)
    return name and name[1]


def test_only_beltrami_source_forms_the_beltrami_factor():
    found = [(path, ln) for path in sorted(SRC.glob("*.py"))
             for ln, line in enumerate(path.read_text().splitlines(), start=1)
             if BELTRAMI_FACTOR.search(line)]
    where = {(p.name, _enclosing_function(p, ln)) for p, ln in found}
    assert found and where == {("dbar.py", "_beltrami_source")}, where


def test_patterns_catch_the_forms_they_guard():
    assert QUOTIENT.search("return (fp - fm) / (2 * h)")
    assert QUOTIENT.search("return (fp - 2 * f0 + fm) / (h * h)")
    assert HAND_EXPONENT.search("e = [0] * (2 * n)")
    assert HAND_EXPONENT.search("e = [0] * (2 * n + 2)")
    assert HAND_EXPONENT.search("e = [0] * nv")
    assert not HAND_EXPONENT.search("e = [0] * nvars")
    assert HALVING.search("        k >>= 1")
    assert not HALVING.search("        kk >>= 1")
    assert BELTRAMI_FACTOR.search("gv = -a(zeta + zf) * (1.0 + np.conj(dzf))")
