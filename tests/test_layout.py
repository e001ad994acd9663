"""Source guards for the one-implementation layers: every difference
quotient is formed in fd.py, cone_metric builds no jet exponent by
hand (it goes through jets.wirtinger_exponent), every power by
square-and-multiply is rational.power, and the Beltrami source
-a(zeta + zfrak) (1 + conj(d zfrak)) is formed only in
dbar._beltrami_source.  No module reads the environment: settings come
from argv and the deck alone, and none imports anything beyond the
standard library, numpy and the package itself.  src keeps only what the package, the
bench or the demos reach, plus a named library API; test oracles live
in the tests.  Every method of src is referenced, every annotated
field of a src class is read, and every defaulted parameter is passed,
somewhere in src, the bench, the demos or the tests."""

import ast
import pathlib
import re
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "conedeform"

QUOTIENT = re.compile(r"/ \((2 \* h|h \* h)")
HAND_EXPONENT = re.compile(r"\[0\] \* (\(2 \* n|nv\b)")
HALVING = re.compile(r"\bk >>= 1\b")
BELTRAMI_FACTOR = re.compile(r"\(1\.0 \+ np\.conj\(")
ENVIRONMENT_READ = re.compile(r"\b(environ|getenv)\b")


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


def test_src_reads_no_environment():
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) > 10
    found = [hit for path in modules
             for hit in _offending(ENVIRONMENT_READ, path)]
    assert found == [], found


def _foreign_imports(label, text):
    """'label:line module' for each absolute import, at any depth, of a
    module outside the standard library, numpy and the package."""
    allowed = set(sys.stdlib_module_names) | {"numpy", PACKAGE}
    found = []
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module]
        else:
            continue
        found += [f"{label}:{node.lineno} {name}" for name in names
                  if name.split(".")[0] not in allowed]
    return found


def test_src_imports_only_the_stdlib_numpy_and_itself():
    """numpy is the one runtime dependency: scipy and the like may be
    installed where the tests run, so an import of them would pass here
    and fail for a user."""
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) > 10
    found = [hit for path in modules
             for hit in _foreign_imports(path.name, path.read_text())]
    assert found == [], found


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
    assert ENVIRONMENT_READ.search('raw = os.environ.get("TOL", "1e-10")')
    assert ENVIRONMENT_READ.search('rings = int(os.getenv("RINGS", "8"))')
    assert not ENVIRONMENT_READ.search("# the environment is never read")
    assert _foreign_imports("p.py", "import numpy as np\nimport scipy.linalg"
                            "\n") == ["p.py:2 scipy.linalg"]
    assert _foreign_imports("p.py", "def f():\n    from sympy import S\n") \
        == ["p.py:2 sympy"]
    assert _foreign_imports(
        "p.py", "from __future__ import annotations\nimport math, os.path\n"
                "from . import fd\nfrom .linalg import solve\n"
                "from conedeform import dbar\nfrom numpy import fft\n") == []


# Top-level names that nothing in src, bench/ or demos/ calls, kept as the
# library's entry points to results of the paper that the tests check.
LIBRARY_API = {
    "calabi_exponent": "Ricci-flat exponent mu/(dimD + 1) of the ansatz",
    "tian_yau_exponent": "exponent (alpha - 1)/n of the Tian-Yau metric",
    "normalize_chart": "brings a chart to the form the metric formulas use",
    "cauchy_transform": "the transform T itself, whose T(1) = conj(zeta) "
                        "fixes the sign convention that Ttilde = T - T(0) "
                        "inherits",
    "with_lifting_family": "adjoins an order's lifting family once its "
                           "obstruction vanishes",
    "linear_transition": "the product-type germ, without obstructions",
    "parse_polynomial": "one polynomial in the deck grammar",
    "invert_transition": "the chart swap of a transition germ",
}

PACKAGE = "conedeform"


def _module_name(label):
    """A source file's module: its stem, or the package for __init__."""
    stem = pathlib.PurePath(label).stem
    return PACKAGE if stem == "__init__" else stem


def _dotted(node):
    """'a.b.c' for a chain of attributes on a name, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    return ".".join([node.id, *reversed(parts)])


def _references(tree, module, modules):
    """(module.name, line) for every reference of a module to a top-level
    binding: `from .linalg import x` and `linalg.x` name linalg.x, a bare
    name its own module's binding (or what it was imported as), and the
    bench's (module, name) layer tuples the layer's owner.  Attributes of
    other objects (`data.rank`) and strings name nothing."""
    def canonical(path):
        head, _, rest = path.partition(".")
        if head == PACKAGE and rest.split(".")[0] in modules:
            return rest
        return path

    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = alias.name if alias.asname else name
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                base = ".".join(filter(None, (PACKAGE, base)))
            for alias in node.names:
                bound[alias.asname or alias.name] = f"{base}.{alias.name}"
                yield canonical(f"{base}.{alias.name}"), node.lineno
    for node in ast.walk(tree):
        path = None
        if isinstance(node, (ast.Name, ast.Attribute)):
            path = _dotted(node)
            if path is not None:
                head, _, rest = path.partition(".")
                path = ".".join(filter(None, (
                    bound.get(head, f"{module}.{head}"), rest)))
        elif (isinstance(node, ast.Tuple) and len(node.elts) >= 2
              and all(isinstance(e, ast.Constant) and isinstance(e.value, str)
                      for e in node.elts[:2])
              and node.elts[0].value in modules):
            layer_owner = node.elts[1].value.split(".")[0]
            path = f"{node.elts[0].value}.{layer_owner}"
        if path is not None:
            yield canonical(path), node.lineno


def _unreferenced(labels, users):
    """Top-level functions and classes of the modules `labels` that no
    module of `users` (label -> source text, the modules included)
    references outside the definition itself."""
    trees = {label: ast.parse(text) for label, text in users.items()}
    modules = {_module_name(label) for label in users}
    refs = {}
    for label, tree in trees.items():
        for path, line in _references(tree, _module_name(label), modules):
            refs.setdefault(path, []).append((label, line))
    out = set()
    for label in labels:
        for node in trees[label].body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not any(
                    where != label or not node.lineno <= line <= node.end_lineno
                    for where, line in refs.get(
                        f"{_module_name(label)}.{node.name}", ())):
                out.add(node.name)
    return out


def _sources(*dirs, tests=False):
    return {str(path): path.read_text() for d in dirs
            for path in sorted(d.glob("*.py"))
            if tests or not path.name.startswith("test_")}


def test_src_keeps_only_what_is_reached():
    modules = _sources(SRC)
    users = {**modules, **_sources(REPO / "bench", REPO / "demos")}
    assert len(modules) > 10 and len(users) > len(modules) + 5
    found = _unreferenced(modules, users)
    assert found - set(LIBRARY_API) == set()
    assert set(LIBRARY_API) <= found, set(LIBRARY_API) - found


def test_unreferenced_scan_flags_a_planted_name():
    planted = {"planted.py": "def orphan(n):\n    return orphan(n - 1)\n\n\n"
                             "def used():\n    return 1\n\n\n"
                             "class Orphan:\n    pass\n\n\n"
                             "def rank(rows):\n    return len(rows)\n",
               "user.py": "LAYERS = [('planted', 'used')]\n"
                          "COUNTER = 'planted.used.rank'\n\n\n"
                          "def size(data):\n    return data.rank\n"}
    # an attribute or a counter string of the same name is no reference
    assert _unreferenced(["planted.py"], planted) == {"orphan", "Orphan",
                                                      "rank"}
    for use in ("from planted import rank\n", "from .planted import rank\n",
                "import planted as p\nn = p.rank([])\n"):
        assert _unreferenced(["planted.py"], {**planted, "other.py": use}) \
            == {"orphan", "Orphan"}, use


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def _unreferenced_methods(labels, users):
    """Class.method for each method, dunders aside, of a top-level class of
    the modules `labels` whose name no module of `users` reads as an
    attribute (`x.method`) outside the method itself.  A bare name of the
    same spelling (a parameter, a local) is no reference."""
    trees = {label: ast.parse(text) for label, text in users.items()}
    reads = {}
    for label, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                reads.setdefault(node.attr, []).append((label, node.lineno))
    out = set()
    for label in labels:
        for cls in trees[label].body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for fn in cls.body:
                if (isinstance(fn, ast.FunctionDef)
                        and not _is_dunder(fn.name)
                        and all(where == label
                                and fn.lineno <= line <= fn.end_lineno
                                for where, line in reads.get(fn.name, ()))):
                    out.add(f"{cls.name}.{fn.name}")
    return out


def _calls(trees):
    """callee name -> [(positional count, keyword names, starred)] over
    every call of `trees`.  f(...) and x.f(...) both call f, a name
    imported `as` another calls the original, and a call with *args or
    **kwargs is starred."""
    calls = {}
    for tree in trees:
        alias = {a.asname: a.name for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom)
                 for a in node.names if a.asname}
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            if isinstance(node.func, ast.Attribute):
                name = node.func.attr
            elif isinstance(node.func, ast.Name):
                name = alias.get(node.func.id, node.func.id)
            else:
                continue
            starred = (any(isinstance(a, ast.Starred) for a in node.args)
                       or any(k.arg is None for k in node.keywords))
            calls.setdefault(name, []).append(
                (len(node.args), {k.arg for k in node.keywords}, starred))
    return calls


def _functions(tree):
    """(qualified name, callee name, def, bound) for each top-level function
    and each method of a top-level class; __init__ is called by its
    class's name, and a bound method's first parameter is implicit."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node.name, node, False
        elif isinstance(node, ast.ClassDef):
            for fn in node.body:
                if not isinstance(fn, ast.FunctionDef) or (
                        _is_dunder(fn.name) and fn.name != "__init__"):
                    continue
                static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                             for d in fn.decorator_list)
                callee = node.name if fn.name == "__init__" else fn.name
                yield f"{node.name}.{fn.name}", callee, fn, not static


def _unset_parameters(labels, users):
    """'function(parameter)' for each parameter with a default, of a
    function or method of the modules `labels`, that no call in `users`
    passes, by keyword, by position or through *args/**kwargs."""
    calls = _calls(ast.parse(text) for text in users.values())
    out = set()
    for label in labels:
        for qual, callee, fn, bound in _functions(ast.parse(users[label])):
            args = fn.args
            positional = (args.posonlyargs + args.args)[int(bound):]
            first = len(positional) - len(args.defaults)
            defaulted = [(p.arg, i) for i, p in enumerate(positional)
                         if i >= first]
            defaulted += [(p.arg, None) for p, d in
                          zip(args.kwonlyargs, args.kw_defaults)
                          if d is not None]
            for name, index in defaulted:
                if not any(starred or name in keywords
                           or (index is not None and npos > index)
                           for npos, keywords, starred
                           in calls.get(callee, ())):
                    out.add(f"{qual}({name})")
    return out


def _everything():
    return _sources(SRC), _sources(SRC, REPO / "bench", REPO / "demos",
                                   REPO / "tests", tests=True)


def test_src_methods_are_referenced():
    modules, users = _everything()
    assert len(users) > len(modules) + 20
    assert _unreferenced_methods(modules, users) == set()


def test_src_defaults_are_passed():
    modules, users = _everything()
    assert _unset_parameters(modules, users) == set()


PLANTED = {
    "planted.py": "class Shape:\n"
                  "    def __init__(self, n, scale=1):\n"
                  "        self.n = n * scale\n\n"
                  "    def area(self):\n"
                  "        return self.n\n\n"
                  "    def orphan(self):\n"
                  "        return self.orphan()\n\n\n"
                  "def grow(shape, step=1, *, fast=False):\n"
                  "    return shape.area() + step\n",
    "user.py": "from planted import Shape, grow\n\n\n"
               "def orphan(orphan):\n"
               "    return grow(Shape(orphan), fast=True)\n",
}


def test_method_scan_flags_a_planted_method():
    assert _unreferenced_methods(["planted.py"], PLANTED) == {"Shape.orphan"}
    other = {**PLANTED, "other.py": "def f(s):\n    return s.orphan\n"}
    assert _unreferenced_methods(["planted.py"], other) == set()


def _unread_fields(labels, users):
    """Class.field for each annotated field of a top-level class of the
    modules `labels` whose name no module of `users` reads as an attribute
    (`x.field`).  A store (`x.field = v`), a keyword or a bare name of the
    same spelling is no read."""
    reads = {node.attr for text in users.values()
             for node in ast.walk(ast.parse(text))
             if isinstance(node, ast.Attribute)
             and isinstance(node.ctx, ast.Load)}
    out = set()
    for label in labels:
        for cls in ast.parse(users[label]).body:
            if isinstance(cls, ast.ClassDef):
                out |= {f"{cls.name}.{node.target.id}" for node in cls.body
                        if isinstance(node, ast.AnnAssign)
                        and isinstance(node.target, ast.Name)
                        and node.target.id not in reads}
    return out


# Annotated fields that nothing reads, each kept with the reason.
_WHOLE_FRAME = ("normalize_chart returns the whole frame change it applied; "
                "the tests read base_linear")
UNREAD_FIELDS = {
    "FrameChange.gauge_linear": _WHOLE_FRAME,
    "FrameChange.gauge_quadratic": _WHOLE_FRAME,
    "FrameChange.base_quadratic": _WHOLE_FRAME,
}


def test_src_result_fields_are_read():
    modules, users = _everything()
    assert len(users) > len(modules) + 20
    assert _unread_fields(modules, users) == set(UNREAD_FIELDS)


def test_field_scan_flags_a_planted_field():
    planted = {"planted.py": "class Result:\n"
                             "    total: float\n"
                             "    echo: int\n"
                             "    count = 0\n\n"
                             "    def size(self):\n"
                             "        return self.total\n",
               "user.py": "def make(echo):\n"
                          "    r = Result(1.0, echo=echo)\n"
                          "    r.echo = echo\n"
                          "    return r\n"}
    assert _unread_fields(["planted.py"], planted) == {"Result.echo"}
    other = {**planted, "other.py": "def f(r):\n    return r.echo\n"}
    assert _unread_fields(["planted.py"], other) == set()


def test_parameter_scan_flags_a_planted_parameter():
    unset = {"Shape.__init__(scale)", "grow(step)"}
    assert _unset_parameters(["planted.py"], PLANTED) == unset
    # a call of another name, or the keyword of another parameter, passes
    # nothing
    for use in ("other(Shape(1), 2)\n", "grow(Shape(1), fast=False)\n"):
        assert _unset_parameters(["planted.py"],
                                 {**PLANTED, "other.py": use}) == unset, use
    for use, cleared in (
            ("grow(Shape(1), step=2)\n", "grow(step)"),
            ("grow(Shape(1), 2)\n", "grow(step)"),
            ("Shape(1, 2)\n", "Shape.__init__(scale)"),
            ("from planted import grow as g\ng(Shape(1), 3)\n", "grow(step)"),
            ("from planted import Shape as S\nS(1, scale=2)\n",
             "Shape.__init__(scale)"),
            ("grow(Shape(1), **opts)\n", "grow(step)"),
            ("grow(*args)\n", "grow(step)")):
        assert _unset_parameters(["planted.py"],
                                 {**PLANTED, "other.py": use}) \
            == unset - {cleared}, use
