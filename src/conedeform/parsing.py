"""Text-input parsing: polynomial decks, transition decks, potential
expressions.  All errors carry 1-based line/column positions."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .graded import ConeSingularity, Perturbation
from .laurent import LaurentPoly, YSeries
from .cech import TruncatedTransition
from .poly import Polynomial
from .rational import GaussianRational


class ParseError(ValueError):
    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        where = ""
        if line is not None:
            where = f" at line {line}" + (f", column {column}"
                                          if column is not None else "")
        super().__init__(message + where)


class _Scanner:
    def __init__(self, text, line=1):
        self.text = text
        self.pos = 0
        self.line = line

    def error(self, msg):
        raise ParseError(msg, self.line, self.pos + 1)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos] in " \t":
            self.pos += 1

    def peek(self):
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, s):
        if self.text.startswith(s, self.pos):
            self.pos += len(s)
            return True
        return False

    def digits(self):
        """The unsigned integer at the cursor, or None."""
        start = self.pos
        while self.peek().isdigit():
            self.pos += 1
        return int(self.text[start:self.pos]) if self.pos > start else None

    def expect_int(self, what="integer"):
        self.skip_ws()
        start = self.pos
        if self.peek() == "-":
            self.pos += 1
        while self.peek().isdigit():
            self.pos += 1
        if self.pos == start or self.text[start:self.pos] == "-":
            self.error(f"expected {what}")
        return int(self.text[start:self.pos])

    def at_end(self):
        self.skip_ws()
        return self.pos >= len(self.text)


# ---------------------------------------------------------------------------
# the term grammar shared by polynomials, Laurent germs and potentials


def _parse_coeff(sc: _Scanner):
    """int('/'int)? -- returns Fraction, or None if no digits here."""
    num = sc.digits()
    if num is None:
        return None
    if not sc.take("/"):
        return Fraction(num)
    den = sc.digits()
    if den is None:
        sc.error("expected denominator")
    if den == 0:
        sc.error("zero denominator")
    return Fraction(num, den)


def _sum(sc: _Scanner, factor):
    """sign? term (('+'|'-') term)* up to the end of the text, where
    term := coeff ('*'? factor ('*' factor)*)? | factor ('*' factor)*.

    factor(sc) reads one factor at the cursor as {key: exponent}, or
    returns None if none starts there.  Returns [(Fraction, {key: exp})],
    the exponents of a term's factors summed per key."""
    terms = []
    while True:
        sc.skip_ws()
        if sc.take("-"):
            sign = -1
        elif sc.take("+") or not terms:
            sign = 1
        else:
            break
        sc.skip_ws()
        coeff = _parse_coeff(sc)
        sc.skip_ws()
        required = coeff is None or sc.take("*")
        mono = {}
        while True:
            sc.skip_ws()
            f = factor(sc)
            if f is None:
                if required:
                    sc.error("expected a term" if coeff is None and not mono
                             else "expected a factor after '*'")
                break
            for key, exp in f.items():
                mono[key] = mono.get(key, 0) + exp
            sc.skip_ws()
            required = sc.take("*")
            if not required:
                break
        terms.append((sign * (coeff if coeff is not None else Fraction(1)),
                      mono))
    if not sc.at_end():
        sc.error(f"unexpected character {sc.peek()!r}")
    return terms


def _index(sc: _Scanner, default=None, top=None):
    """The variable index after 'z': at least 1, and at most top if given;
    default when no digits follow (an error if default is None)."""
    idx = sc.digits()
    if idx is None:
        if default is None:
            sc.error("expected variable index after 'z'")
        return default
    if idx == 0:
        sc.error("variable indices start at 1")
    if top and idx > top:
        sc.error(f"variable index {idx} exceeds dimD = {top}")
    return idx


def _power(sc: _Scanner, signed):
    """'^' k after a factor, 1 if absent; k < 0 or blanks before k only
    when signed."""
    if not sc.take("^"):
        return 1
    if not signed and not sc.peek().isdigit():
        sc.error("expected exponent")
    return sc.expect_int("exponent")


def _variable(sc: _Scanner):
    """Polynomial factor z<i>(^k)?, as {i: k}."""
    if not sc.take("z"):
        return None
    return {_index(sc): _power(sc, signed=False)}


def parse_polynomial_terms(text, line=1):
    """A sum of terms whose factors are z<i>^k; returns
    [(Fraction, {i: k})]."""
    return _sum(_Scanner(text, line), _variable)


def realize_polynomial(terms, nvars) -> Polynomial:
    out = {}
    for c, mono in terms:
        e = [0] * nvars
        for idx, exp in mono.items():
            e[idx - 1] += exp
        key = tuple(e)
        out[key] = out.get(key, Fraction(0)) + c
    return Polynomial(nvars, out)


def parse_polynomial(text, nvars=None) -> Polynomial:
    terms = parse_polynomial_terms(text)
    if nvars is None:
        nvars = max((max(m) for _, m in terms if m), default=0)
    return realize_polynomial(terms, nvars)


# ---------------------------------------------------------------------------
# decks


def _sections(text, names, inline):
    """(line number, section, content) for each content line of a deck of
    '[name]' sections, name in `names` or `inline`.  Blank and '#' lines
    are skipped.  For a name in `inline`, the rest of the header line
    '[name] rest' is a content line too; any other header must end at
    its ']'."""
    current = None
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("["):
            end = line.find("]")
            if end < 0:
                raise ParseError("unterminated section header", ln, 1)
            current = line[1:end].strip().lower()
            if current not in names and current not in inline:
                raise ParseError(f"unknown section [{current}]", ln, 1)
            line = line[end + 1:].strip()
            if not line:
                continue
            if current not in inline:
                raise ParseError(f"content after the [{current}] header; "
                                 "put it on the next line", ln,
                                 raw.rindex(line) + 1)
        elif current is None:
            raise ParseError("content before any section header", ln, 1)
        yield ln, current, line


@dataclass
class ConeDeck:
    cone: ConeSingularity
    perturbation: Perturbation | None
    n: int | None = None
    alpha: Fraction | None = None
    compact: bool = False


def parse_cone_deck(text) -> ConeDeck:
    """Cone/perturbation input: [defining], [perturbation], [params] sections.

    One polynomial per line; optional trailing 'd=<int>' (defining) or
    'e=<int>' (perturbation) degree declarations, checked against the
    parsed polynomial."""
    sections = {"defining": [], "perturbation": []}
    params = {}
    for ln, name, line in _sections(text, sections, ("params",)):
        if name == "params":
            _parse_params(line, params, ln)
            continue
        decl = None
        body = line
        pos = line.rfind(";")
        if pos >= 0:
            tail = line[pos + 1:].strip()
            if not tail.startswith(("d=", "e=")):
                raise ParseError("expected 'd=<int>' or 'e=<int>' after ';'",
                                 ln, pos + 2)
            try:
                decl = int(tail[2:])
            except ValueError:
                raise ParseError("expected an integer degree declaration",
                                 ln, pos + 2)
            body = line[:pos]
        sections[name].append((ln, body, decl))
    if not sections["defining"]:
        raise ParseError("no [defining] section")
    parsed = {}
    nvars = 0
    for name in ("defining", "perturbation"):
        parsed[name] = [(ln, parse_polynomial_terms(body, ln), decl)
                        for ln, body, decl in sections[name]]
        for _, terms, _ in parsed[name]:
            for _, mono in terms:
                if mono:
                    nvars = max(nvars, max(mono))
    defining = []
    for ln, terms, decl in parsed["defining"]:
        f = realize_polynomial(terms, nvars)
        d = f.degree()
        if not f.is_homogeneous():
            raise ParseError("defining polynomial is not homogeneous", ln, 1)
        if decl is not None and decl != d:
            raise ParseError(
                f"declared degree {decl} does not match degree {d}", ln, 1)
        defining.append((f, d))
    cone = ConeSingularity(nvars, defining)
    pert = None
    if parsed["perturbation"]:
        comps = []
        degs = []
        for ln, terms, decl in parsed["perturbation"]:
            g = realize_polynomial(terms, nvars)
            e = decl if decl is not None else max(g.degree(), 0)
            if g.degree() > e:
                raise ParseError(
                    f"declared degree {e} below actual degree {g.degree()}",
                    ln, 1)
            comps.append(g)
            degs.append(e)
        pert = Perturbation(comps, degs)
    deck = ConeDeck(cone, pert)
    if "n" in params:
        deck.n = int(params["n"])
    if "alpha" in params:
        deck.alpha = params["alpha"]
    deck.compact = params.get("compact", False)
    return deck


_BOOLEANS = {"1": True, "true": True, "yes": True,
             "0": False, "false": False, "no": False}
_PARAMS = {"n": int, "alpha": Fraction,
           "compact": lambda val: _BOOLEANS[val.lower()]}


def _parse_params(text, params, ln):
    """key=value chunks into params, each value read by _PARAMS[key]; a bad
    value, then a key already set, is an error at line ln."""
    for chunk in text.replace(",", " ").split():
        if "=" not in chunk:
            raise ParseError(f"expected key=value, got {chunk!r}", ln, 1)
        key, val = chunk.split("=", 1)
        key = key.strip().lower()
        val = val.strip()
        if key not in _PARAMS:
            raise ParseError(f"unknown parameter {key!r}", ln, 1)
        try:
            value = _PARAMS[key](val)
        except (KeyError, ValueError, ZeroDivisionError):
            raise ParseError(f"invalid value {val!r} for {key}", ln, 1)
        if key in params:
            raise ParseError(f"repeated parameter {key!r}", ln, 1)
        params[key] = value


# ---------------------------------------------------------------------------
# transition decks


def _z_power(sc: _Scanner):
    """Laurent factor z(^k)?, k of either sign, as {1: k}."""
    if not sc.take("z"):
        return None
    return {1: _power(sc, signed=True)}


def parse_laurent(text, line=1) -> LaurentPoly:
    """A Laurent polynomial in z: a sum of terms whose factors are z^k."""
    coeffs = {}
    for c, mono in _sum(_Scanner(text, line), _z_power):
        k = mono.get(1, 0)
        coeffs[k] = coeffs.get(k, GaussianRational(0)) + GaussianRational(c)
    return LaurentPoly(coeffs)


def parse_transition_deck(text) -> TruncatedTransition:
    """Transition input: [y-series], [z-series], [normal-degree] sections,
    with 'a<k>: <laurent>' lines giving the order-k coefficients."""
    series = {"y-series": {}, "z-series": {}}
    declared_d = None
    for ln, name, line in _sections(text, series, ("normal-degree",)):
        if name == "normal-degree":
            d = _parse_normal_degree(line, ln)
            if declared_d is not None:
                raise ParseError("repeated normal degree", ln, 1)
            declared_d = d
            continue
        if ":" not in line:
            raise ParseError("expected 'a<k>: <laurent>'", ln, 1)
        head, body = line.split(":", 1)
        head = head.strip()
        if not head.startswith("a") or not head[1:].isdigit():
            raise ParseError("expected coefficient label a<k>", ln, 1)
        k = int(head[1:])
        target = series[name]
        if k in target:
            raise ParseError(f"duplicate coefficient a{k}", ln, 1)
        target[k] = parse_laurent(body, ln)
    y_terms, z_terms = series["y-series"], series["z-series"]
    if not y_terms:
        raise ParseError("no [y-series] section")
    order = max(list(y_terms) + list(z_terms) + [1])
    ys = YSeries(order, [y_terms.get(a, LaurentPoly.zero())
                         for a in range(order + 1)])
    zcoeffs = [z_terms.get(a, LaurentPoly.zero()) for a in range(order + 1)]
    if zcoeffs[0].is_zero():
        zcoeffs[0] = LaurentPoly.monomial(-1, GaussianRational(1))
    zs = YSeries(order, zcoeffs)
    t = TruncatedTransition(ys, zs)
    if declared_d is not None and t.normal_degree != declared_d:
        raise ParseError(
            f"declared normal degree {declared_d} does not match the "
            f"order-1 coefficient (degree {t.normal_degree})")
    return t


def _parse_normal_degree(text, ln):
    if not text.startswith("d="):
        raise ParseError("expected d=<int>", ln, 1)
    try:
        return int(text[2:])
    except ValueError:
        raise ParseError("expected an integer normal degree", ln, 1)


# ---------------------------------------------------------------------------
# potential expressions


def _potential_factor(sc: _Scanner, top):
    """Potential factor |z<i>|^2k, zbar<i>(^k)? or z<i>(^k)?, as
    {(i, conjugated): k}; the index defaults to 1 and is at most top."""
    if sc.take("|"):
        if not sc.take("z"):
            sc.error("expected z inside |.|")
        idx = _index(sc, 1, top)
        if not sc.take("|"):
            sc.error("expected closing '|'")
        exp = sc.expect_int("exponent") if sc.take("^") else 2
        if exp % 2:
            sc.error("|z| powers must be even")
        return {(idx, False): exp // 2, (idx, True): exp // 2}
    bar = sc.take("zbar")
    if not (bar or sc.take("z")):
        return None
    idx = _index(sc, 1, top)
    return {(idx, bar): _power(sc, signed=True)}


def parse_potential(text, dimD=None):
    """Polynomials in |z|^2, z_i and zbar_i with rational coefficients,
    e.g. '1 + |z|^2' or '2 - 1/3*z1*zbar1 + |z2|^2'.  Indices run from 1
    to dimD; without dimD, up to the largest index used."""
    from .cone_metric import Potential
    if dimD is not None and dimD < 1:
        raise ParseError(f"dimD must be at least 1, got {dimD}")
    terms = _sum(_Scanner(text), lambda sc: _potential_factor(sc, dimD))
    n = dimD if dimD is not None else max(
        (idx for _, f in terms for idx, _ in f), default=1)
    # z_i is variable i, zbar_i variable n + i
    slots = [(c, {idx + n * bar: exp for (idx, bar), exp in f.items()})
             for c, f in terms]
    return Potential(n, realize_polynomial(slots, 2 * n))
