import random
import re
from fractions import Fraction

import pytest

from conedeform.cech import normalize, p1p1_diagonal
from conedeform.cone_metric import Potential
from conedeform.laurent import LaurentPoly
from conedeform.parsing import (ParseError, parse_cone_deck, parse_laurent,
                                parse_polynomial, parse_polynomial_terms,
                                parse_potential, parse_transition_deck)
from conedeform.poly import Polynomial, format_poly
from conedeform.rational import GaussianRational


def test_parse_cubic_form():
    p = parse_polynomial("z1^3+z2^3+z3^3+z4^3")
    assert p.nvars == 4
    assert p.is_homogeneous(3)
    assert p.coefficient((3, 0, 0, 0)) == 1


def test_parse_rational_coefficients():
    p = parse_polynomial("1/2*z1*z2 - z3^2")
    assert p.coefficient((1, 1, 0)) == Fraction(1, 2)
    assert p.coefficient((0, 0, 2)) == -1


def test_parse_error_position():
    with pytest.raises(ParseError) as exc:
        parse_polynomial("z1^")
    assert exc.value.column == 4
    with pytest.raises(ParseError):
        parse_polynomial("z1 + + z2")
    with pytest.raises(ParseError):
        parse_polynomial("1/0*z1")


def test_parse_constant_and_signs():
    p = parse_polynomial("-3/7 + z1 - 2", nvars=1)
    assert p.coefficient((0,)) == Fraction(-3, 7) - 2
    assert p.coefficient((1,)) == 1


def test_roundtrip_random_polynomials():
    """Pretty-printed polynomials re-parse to equal values."""
    rng = random.Random(17)
    for _ in range(40):
        n = rng.randint(1, 4)
        terms = {}
        for _ in range(rng.randint(1, 6)):
            e = tuple(rng.randint(0, 3) for _ in range(n))
            terms[e] = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
        p = Polynomial(n, terms)
        if p.is_zero():
            continue
        assert parse_polynomial(format_poly(p), nvars=n) == p


def test_parse_cone_deck():
    deck = parse_cone_deck("""
[defining]
z1^2+z2^2+z3^2+z4^2
[perturbation]
z1+2 ; e=1
[params] n=3 alpha=3 compact=false
""")
    assert deck.cone.ambient_dim == 4
    assert deck.cone.degrees() == [2]
    assert deck.perturbation.declared_degrees == (1,)
    assert deck.n == 3 and deck.alpha == 3 and deck.compact is False


def test_deck_rejects_inhomogeneous_defining():
    with pytest.raises(ParseError):
        parse_cone_deck("[defining]\nz1^2+z2\n")


def test_deck_degree_declaration_mismatch():
    with pytest.raises(ParseError):
        parse_cone_deck("[defining]\nz1^2+z2^2 ; d=3\n")
    with pytest.raises(ParseError):
        parse_cone_deck("[defining]\nz1^2+z2^2\n[perturbation]\nz1^2 ; e=1\n")


def test_parse_laurent_negative_exponents():
    p = parse_laurent("-z^-2 + 3/2*z^4 - 5")
    assert p.coefficient(-2) == GaussianRational(-1)
    assert p.coefficient(4) == GaussianRational(Fraction(3, 2))
    assert p.coefficient(0) == GaussianRational(-5)


def test_parse_transition_deck_matches_builtin():
    text = """
[normal-degree] d=2
[y-series]
a1: -z^-2
a2: -z^-3
a3: -z^-4
a4: -z^-5
[z-series]
a0: z^-1
"""
    t = parse_transition_deck(text)
    assert t == p1p1_diagonal(4)
    res = normalize(t, 3)
    assert res.m_comfortable == 2


def test_transition_deck_degree_mismatch():
    with pytest.raises(ParseError):
        parse_transition_deck("[normal-degree] d=3\n[y-series]\na1: -z^-2\n")


@pytest.mark.parametrize("deck, line", [
    ("[normal-degree] d=5\nd=2\n[y-series]\na1: -1*z^-2\n", 2),
    ("[normal-degree] d=2\n[y-series]\na1: -1*z^-2\n[normal-degree] d=2\n",
     4),
], ids=["next-line", "second-header"])
def test_repeated_normal_degree_is_parse_error(deck, line):
    """A second [normal-degree] value is refused at its line, not read in
    place of the first."""
    with pytest.raises(ParseError, match="repeated normal degree") as exc:
        parse_transition_deck(deck)
    assert exc.value.line == line


def test_parse_potential_expressions():
    pot = parse_potential("1+|z|^2")
    assert pot.dimD == 1
    assert pot.value((0.0,)) == 1.0
    assert pot.value((1.0,)) == 2.0
    pot2 = parse_potential("2 - 1/3*z1*zbar1 + |z2|^2")
    assert pot2.dimD == 2
    assert pot2.value((0.0, 1.0)) == 3.0
    with pytest.raises(ValueError):
        parse_potential("z1 + zbar2")   # not real-valued -> validation error


def test_parse_potential_odd_abs_power():
    with pytest.raises(ParseError):
        parse_potential("|z|^3")


# ---------------------------------------------------------------------------
# the one term grammar against the three term loops it replaced


class _OracleScanner:
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

    def take(self, ch):
        if self.peek() == ch:
            self.pos += 1
            return True
        return False

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


def _oracle_coeff(sc):
    sc.skip_ws()
    if not sc.peek().isdigit():
        return None
    start = sc.pos
    while sc.peek().isdigit():
        sc.pos += 1
    num = int(sc.text[start:sc.pos])
    if sc.take("/"):
        if not sc.peek().isdigit():
            sc.error("expected denominator")
        start = sc.pos
        while sc.peek().isdigit():
            sc.pos += 1
        den = int(sc.text[start:sc.pos])
        if den == 0:
            sc.error("zero denominator")
        return Fraction(num, den)
    return Fraction(num)


def _oracle_var(sc):
    sc.skip_ws()
    if sc.peek() != "z":
        return None
    sc.pos += 1
    if not sc.peek().isdigit():
        sc.error("expected variable index after 'z'")
    start = sc.pos
    while sc.peek().isdigit():
        sc.pos += 1
    idx = int(sc.text[start:sc.pos])
    if idx == 0:
        sc.error("variable indices start at 1")
    exp = 1
    if sc.take("^"):
        if not sc.peek().isdigit():
            sc.error("expected exponent")
        exp = sc.expect_int("exponent")
        if exp < 0:
            sc.error("negative exponents are not allowed here")
    return idx, exp


def _oracle_polynomial_terms(text, line=1):
    sc = _OracleScanner(text, line)
    terms = []
    sign = 1
    sc.skip_ws()
    if sc.take("-"):
        sign = -1
    elif sc.take("+"):
        pass
    while True:
        coeff = _oracle_coeff(sc)
        sc.skip_ws()
        if coeff is not None:
            sc.take("*")
        mono = {}
        v = _oracle_var(sc)
        while v is not None:
            idx, exp = v
            mono[idx] = mono.get(idx, 0) + exp
            sc.skip_ws()
            if not sc.take("*"):
                break
            v = _oracle_var(sc)
            if v is None:
                sc.error("expected variable after '*'")
        if coeff is None and not mono:
            sc.error("expected a term")
        terms.append((sign * (coeff if coeff is not None else Fraction(1)),
                      mono))
        sc.skip_ws()
        if sc.take("+"):
            sign = 1
        elif sc.take("-"):
            sign = -1
        else:
            break
    if not sc.at_end():
        sc.error(f"unexpected character {sc.peek()!r}")
    return terms


def _oracle_laurent(text, line=1):
    sc = _OracleScanner(text, line)
    coeffs = {}
    sign = 1
    sc.skip_ws()
    if sc.take("-"):
        sign = -1
    elif sc.take("+"):
        pass
    while True:
        coeff = _oracle_coeff(sc)
        sc.skip_ws()
        if coeff is not None:
            sc.take("*")
            sc.skip_ws()
        exp = 0
        if sc.peek() == "z":
            sc.pos += 1
            if sc.take("^"):
                exp = sc.expect_int("exponent")
            else:
                exp = 1
        elif coeff is None:
            sc.error("expected a Laurent term")
        c = sign * (coeff if coeff is not None else Fraction(1))
        key = exp
        prev = coeffs.get(key, GaussianRational(0))
        coeffs[key] = prev + GaussianRational(c)
        sc.skip_ws()
        if sc.take("+"):
            sign = 1
        elif sc.take("-"):
            sign = -1
        else:
            break
    if not sc.at_end():
        sc.error(f"unexpected character {sc.peek()!r}")
    return LaurentPoly(coeffs)


def _oracle_potential(text, dimD=None):
    sc = _OracleScanner(text)
    terms = []
    sign = 1
    sc.skip_ws()
    if sc.take("-"):
        sign = -1
    elif sc.take("+"):
        pass
    while True:
        coeff = _oracle_coeff(sc)
        sc.skip_ws()
        if coeff is not None:
            sc.take("*")
            sc.skip_ws()
        factors = {}

        def add(idx, bar, exp=1):
            factors[(idx, bar)] = factors.get((idx, bar), 0) + exp

        found = True
        while found:
            found = False
            sc.skip_ws()
            if sc.peek() == "|":
                sc.pos += 1
                if sc.peek() != "z":
                    sc.error("expected z inside |.|")
                sc.pos += 1
                idx = 1
                if sc.peek().isdigit():
                    idx = sc.expect_int("variable index")
                if not sc.take("|"):
                    sc.error("expected closing '|'")
                exp = 2
                if sc.take("^"):
                    exp = sc.expect_int("exponent")
                    if exp % 2:
                        sc.error("|z| powers must be even")
                add(idx, False, exp // 2)
                add(idx, True, exp // 2)
                found = True
            elif sc.text.startswith("zbar", sc.pos):
                sc.pos += 4
                idx = 1
                if sc.peek().isdigit():
                    idx = sc.expect_int("variable index")
                exp = 1
                if sc.take("^"):
                    exp = sc.expect_int("exponent")
                add(idx, True, exp)
                found = True
            elif sc.peek() == "z":
                sc.pos += 1
                idx = 1
                if sc.peek().isdigit():
                    idx = sc.expect_int("variable index")
                exp = 1
                if sc.take("^"):
                    exp = sc.expect_int("exponent")
                add(idx, False, exp)
                found = True
            if found:
                sc.skip_ws()
                if not sc.take("*"):
                    break
        if coeff is None and not factors:
            sc.error("expected a term")
        terms.append((sign * (coeff if coeff is not None else Fraction(1)),
                      dict(factors)))
        sc.skip_ws()
        if sc.take("+"):
            sign = 1
        elif sc.take("-"):
            sign = -1
        else:
            break
    if not sc.at_end():
        sc.error(f"unexpected character {sc.peek()!r}")
    n = dimD or max((idx for _, f in terms for idx, _ in f), default=1)
    poly_terms = {}
    for c, f in terms:
        e = [0] * (2 * n)
        for (idx, bar), exp in f.items():
            e[(n + idx - 1) if bar else (idx - 1)] += exp
        key = tuple(e)
        poly_terms[key] = poly_terms.get(key, Fraction(0)) + c
    return Potential.from_terms(n, poly_terms)


NOISE = ["z0", "|z0|", "zbar", "z", "^-2", "^3", "^", "*", "/0", " ", "+",
         "-"]
COEFFS = ["0", "1", "3", "12", "1/2", "2/3", "1/22"]
LANGUAGE_FACTORS = {
    "polynomial": ["z1", "z2", "z3", "z1^2", "z2^3", "z3^0", "z12"],
    "laurent": ["z", "z^2", "z^-2", "z^-1", "z^ 3", "z^0"],
    "potential": ["z", "z1", "z2", "zbar", "zbar1", "zbar2", "z1^2",
                  "zbar2^3", "z^-1", "|z|^2", "|z1|", "|z2|^4", "|z|^-2"],
}


def _conjugate(token):
    """The token with z and zbar swapped, so a potential and its mirror
    image sum to a real-valued one."""
    if token.startswith("|"):
        return token
    return token.replace("zbar", "\0").replace("z", "zbar").replace("\0", "z")


def _corpus(rng, count, factors, mirror):
    """Random sums of terms over COEFFS and factors, with NOISE tokens
    dropped in; with mirror, each sum is followed by its conjugate."""
    out = []
    for _ in range(count):
        toks = [] if mirror else [rng.choice(["", "-", "+ "])]
        for t in range(rng.randint(1, 3)):
            if t:
                toks.append(rng.choice(["+", " - ", "-"]))
            nfactors = rng.randint(1, 3)
            if rng.random() < 0.6:
                toks += [rng.choice(COEFFS), rng.choice(["", "*", " * ", " "])]
                nfactors -= 1
            for f in range(nfactors):
                if f:
                    toks.append(rng.choice(["*", " * "]))
                toks.append(rng.choice(factors))
        for _ in range(rng.choice([0, 0, 1, 2])):
            toks.insert(rng.randrange(len(toks) + 1), rng.choice(NOISE))
        if mirror:
            toks += ["+"] + [_conjugate(t) for t in toks]
        out.append("".join(toks))
    return out


def _potential_value(parse):
    def value(text):
        pot = parse(text)
        return pot.dimD, pot.poly
    return value


def _laurent_at(text, z):
    """A Laurent string read as Python arithmetic at z."""
    expr = re.sub(r"\d+", lambda m: f"F({m.group()})", text.replace("^", "**"))
    return eval(re.sub(r"\)\s*(?=z)", ")*", expr), {"F": Fraction, "z": z})


LANGUAGES = {
    "polynomial": (parse_polynomial_terms, _oracle_polynomial_terms),
    "laurent": (parse_laurent, _oracle_laurent),
    "potential": (_potential_value(parse_potential),
                  _potential_value(_oracle_potential)),
}

# the intended behaviour changes: (a) index 0 in a potential, (b) a '*'
# with no factor after it, (c) Laurent products of powers of z
ZERO_INDEX = re.compile(r"z(bar)?0+(?![0-9])")
DANGLING_STAR = re.compile(r"\*\s*($|[+-])")
LAURENT_PRODUCT = re.compile(r"z(\^\s*-?\d+)?\s*\*\s*z")


@pytest.mark.parametrize("language", sorted(LANGUAGES))
def test_term_grammar_matches_replaced_loops(language):
    """Every string the old loops accept parses to the same value, and
    every string they reject raises, except for the changes (a)-(c)."""
    parse, oracle = LANGUAGES[language]
    rng = random.Random(f"term-grammar-{language}")
    corpus = _corpus(rng, 3000, LANGUAGE_FACTORS[language],
                     mirror=language == "potential")
    counts = dict.fromkeys(("same", "rejected", "a", "b", "c"), 0)
    for text in corpus:
        try:
            want = oracle(text)
        except (ValueError, IndexError):
            try:
                parse(text)
            except ValueError:
                counts["rejected"] += 1
                continue
            assert language == "laurent" and LAURENT_PRODUCT.search(text), \
                text
            z = Fraction(3, 2)
            assert parse_laurent(text).evaluate(z) == _laurent_at(text, z), \
                text
            counts["c"] += 1
            continue
        changed = [c for c, pattern in (("a", ZERO_INDEX),
                                        ("b", DANGLING_STAR))
                   if pattern.search(text)]
        if changed:
            with pytest.raises(ParseError):
                parse(text)
            counts[changed[0]] += 1
        else:
            assert parse(text) == want, text
            counts["same"] += 1
    assert min(counts["same"], counts["rejected"]) >= len(corpus) // 10, \
        counts
    assert counts["b"] > 0, counts
    assert (counts["a"] > 0) == (language == "potential"), counts
    assert (counts["c"] > 0) == (language == "laurent"), counts


def test_potential_index_zero_is_an_error():
    for text in ("1+|z0|^2", "z0*zbar0", "z1*zbar1 + zbar0*z0"):
        with pytest.raises(ParseError, match="indices start at 1"):
            parse_potential(text, 1)


def test_star_needs_a_factor():
    for parse, text in ((parse_polynomial, "3*"),
                        (parse_polynomial, "z1 + 1/22* - z2"),
                        (parse_laurent, "1/22*"),
                        (parse_potential, "1 + 3*")):
        with pytest.raises(ParseError, match="after '\\*'"):
            parse(text)


def test_laurent_products_add_exponents():
    assert parse_laurent("z^2*z^-3") == parse_laurent("z^-1")
    assert parse_laurent("2*z * z^2 - z^3 + 1/2 z*z") == \
        parse_laurent("z^3 + 1/2*z^2")


def test_potential_index_above_dimd_is_an_error():
    for text in ("1+|z2|^2", "z2*zbar2", "1 + z1*zbar1 + z3"):
        with pytest.raises(ParseError, match="exceeds dimD"):
            parse_potential(text, 1)
    assert parse_potential("1+|z2|^2").dimD == 2


@pytest.mark.parametrize("dimD", [0, -1])
def test_potential_needs_a_positive_dimd(dimD):
    with pytest.raises(ParseError, match="dimD must be at least 1"):
        parse_potential("1+|z|^2", dimD)


@pytest.mark.parametrize("param, value", [("alpha", "1/0"), ("alpha", "x"),
                                          ("n", "x"), ("n", "3/2")])
def test_bad_params_value_is_a_parse_error(param, value):
    deck = f"[defining]\nz1^2+z2^2\n[params] n=2 alpha=3/2 {param}={value}\n"
    with pytest.raises(ParseError, match=f"invalid value '{value}'") as exc:
        parse_cone_deck(deck)
    assert exc.value.line == 3


@pytest.mark.parametrize("value, compact", [
    ("1", True), ("true", True), ("Yes", True),
    ("0", False), ("FALSE", False), ("no", False)])
def test_params_compact_values(value, compact):
    deck = parse_cone_deck(f"[defining]\nz1^2+z2^2\n[params] compact={value}\n")
    assert deck.compact is compact


@pytest.mark.parametrize("params, line, message", [
    ("[params] n=2 compact=ture", 3, "invalid value 'ture' for compact"),
    ("[params] compact= n=2", 3, "invalid value '' for compact"),
    ("[params] n=3 n=5", 3, "repeated parameter 'n'"),
    ("[params] alpha=2, ALPHA=2", 3, "repeated parameter 'alpha'"),
    ("[params] compact=yes\n\ncompact=no", 5, "repeated parameter 'compact'"),
], ids=["misspelt-bool", "empty-bool", "repeat", "repeat-in-other-case",
        "repeat-on-another-line"])
def test_params_misreads_are_parse_errors(params, line, message):
    """A [params] line is read whole or refused: no value falls back to a
    default and no key is silently read twice."""
    with pytest.raises(ParseError, match=message) as exc:
        parse_cone_deck(f"[defining]\nz1^2+z2^2\n{params}\n")
    assert exc.value.line == line


def test_cone_deck_header_content_is_an_error():
    deck = "[defining] z1^3\nz1^2+z2^2\n[perturbation] z1 ; e=1\n"
    with pytest.raises(ParseError, match="after the \\[defining\\] header") \
            as exc:
        parse_cone_deck(deck)
    assert (exc.value.line, exc.value.column) == (1, 12)
    with pytest.raises(ParseError, match="\\[perturbation\\] header") as exc:
        parse_cone_deck("[defining]\nz1^2+z2^2\n  [perturbation]  z1\n")
    assert (exc.value.line, exc.value.column) == (3, 19)
    # [params] keeps its inline content
    assert parse_cone_deck("[defining]\nz1^2+z2^2\n[params] n=2\n").n == 2


def test_transition_deck_header_content_is_an_error():
    with pytest.raises(ParseError, match="\\[y-series\\] header") as exc:
        parse_transition_deck("[y-series] a1: z^-2\n")
    assert exc.value.line == 1
    with pytest.raises(ParseError, match="\\[z-series\\] header") as exc:
        parse_transition_deck("[y-series]\na1: z^-2\n[z-series] a1: z^-3\n")
    assert exc.value.line == 3
    # [normal-degree] keeps its inline content
    t = parse_transition_deck("[y-series]\na1: z^-2\n[normal-degree] d=2\n")
    assert t.normal_degree == 2
