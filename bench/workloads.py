"""Seeded inputs, jobs and output oracles of the four benchmark workloads.

A workload is a fixed list of job templates.  One *round* instantiates
every template once with inputs drawn from ``random.Random`` seeded by
``(seed, workload, round)``, so a round's inputs depend only on the seed
and the round index, never on how fast earlier rounds ran.  Templates keep
their sizes across seeds; the seed only draws coefficients, parameters and
points, so every seed gives the same mix of work.

Each job returns its output and is judged by an oracle that does not use
the code path under test: Milnor and Hilbert series counts, the rate
formula, the known embedding orders of the stock germs, the exact
constant-model Beltrami solution, and the tolerances the test suite
states.  ``Job.check`` returns ``None`` when the output is right and a
``Failure`` otherwise.
"""

from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from conedeform import cli
from conedeform.cone_metric import (TENSOR_TYPES, curvature_check,
                                    fubini_study_potential, scaling_exponent)
from conedeform.dbar import (DiskField, DiskGrid, HolderParams,
                             PerturbationModel, contraction_study,
                             dbar_identity_defect, operator_identities_2var,
                             weighted_norms)
from conedeform.graded import quotient_basis
from conedeform.parsing import parse_cone_deck
from conedeform.poly import monomials_of_degree

WHY = {
    "structured": "paper's sparse inputs (built-in decks, Fermat cones, "
                  "diagonal-quadric CIs, stock germs): short jobs where "
                  "elimination sparsity and CLI/parse/report overhead show",
    "generic": "dense random cones, CIs and transition germs: elimination "
               "fills in, so a sparse-only speedup shows as a loss; the "
               "germs run the cech tree walk and Laurent composition",
    "beltrami": "CLI dbar solves on 4x32 to 8x64 grids, power and constant "
                "models: one grid reused for every iteration, then the "
                "verification residual dominates",
    "checks": "oracle paths: FD curvature and metric sweeps, dbar identity "
              "defects and contraction studies on many small fresh grids",
}

# Latency percentile reported as job_tail_s: the highest multiple of 5
# that leaves at least ten jobs beyond it in a --seconds 32 run of the
# commit that added this benchmark (structured: 2-3 rounds of 82 jobs,
# generic: 2 rounds of 17, checks: 3-4 rounds of 15).  A beltrami run is one
# round of 4 jobs, so no percentile leaves ten jobs beyond it; its tail is
# the maximum, the 8x64 solve.  Fixed per workload so that a faster commit,
# which runs more rounds, is compared at the same percentile.
TAIL_PERCENTILE = {"structured": 90, "generic": 70, "beltrami": 100,
                   "checks": 75}

# The curvature convergence diagnostic at the default step h = 1e-4 reports
# "not converged" although the Ricci defect is far below tolerance: the
# step sits in the roundoff regime and the fixed 1e-9 floor cannot tell
# roundoff from non-convergence.  Such a verdict fails its job; the tag
# marks it as this documented defect rather than a new one.
KNOWN_DEFECT_FALSE_NONCONVERGENCE = "curvature-diagnostic-false-nonconvergence"
# The same default step puts the FD curvature itself in the roundoff regime
# (error ~ eps/h^2): at some seeded points the flat-cone Ricci or Riemann
# defect lands just above the test suite's 1e-6.  A defect within
# ROUNDOFF_FACTOR of the tolerance fails its job with this tag; a larger
# one is an unexpected failure.
KNOWN_DEFECT_FD_ROUNDOFF = "curvature-default-step-roundoff"
ROUNDOFF_FACTOR = 10


@dataclass
class Failure:
    message: str
    known_defect: str | None = None


@dataclass
class Job:
    name: str                                 # template id, same for every seed
    run: Callable[[], object]                 # the timed call; returns the output
    check: Callable[[object], Failure | None]
    exact: bool                               # output is exact: goes into the digest


def rng_for(seed: int, workload: str, round_index: int) -> random.Random:
    return random.Random(f"{seed}:{workload}:{round_index}")


def make_round(workload: str, seed: int, round_index: int, workdir: str):
    """Job list of one round; CLI deck files are written into ``workdir``."""
    rng = rng_for(seed, workload, round_index)
    decks = _DeckWriter(workdir, f"r{round_index}")
    return ROUNDS[workload](rng, decks)


# ---------------------------------------------------------------------------
# CLI plumbing


class _DeckWriter:
    """Writes deck files with short relative names, so that the report's
    source label (and hence the exact-output digest) does not depend on
    where the run's work directory is."""

    def __init__(self, workdir, prefix):
        self.workdir = workdir
        self.prefix = prefix
        self.count = 0

    def write(self, text):
        name = f"{self.prefix}-{self.count:02d}.deck"
        self.count += 1
        with open(os.path.join(self.workdir, name), "w",
                  encoding="utf-8") as fh:
            fh.write(text)
        return name


OUTPUT_NAME = "out.kv"


class CliError(RuntimeError):
    pass


def run_cli(argv):
    """One CLI call, as a user would make it; returns the key=value report.

    The caller runs jobs with the work directory as the current directory,
    so deck and output names are relative to it."""
    rc = cli.main(list(argv) + ["--format", "kv", "--output", OUTPUT_NAME])
    if rc != 0:
        raise CliError(f"exit code {rc}")
    with open(OUTPUT_NAME, encoding="utf-8") as fh:
        text = fh.read()
    os.remove(OUTPUT_NAME)
    return text


def kv(text):
    out = {}
    for line in text.splitlines():
        if "=" in line:
            k, v = line.split("=", 1)
            out[k] = v
    return out


def _cli_job(name, argv, check, exact=True):
    return Job(name, lambda: run_cli(argv), lambda out: check(kv(out)), exact)


def _expect(cond, message, known_defect=None):
    return None if cond else Failure(message, known_defect)


def _first(*failures):
    return next((f for f in failures if f), None)


# ---------------------------------------------------------------------------
# exact oracles


def series_coeffs(num, den_power, upto):
    """Coefficients t^0..t^upto of num(t) / (1 - t)^den_power, num a dict."""
    out = []
    for k in range(upto + 1):
        out.append(sum(c * math.comb(k - e + den_power - 1, den_power - 1)
                       for e, c in num.items() if e <= k))
    return out


def _poly_mul(a, b):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            out[ea + eb] = out.get(ea + eb, 0) + ca * cb
    return out


def milnor_count(N, d, k):
    """dim of the degree-k part of the Milnor algebra of a degree-d form
    with an isolated singularity in N variables: the coefficient of t^k in
    ((1 - t^(d-1)) / (1 - t))^N."""
    if k < 0:
        return 0
    num = {0: 1}
    for _ in range(N):
        num = _poly_mul(num, {0: 1, d - 1: -1})
    return series_coeffs(num, N, k)[k]


def ci_hilbert(N, degrees, k):
    """dim R_k of a complete intersection: coefficient of t^k in
    prod(1 - t^d_i) / (1 - t)^N."""
    if k < 0:
        return 0
    num = {0: 1}
    for d in degrees:
        num = _poly_mul(num, {0: 1, d: -1})
    return series_coeffs(num, N, k)[k]


def _t1_dims(rep):
    dims = {}
    for key, v in rep.items():
        if key.startswith("t1_dimensions.dim["):
            dims[int(key[len("t1_dimensions.dim["):-1])] = int(v)
    return dims


def _check_t1_hypersurface(rep):
    N = int(rep["input.ambient_dim"])
    (d,) = (int(x) for x in rep["input.degrees"].split())
    dims = _t1_dims(rep)
    bad = {j: (v, milnor_count(N, d, d + j)) for j, v in dims.items()
           if v != milnor_count(N, d, d + j)}
    return _expect(dims and not bad, f"T1 dims differ from the Milnor count "
                   f"(got, expected): {bad}")


# quotient_basis is recomputed on a fresh parse of the deck; degrees above
# this cap are left to the digest, because the check would cost as much as
# the job.
HILBERT_CHECK_MAX_DEGREE = 4


def _check_ci(deck_text):
    def check(rep):
        cone = parse_cone_deck(deck_text).cone
        N, degrees = cone.ambient_dim, cone.degrees()
        bad = {}
        for k in range(HILBERT_CHECK_MAX_DEGREE + 1):
            got = quotient_basis(cone, k).quotient_dim
            if got != ci_hilbert(N, degrees, k):
                bad[k] = (got, ci_hilbert(N, degrees, k))
        window = rep.get("window.detected")
        return _first(
            _expect(not bad, f"quotient dims differ from the Hilbert "
                             f"series (got, expected): {bad}"),
            _expect(window is not None and _t1_dims(rep),
                    "t1 report lacks dims or window"))
    return check


def _fmt_frac(c):
    return str(c) if c.denominator != 1 else str(c.numerator)


def _term(c, exps):
    mono = "*".join(f"z{i + 1}^{k}" if k > 1 else f"z{i + 1}"
                    for i, k in enumerate(exps) if k)
    sign = "-" if c < 0 else "+"
    return f"{sign}{_fmt_frac(abs(c))}*{mono}" if mono else \
        f"{sign}{_fmt_frac(abs(c))}"


def _join_terms(terms):
    s = "".join(terms)
    return s[1:] if s.startswith("+") else s


def _nonzero_fraction(rng, num=9, den=4):
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, num),
                    rng.randint(1, den))


def diagonal_deck(rng, N, d):
    """Diagonal form sum c_i z_i^d with a perturbation of degree e <= d - 2
    (all monomials of degree e, seeded coefficients), and the [params] of
    the cone over a degree-d hypersurface: n = N - 1, alpha = N - d + 1.
    Returns (deck text, e)."""
    coeffs = [_nonzero_fraction(rng) for _ in range(N)]
    exps = [tuple(d if j == i else 0 for j in range(N)) for i in range(N)]
    e = rng.randint(0, d - 2)
    pert = _join_terms(_term(_nonzero_fraction(rng), m)
                       for m in monomials_of_degree(N, e))
    text = ("[defining]\n"
            + _join_terms(_term(c, m) for c, m in zip(coeffs, exps))
            + f"\n[perturbation]\n{pert} ; e={e}\n"
            f"[params] n={N - 1} alpha={N - d + 1} compact=false\n")
    return text, e


def diagonal_ci_deck(rng, N, codim):
    """Vandermonde pencil sum lam_i^k z_i^2 (k < codim) with distinct lam:
    every codim x codim minor is nonzero, so the intersection is smooth
    away from the vertex."""
    lams = [Fraction(v) for v in rng.sample(range(1, 13), N)]
    lines = []
    for k in range(codim):
        lines.append(_join_terms(
            _term(lam ** k, tuple(2 if j == i else 0 for j in range(N)))
            for i, lam in enumerate(lams)))
    return "[defining]\n" + "\n".join(lines) + "\n"


def dense_deck(rng, N, degrees):
    lines = []
    for d in degrees:
        lines.append(_join_terms(_term(_nonzero_fraction(rng), e)
                                 for e in monomials_of_degree(N, d)))
    return "[defining]\n" + "\n".join(lines) + "\n"


# Deformation weights of the built-in perturbations, from the worked
# examples they reproduce (a nonzero part of degree e <= d - 2 has weight
# e - d; the odp linear parts are Jacobian and drop out).
BUILTIN_WEIGHTS = {
    "cubic-cone": "-1", "cubic-cone-linear": "-2", "cubic-cone-constant": "-3",
    "odp3": "-2", "odp3-z3": "FirstOrderVanishes", "odp4": "-2",
    "two-quadrics": "-2",
}
BUILTIN_CI = {"two-quadrics"}


def _check_weight(expected):
    def check(rep):
        return _first(
            _expect(rep.get("deformation_weight.weight") == expected,
                    f"weight {rep.get('deformation_weight.weight')} != "
                    f"{expected}"),
            _expect(rep.get("deformation_weight.genericity_warning")
                    == "false", "genericity warning raised"))
    return check


def _check_rate(w):
    def check(rep):
        if w == "FirstOrderVanishes":
            return _expect(rep.get("rate.weight") == w,
                           f"rate weight {rep.get('rate.weight')} != {w}")
        n = int(rep["rate.n"])
        alpha = Fraction(rep["rate.alpha"])
        lam = Fraction(n * abs(int(w))) / (alpha - 1)
        return _first(
            _expect(rep.get("rate.weight") == w, f"rate weight "
                    f"{rep.get('rate.weight')} != {w}"),
            _expect(Fraction(rep["rate.lambda"]) == lam,
                    f"lambda {rep['rate.lambda']} != n|w|/(alpha-1) = {lam}"),
            _expect(Fraction(rep["rate.metric_rate"]) == min(Fraction(2), lam),
                    f"metric rate {rep['rate.metric_rate']} != min(2, lambda)"))
    return check


def _check_cech(target, m_expected=None, truncation_limited=None):
    """m_expected None: only the internal relations weight = -m and
    m <= target order are checked (random germs)."""
    def check(rep):
        m = int(rep["embedding_orders.m(X,D)"])
        limited = rep["embedding_orders.truncation_limited"] == "true"
        return _first(
            _expect(int(rep["embedding_orders.target_order"]) == target,
                    "target order differs"),
            _expect(int(rep["embedding_orders.weight"]) == -m,
                    "weight != -m(X,D)"),
            _expect(1 <= m <= target, f"m(X,D) = {m} outside 1..{target}"),
            _expect(m_expected is None or m == m_expected,
                    f"m(X,D) = {m}, expected {m_expected}"),
            _expect(truncation_limited is None
                    or limited == truncation_limited,
                    f"truncation_limited = {limited}"))
    return check


def p1p1_deck(order):
    """Diagonal of P^1 x P^1: y2 = -y1/(z1(z1 - y1)), truncated at order."""
    ys = "".join(f"a{k}: -z^-{k + 1}\n" for k in range(1, order + 1))
    return f"[normal-degree] d=2\n[y-series]\n{ys}[z-series]\na0: z^-1\n"


def conic_deck(order):
    """Conic in P^2: y2 = y1/(z1^2 - y1)^2, z2 = z1/(z1^2 - y1)."""
    ys = "".join(f"a{k}: {k}*z^-{2 * k + 2}\n" for k in range(1, order + 1))
    zs = "".join(f"a{k}: z^-{2 * k + 1}\n" for k in range(0, order + 1))
    return f"[normal-degree] d=4\n[y-series]\n{ys}[z-series]\n{zs}"


def _laurent(terms):
    return _join_terms(f"{'-' if c < 0 else '+'}{_fmt_frac(abs(c))}*z^{e}"
                       for e, c in terms)


def linear_germ_deck(rng, d, order):
    """Product germ y2 = c z^-d y1: no obstruction at any order."""
    c = _nonzero_fraction(rng)
    return (f"[normal-degree] d={d}\n[y-series]\n"
            f"a1: {_laurent([(-d, c)])}\na{order}: 0\n[z-series]\na0: z^-1\n")


def dense_germ_deck(rng, d, order, width=1):
    """Germ with every y- and z-series coefficient a dense Laurent
    polynomial over the exponents next to the obstruction windows."""
    ys = [f"a1: {rng.randint(1, 3)}*z^-{d}"]
    zs = ["a0: z^-1"]
    for k in range(2, order + 1):
        top = -d * (k - 1)
        ys.append(f"a{k}: " + _laurent(
            [(e, _nonzero_fraction(rng, 5, 3))
             for e in range(top - width, top + 2)]))
    for k in range(1, order + 1):
        top = -d * k
        zs.append(f"a{k}: " + _laurent(
            [(e, _nonzero_fraction(rng, 5, 3))
             for e in range(top - width, top + 2)]))
    return (f"[normal-degree] d={d}\n[y-series]\n" + "\n".join(ys)
            + "\n[z-series]\n" + "\n".join(zs) + "\n")


# ---------------------------------------------------------------------------
# workloads


STRUCTURED_HYPERSURFACES = [  # (N, d, jmin, jmax)
    (4, 3, -3, 3), (5, 3, -3, 2), (6, 3, -3, 1),
    (4, 4, -4, 3), (5, 4, -4, 1), (6, 4, -4, 0),
]
STRUCTURED_CIS = [  # (N, codim, jmin, jmax)
    (5, 2, -2, 2), (6, 2, -2, 1), (7, 2, -2, 1), (6, 3, -2, 1), (7, 3, -2, 1),
]
CECH_ORDERS = range(3, 8)
# normal degree of the linear germ per order; d = 1 opens lifting families
# at every order, which costs 0.4 s at order 3 but 6 s at order 7
LINEAR_GERM_DEGREE = {3: 1, 4: 2, 5: 3, 6: 4, 7: 2}


# Rate-table lookups (rate --n --alpha --abs-weight) are pure CLI, parse
# and report overhead.  With them most structured jobs are small CLI calls
# and the median rank falls in the middle of the weight/rate group (3-5 ms),
# not at an edge between clusters, so job_p50_s tracks per-call overhead.
RATE_FORMULA_JOBS = 24


def _rate_formula_job(rng, index):
    n = rng.randint(2, 6)
    alpha = 1 + Fraction(rng.randint(1, 5), rng.randint(1, 3))
    w = rng.randint(1, 4)
    compact = rng.random() < 0.5
    lam = Fraction(n * w) / (alpha - 1)
    cap = Fraction(2 * n) if compact else Fraction(2)
    argv = ["rate", "--n", str(n), "--alpha", str(alpha),
            "--abs-weight", str(w)] + (["--compact"] if compact else [])

    def check(rep):
        return _first(
            _expect(Fraction(rep["rate.lambda"]) == lam,
                    f"lambda {rep['rate.lambda']} != n|w|/(alpha-1) = {lam}"),
            _expect(Fraction(rep["rate.metric_rate"]) == min(cap, lam),
                    f"metric rate {rep['rate.metric_rate']} != "
                    f"min({cap}, lambda)"))

    return _cli_job(f"rate:formula:{index}", argv, check)


def _structured(rng, decks):
    # Built-in decks run at weights -4..3, which contain every built-in T1
    # window (at most -3..1).  The CLI default -6..4 reaches degree 7 and
    # makes two-quadrics alone cost 4-6 s, a third of the round.
    jobs = []
    for ex in sorted(cli.EXAMPLE_DECKS):
        t1_check = (_check_ci(cli.EXAMPLE_DECKS[ex]) if ex in BUILTIN_CI
                    else _check_t1_hypersurface)
        jobs.append(_cli_job(f"t1:{ex}", ["t1", "--example", ex,
                                          "--jmin", "-4", "--jmax", "3"],
                             t1_check))
        jobs.append(_cli_job(f"weight:{ex}", ["weight", "--example", ex],
                             _check_weight(BUILTIN_WEIGHTS[ex])))
        jobs.append(_cli_job(f"rate:{ex}", ["rate", "--example", ex],
                             _check_rate(BUILTIN_WEIGHTS[ex])))
    for order in CECH_ORDERS:
        for name, text, m, limited in (
                ("p1p1-diagonal", p1p1_deck(order + 1), 2, False),
                ("p2-conic", conic_deck(order + 1), 1, False),
                ("linear", linear_germ_deck(rng, LINEAR_GERM_DEGREE[order],
                                            order + 1), order, True)):
            jobs.append(_cli_job(
                f"cech:{name}:o{order}",
                ["cech", "--input", decks.write(text), "--order", str(order)],
                _check_cech(order, m, limited)))
    for N, d, jmin, jmax in STRUCTURED_HYPERSURFACES:
        text, e = diagonal_deck(rng, N, d)
        deck = decks.write(text)
        jobs.append(_cli_job(
            f"t1:diagonal:N{N}d{d}",
            ["t1", "--input", deck, "--jmin", str(jmin), "--jmax", str(jmax)],
            _check_t1_hypersurface))
        # a nonzero part of degree e <= d - 2 is never Jacobian: weight e - d
        jobs.append(_cli_job(f"weight:diagonal:N{N}d{d}",
                             ["weight", "--input", deck],
                             _check_weight(str(e - d))))
        if N - d + 1 > 1:        # the rate needs alpha > 1
            jobs.append(_cli_job(f"rate:diagonal:N{N}d{d}",
                                 ["rate", "--input", deck],
                                 _check_rate(str(e - d))))
    for i in range(RATE_FORMULA_JOBS):
        jobs.append(_rate_formula_job(rng, i))
    for N, codim, jmin, jmax in STRUCTURED_CIS:
        text = diagonal_ci_deck(rng, N, codim)
        jobs.append(_cli_job(
            f"t1:diagonal-ci:N{N}c{codim}",
            ["t1", "--input", decks.write(text),
             "--jmin", str(jmin), "--jmax", str(jmax)], _check_ci(text)))
    return jobs


GENERIC_CONES = [  # (N, degrees, jmin, jmax)
    (4, (2,), -2, 2), (4, (3,), -3, 2), (4, (4,), -4, 2), (5, (2,), -2, 1),
    (5, (3,), -3, 1), (6, (2,), -2, 1), (6, (3,), -3, 0),
    (4, (2, 2), -2, 2), (4, (2, 3), -3, 1), (4, (3, 3), -3, 1),
    (5, (2, 2), -2, 1), (5, (2, 3), -3, 0), (6, (2, 2), -2, 0),
    (6, (2, 2, 2), -2, 0),
]
GENERIC_GERMS = [(2, 3), (3, 3), (3, 4)]  # (normal degree d, target order)


def _generic(rng, decks):
    jobs = []
    for N, degrees, jmin, jmax in GENERIC_CONES:
        text = dense_deck(rng, N, degrees)
        check = (_check_t1_hypersurface if len(degrees) == 1
                 else _check_ci(text))
        jobs.append(_cli_job(
            f"t1:dense:N{N}d{'-'.join(map(str, degrees))}",
            ["t1", "--input", decks.write(text),
             "--jmin", str(jmin), "--jmax", str(jmax)], check))
    for d, order in GENERIC_GERMS:
        jobs.append(_cli_job(
            f"cech:dense:d{d}o{order}",
            ["cech", "--input", decks.write(dense_germ_deck(rng, d, order + 1)),
             "--order", str(order)], _check_cech(order)))
    return jobs


# (model, rings, angular); the verification residual on the 2x finer grid
# dominates every job
BELTRAMI_GRIDS = [("power", 8, 64), ("power", 6, 48), ("power", 4, 32),
                  ("const", 4, 32)]
BELTRAMI_RESIDUAL_TOL = 1e-6   # test_beltrami_power_model
BELTRAMI_RADIAL = 10           # solve_beltrami defaults; the CLI has no flags
BELTRAMI_EXTRA_RINGS = 8


def _beltrami(rng, decks):
    jobs = []
    for model, rings, angular in BELTRAMI_GRIDS:
        R = round(rng.uniform(0.15, 0.4), 4)
        if model == "power":
            c = complex(round(rng.uniform(0.02, 0.1), 4),
                        round(rng.uniform(-0.03, 0.03), 4))
            eta = round(rng.uniform(0.6, 0.9), 4)
            nu = round(rng.uniform(0.3, eta - 0.15), 4)
            spec = f"power:{c.real}{c.imag:+}j,{eta}"
        else:
            c = complex(round(rng.uniform(0.01, 0.08), 4),
                        round(rng.uniform(-0.03, 0.03), 4))
            eta, nu = 0.0, 0.0
            spec = f"const:{c.real}{c.imag:+}j"
        argv = ["dbar", "--model", spec, "--nu", str(nu), "--R", str(R),
                "--rings", str(rings), "--angular", str(angular)]
        jobs.append(_cli_job(f"dbar:{model}:{rings}x{angular}", argv,
                             _check_beltrami(model, c, eta, nu, R, rings,
                                             angular), exact=False))
    return jobs


def _check_beltrami(model, c, eta, nu, R, rings, angular):
    def check(rep):
        residual = float(rep["beltrami_solve.residual"])
        final = float(rep["beltrami_solve.final_increment"])
        fails = [_expect(residual < BELTRAMI_RESIDUAL_TOL,
                         f"residual {residual:.3g} >= {BELTRAMI_RESIDUAL_TOL}"),
                 _expect(final < 1e-10, f"final increment {final:.3g} "
                                        "above the default tol")]
        if model == "const":
            # The solution is -c conj(zeta).  The CLI's source grid stops
            # BELTRAMI_EXTRA_RINGS rings below the solution grid; the
            # missing disk of radius rho_h shifts the transform by about
            # |c| rho_h^2 / |zeta|, which relative to the solution is
            # (rho_h / |zeta|)^2 <= 4^-extra_rings on the innermost ring.
            grid = DiskGrid(R, rings, angular, BELTRAMI_RADIAL)
            exact = DiskField(grid, -c * np.conj(grid.nodes()), 1.0)
            want = weighted_norms(exact, HolderParams(0.5, nu + 1)).total
            got = float(rep["beltrami_solve.norm"])
            tol = 4.0 ** -BELTRAMI_EXTRA_RINGS * want
            fails.append(_expect(abs(got - want) <= tol,
                                 f"norm {got!r} != exact {want!r} "
                                 f"within the hole bound {tol:.3g}"))
        return _first(*fails)
    return check


def _random_point(rng, n):
    z = tuple(complex(rng.uniform(-0.2, 0.2), rng.uniform(-0.2, 0.2))
              for _ in range(n))
    return z, complex(rng.uniform(0.7, 1.2), rng.uniform(-0.3, 0.3))


# test_curvature_flat_cone, test_curvature_einstein_proportionality
FLAT_TOL = 1e-6
EINSTEIN_TOL = 1e-5
CURVATURE_CASES = [  # (dimD, case, full_riemann, diagnose_convergence)
    (n, case, full, diag)
    for n in (1, 2)
    for case, full, diag in (("flat", True, False), ("einstein", False, False),
                             ("einstein", False, True), ("flat", False, True))
]


def _curvature_job(rng, n, case, full, diag):
    delta = Fraction(1) if case == "flat" else Fraction(1, 2)
    mu = n + 1                   # Ric(omega_FS) = (n + 1) omega_FS on P^n
    grid = [_random_point(rng, n) for _ in range(2)]
    tol = FLAT_TOL if case == "flat" else EINSTEIN_TOL

    def run():
        return curvature_check(fubini_study_potential(n), delta, mu,
                               grid=grid, full_riemann=full,
                               diagnose_convergence=diag)

    def within(value, bound, what):
        return _expect(value < bound, f"{what} {value:.3g} >= {bound}",
                       KNOWN_DEFECT_FD_ROUNDOFF
                       if value < ROUNDOFF_FACTOR * bound else None)

    def check(rep):
        return _first(
            within(rep.ricci_defect, tol, "Ricci defect"),
            full and within(rep.max_riemann, FLAT_TOL, "Riemann defect"),
            _expect(rep.converged, "convergence diagnostic reports 'not "
                    "converged' at a defect below tolerance",
                    KNOWN_DEFECT_FALSE_NONCONVERGENCE))

    name = f"curvature:{case}:n{n}" + (":riemann" if full else "") + \
        (":diagnose" if diag else "")
    return Job(name, run, check, exact=False)


def _metric_job(rng, index):
    delta = rng.choice((Fraction(1, 3), Fraction(1, 2), Fraction(2, 3),
                        Fraction(1)))
    xi = f"{round(rng.uniform(0.6, 1.4), 4)},{round(rng.uniform(-0.4, 0.4), 4)}"
    argv = ["metric", "--delta", str(delta), "--dimD", "1",
            "--potential", "1+|z|^2", "--xi", xi, "--sweep", "1..8"]

    def check(rep):
        fails = [_expect(float(rep["closed_formulas.FD_christoffel_defect"])
                         < FLAT_TOL, "FD Christoffel defect too large")]
        for kind, ttype in TENSOR_TYPES.items():
            pred = float(scaling_exponent(ttype, delta))
            got = float(rep[f"scaling_sweep.{kind}_empirical"])
            # test_scaling_slopes_match_prediction
            fails.append(_expect(abs(got - pred) <= max(0.01, 0.01 * abs(pred))
                                 + 1e-12, f"{kind} slope {got} vs {pred}"))
        return _first(*fails)

    return _cli_job(f"metric:sweep:{index}", argv, check, exact=False)


def _identity_field(rng):
    a, b, c = (complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
               for _ in range(3))
    s = rng.uniform(0.2, 0.6)
    return lambda z: (a * np.conj(z) * np.exp(s * z.real)
                      + b * np.abs(z) ** 2 + c * np.conj(z) ** 2)


IDENTITY_LEVEL1_TOL = 5e-4     # test_dbar_identity_fd
IDENTITY_MIN_ORDER = 1.8       # test_dbar_identity_refinement_order


def _identity_job(rng, index):
    field = _identity_field(rng)

    def run():
        return [dbar_identity_defect(field, level=lv) for lv in (0, 1, 2)]

    def check(d):
        order = math.log(d[0] / d[1]) / math.log(2)
        return _first(
            _expect(d[1] < IDENTITY_LEVEL1_TOL,
                    f"level-1 defect {d[1]:.3g} >= {IDENTITY_LEVEL1_TOL}"),
            _expect(order >= IDENTITY_MIN_ORDER,
                    f"refinement order {order:.2f} < {IDENTITY_MIN_ORDER}"))

    return Job(f"dbar-identity:levels0-2:{index}", run, check, exact=False)


def _two_var_fields(rng):
    a, b = (complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(2))
    s = rng.uniform(0.2, 0.6)
    return [lambda z1, z2: a * np.conj(z1) * z2 + b * np.conj(z1) ** 2,
            lambda z1, z2: np.abs(z1) ** 2 * np.exp(s * np.conj(z2))]


TWO_VAR_DIAG_TOL = 5e-2        # test_operator_identities_smooth_fields
TWO_VAR_CROSS_TOL = 1e-3


def _two_var_job(rng):
    fields = _two_var_fields(rng)

    def run():
        return operator_identities_2var(resolution=16, fields=fields)

    def check(rep):
        return _first(
            _expect(rep.diag_defect < TWO_VAR_DIAG_TOL,
                    f"diagonal defect {rep.diag_defect:.3g}"),
            _expect(rep.cross_defect < TWO_VAR_CROSS_TOL,
                    f"commutation defect {rep.cross_defect:.3g}"))

    return Job("dbar-identity:2var", run, check, exact=False)


J0_SLOPE_TOL = 0.1             # test_contraction_study_power_model_slope


def _contraction_job(rng, radii):
    c = round(rng.uniform(0.02, 0.08), 4)
    eta = round(rng.uniform(0.6, 0.9), 4)
    nu = round(rng.uniform(0.3, eta - 0.15), 4)
    seed = rng.randrange(2 ** 31)

    def run():
        return contraction_study(PerturbationModel.power(c, eta),
                                 HolderParams(0.5, nu), radii, probes=2,
                                 angular=32, seed=seed)

    def check(st):
        return _expect(st.j0_slope is not None
                       and abs(st.j0_slope - (eta - nu)) <= J0_SLOPE_TOL,
                       f"J0 slope {st.j0_slope} vs eta - nu = {eta - nu:.4f}")

    return Job(f"contraction:{len(radii)}-radii", run, check, exact=False)


def _checks(rng, decks):
    jobs = [_curvature_job(rng, *case) for case in CURVATURE_CASES]
    jobs += [_metric_job(rng, i) for i in range(2)]
    jobs += [_identity_job(rng, i) for i in range(2)]
    jobs.append(_two_var_job(rng))
    jobs.append(_contraction_job(rng, [0.4, 0.2]))
    jobs.append(_contraction_job(rng, [0.4, 0.2, 0.1]))
    return jobs


ROUNDS = {"structured": _structured, "generic": _generic,
          "beltrami": _beltrami, "checks": _checks}
WORKLOADS = tuple(ROUNDS)
