"""Command-line entry point: t1, weight, rate, cech, metric, dbar."""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction

from . import __version__
from .cech import (NotNormalizedError, ParameterBudgetExhaustedError,
                   TruncationExhaustedError, normalize, weight_from_order)
from .cone_metric import (ConeChart, NotNormalizedChart, TENSOR_TYPES,
                          christoffels_fd, empirical_scaling_slope, metric_at,
                          scaling_exponent)
from .dbar import (ContractionFailure, HolderParams, PerturbationModel,
                   PreconditionFailure, QuadratureDivergence, solve_beltrami)
from .graded import (FirstOrderVanishes, RateInput, deformation_weight,
                     predicted_rate, t1_graded)
from .parsing import (ParseError, parse_cone_deck, parse_potential,
                      parse_transition_deck)
from .reports import Report, digest, fmt

NORMALITY_NOTE = ("hypothesis (unchecked): the projectivized base is smooth "
                  "and projectively normal")

ENV_DEFAULTS = {
    "CONEDEFORM_DBAR_TOL": ("dbar --tol default", "1e-10"),
    "CONEDEFORM_DBAR_RINGS": ("dbar --rings default", "8"),
    "CONEDEFORM_DBAR_ANGULAR": ("dbar --angular default", "64"),
    "CONEDEFORM_FD_STEP": ("metric finite-difference step", "1e-5"),
}


def _env(name, cast):
    """The override `name` cast by `cast`, else its ENV_DEFAULTS value."""
    raw = os.environ.get(name, ENV_DEFAULTS[name][1])
    try:
        return cast(raw)
    except ValueError:
        raise ValueError(f"{name}={raw!r} is not a valid "
                         f"{cast.__name__}") from None


# ---------------------------------------------------------------------------
# built-in example decks (text form, so they exercise the parsers)


EXAMPLE_DECKS = {
    "cubic-cone": """\
[defining]
z1^3+z2^3+z3^3+z4^3
[perturbation]
2*z1*z2-3/2*z1*z3+z2*z4+5/3*z3*z4+z1^2+2/5*z2^2+z1-2*z2+1/2*z3+z4+3/7 ; e=2
[params] n=3 alpha=2 compact=false
""",
    "cubic-cone-linear": """\
[defining]
z1^3+z2^3+z3^3+z4^3
[perturbation]
z1-2*z2+1/2*z3+z4+3/7 ; e=1
[params] n=3 alpha=2 compact=false
""",
    "cubic-cone-constant": """\
[defining]
z1^3+z2^3+z3^3+z4^3
[perturbation]
3/7 ; e=0
[params] n=3 alpha=2 compact=false
""",
    "odp3": """\
[defining]
z1^2+z2^2+z3^2+z4^2
[perturbation]
2*z1-z2+1/3*z3+z4+1 ; e=1
[params] n=3 alpha=3 compact=false
""",
    "odp3-z3": """\
[defining]
z1^2+z2^2+z3^2+z4^2
[perturbation]
z3 ; e=1
[params] n=3 alpha=3 compact=false
""",
    "odp4": """\
[defining]
z1^2+z2^2+z3^2+z4^2+z5^2
[perturbation]
z1+2*z2-z3+z4-1/2*z5+2 ; e=1
[params] n=4 alpha=4 compact=false
""",
    "two-quadrics": """\
[defining]
z1^2+z2^2+z3^2+z4^2+z5^2
z1^2+2*z2^2+3*z3^2+4*z4^2+5*z5^2
[perturbation]
-1 ; e=0
-1 ; e=0
[params] n=3 alpha=2 compact=false
""",
}

TRANSITION_DECKS = {
    "p1p1-diagonal": """\
[normal-degree] d=2
[y-series]
a1: -z^-2
a2: -z^-3
a3: -z^-4
a4: -z^-5
[z-series]
a0: z^-1
""",
    "p2-conic": """\
[normal-degree] d=4
[y-series]
a1: z^-4
a2: 2*z^-6
a3: 3*z^-8
a4: 4*z^-10
[z-series]
a0: z^-1
a1: z^-3
a2: z^-5
a3: z^-7
a4: z^-9
""",
}


def _load_deck(args):
    if getattr(args, "input", None):
        with open(args.input, "r", encoding="utf-8") as fh:
            text = fh.read()
        label = args.input
    elif getattr(args, "example", None):
        if args.example not in EXAMPLE_DECKS:
            raise ParseError(f"unknown example {args.example!r}; choose from "
                             + ", ".join(sorted(EXAMPLE_DECKS)))
        text = EXAMPLE_DECKS[args.example]
        label = f"example:{args.example}"
    else:
        raise ParseError("provide --input FILE or --example NAME")
    return parse_cone_deck(text), text, label


def _emit(report: Report, args):
    text = report.render(args.format)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# subcommands


def cmd_t1(args):
    deck, text, label = _load_deck(args)
    rep = Report("t1", args.seed, digest(text))
    sec = rep.section("input")
    sec.add("source", label)
    sec.add("ambient dim", deck.cone.ambient_dim)
    sec.add("degrees", " ".join(str(d) for d in deck.cone.degrees()))
    table = rep.section("t1 dimensions")
    result = t1_graded(deck.cone, args.jmin, args.jmax)
    for j in range(args.jmin, args.jmax + 1):
        table.add(f"dim[{j}]", result.dimension(j))
    win = rep.section("window")
    win.add("detected", "none" if result.window is None
            else f"{result.window[0]}..{result.window[1]}")
    rep.note(NORMALITY_NOTE)
    _emit(rep, args)
    return 0


def cmd_weight(args):
    deck, text, label = _load_deck(args)
    if deck.perturbation is None:
        raise ParseError("the deck has no [perturbation] section")
    rep = Report("weight", args.seed, digest(text))
    res = deformation_weight(deck.cone, deck.perturbation, seed=args.seed)
    sec = rep.section("deformation weight")
    sec.add("source", label)
    if res.first_order_vanishes:
        sec.add("weight", "FirstOrderVanishes")
    else:
        sec.add("weight", res.weight)
    sec.add("samples", " ".join(str(v) for v in res.samples))
    sec.add("genericity warning", res.genericity_warning)
    for n in res.notes:
        rep.note(n)
    _emit(rep, args)
    return 0


def cmd_rate(args):
    if args.input or args.example:
        deck, text, label = _load_deck(args)
        if deck.perturbation is None or deck.n is None or deck.alpha is None:
            raise ParseError("rate needs [perturbation] and [params] "
                             "n=<int> alpha=<p/q>")
        rep = Report("rate", args.seed, digest(text))
        res = deformation_weight(deck.cone, deck.perturbation, seed=args.seed)
        sec = rep.section("rate")
        sec.add("source", label)
        for n in res.notes:
            rep.note(n)
        if res.first_order_vanishes:
            sec.add("weight", "FirstOrderVanishes")
            sec.add("lambda", "undetermined (first-order class vanishes)")
            _emit(rep, args)
            return 0
        rate = predicted_rate(RateInput(deck.n, deck.alpha, abs(res.weight),
                                        deck.compact))
        sec.add("weight", res.weight)
        sec.add("n", deck.n)
        sec.add("alpha", deck.alpha)
        sec.add("lambda", rate.lambda1)
        sec.add("metric rate", rate.metric_rate)
        for n in rate.notes:
            rep.note(n)
        _emit(rep, args)
        return 0
    if args.n is None or args.alpha is None or args.abs_weight is None:
        raise ParseError("provide a deck or --n --alpha --abs-weight")
    rep = Report("rate", args.seed,
                 digest(f"{args.n}:{args.alpha}:{args.abs_weight}"))
    rate = predicted_rate(RateInput(args.n, Fraction(args.alpha),
                                    args.abs_weight, args.compact))
    sec = rep.section("rate")
    sec.add("n", args.n)
    sec.add("alpha", Fraction(args.alpha))
    sec.add("|w|", args.abs_weight)
    sec.add("lambda", rate.lambda1)
    sec.add("metric rate", rate.metric_rate)
    for n in rate.notes:
        rep.note(n)
    _emit(rep, args)
    return 0


def cmd_cech(args):
    if args.input:
        with open(args.input, "r", encoding="utf-8") as fh:
            text = fh.read()
        label = args.input
    else:
        name = args.example or "p1p1-diagonal"
        if name not in TRANSITION_DECKS:
            raise ParseError(f"unknown example {name!r}; choose from "
                             + ", ".join(sorted(TRANSITION_DECKS)))
        text = TRANSITION_DECKS[name]
        label = f"example:{name}"
    t = parse_transition_deck(text)
    order = args.order or min(3, t.order - 1)
    rep = Report("cech", args.seed, digest(text))
    res = normalize(t, order)
    sec = rep.section("embedding orders")
    sec.add("source", label)
    sec.add("normal degree", t.normal_degree)
    sec.add("target order", order)
    sec.add("m(X,D)", res.m_comfortable)
    sec.add("linearizable order", res.m_linearizable)
    sec.add("verdict", res.verdict)
    sec.add("truncation limited", res.truncation_limited)
    w, notes = weight_from_order(res.m_comfortable, dim_D=1)
    sec.add("weight", w)
    fam = rep.section("lifting families")
    for k, dim in sorted(res.ledger.families.items()):
        fam.add(f"order {k} parameters", dim)
    obs = rep.section("obstructions")
    for e in res.ledger.entries:
        obs.add(f"k={e.order} {e.kind} [{e.chain}]",
                f"window {e.window}; class [{_strvec(e)}]; "
                f"locus {e.locus.kind}: {e.locus.description or '-'}")
    for n in notes:
        rep.note(n)
    for n in res.ledger.notes:
        rep.note(n)
    _emit(rep, args)
    return 0


def _strvec(entry):
    from .cech import _poly_str
    return ", ".join(_poly_str(c) for c in entry.class_vector) or "empty"


def cmd_metric(args):
    pot = parse_potential(args.potential, args.dimD)
    delta = Fraction(args.delta)
    xi = complex(*(float(x) for x in args.xi.split(",")))
    chart = ConeChart(delta, args.dimD, (0.0,) * args.dimD, xi, pot)
    rep = Report("metric", args.seed, digest(
        f"{args.potential}|{args.delta}|{args.dimD}|{args.xi}"))
    m = metric_at(chart)
    sec = rep.section("closed formulas")
    sec.add("delta", delta)
    sec.add("r", m.r)
    sec.add("g_00 (fiber)", m.g[0, 0].real)
    sec.add("g_11 (base)", m.g[1, 1].real if args.dimD >= 1 else 0.0)
    sec.add("Gamma^1_10", m.christoffels[1, 1, 0])
    sec.add("Gamma^0_00", m.christoffels[0, 0, 0])
    sec.add("|dz|", m.frame_norms["dz"])
    sec.add("|dxi|", m.frame_norms["dxi"])
    h = _env("CONEDEFORM_FD_STEP", float)
    gfd = christoffels_fd(chart, h=h)
    sec.add("FD christoffel defect",
            float(abs(gfd - m.christoffels).max()))
    if args.sweep:
        k0, k1 = (int(x) for x in args.sweep.split(".."))
        sw = rep.section("scaling sweep")
        for kind, ttype in TENSOR_TYPES.items():
            pred = scaling_exponent(ttype, delta)
            slope = empirical_scaling_slope(chart, kind, range(k0, k1 + 1))
            sw.add(f"{kind} predicted", pred)
            sw.add(f"{kind} empirical", slope)
    _emit(rep, args)
    return 0


def cmd_dbar(args):
    model = _parse_model(args.model)
    p = HolderParams(args.alpha, args.nu)
    if args.eta is not None and abs(args.eta - model.eta) > 1e-12:
        raise ParseError("--eta disagrees with the model's decay exponent")
    sol = solve_beltrami(model, p, args.R, tol=args.tol, rings=args.rings,
                         angular=args.angular)
    rep = Report("dbar", args.seed, digest(
        f"{args.model}|{args.R}|{args.nu}|{args.alpha}|{args.tol}|"
        f"{args.rings}|{args.angular}"))
    sec = rep.section("beltrami solve")
    sec.add("model", args.model)
    sec.add("R", args.R)
    sec.add("rings", args.rings)
    sec.add("angular", args.angular)
    sec.add("iterations", sol.iterations)
    sec.add("residual", sol.residual)
    sec.add("norm", sol.norm)
    sec.add("final increment",
            sol.increments[-1] if sol.increments else 0.0)
    if args.report:
        _write_dbar_report(args.report, args, sol)
        sec.add("report file", args.report)
    _emit(rep, args)
    return 0


def _write_dbar_report(path, args, sol):
    """UTF-8 table plus a line-oriented key=value trailer."""
    lines = []
    lines.append("R          iterations  residual      norm")
    lines.append("%-10.4g %-11d %-13.4e %-12.6e"
                 % (args.R, sol.iterations, sol.residual, sol.norm))
    lines.append("")
    lines.append(f"model={args.model}")
    lines.append(f"R={fmt(args.R)}")
    lines.append(f"nu={fmt(args.nu)}")
    lines.append(f"alpha={fmt(args.alpha)}")
    lines.append(f"tol={fmt(args.tol)}")
    lines.append(f"iterations={sol.iterations}")
    lines.append(f"residual={fmt(sol.residual)}")
    lines.append(f"norm={fmt(sol.norm)}")
    for i, inc in enumerate(sol.increments):
        lines.append(f"increment.{i}={fmt(inc)}")
    lines.append("")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines))


def _parse_model(spec):
    if spec.startswith("const:"):
        return PerturbationModel.constant(complex(spec[6:]))
    if spec.startswith("power:"):
        parts = spec[6:].split(",")
        if len(parts) != 2:
            raise ParseError("power model needs power:<c>,<eta>")
        return PerturbationModel.power(complex(parts[0]), float(parts[1]))
    raise ParseError(f"unknown model {spec!r}; use const:<c> or "
                     "power:<c>,<eta>")


# ---------------------------------------------------------------------------
# argument plumbing


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(1)


def build_parser() -> argparse.ArgumentParser:
    epilog_lines = ["environment overrides:"]
    for name, (what, default) in ENV_DEFAULTS.items():
        epilog_lines.append(f"  {name}: {what} (default {default})")
    parser = _Parser(prog="conedeform",
                     description="Deformation invariants of cone "
                                 "singularities and numerical checks for "
                                 "asymptotically conical geometry.",
                     epilog="\n".join(epilog_lines),
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--format", choices=("human", "kv"), default="human")
        p.add_argument("--output", default=None)

    p = sub.add_parser("t1", help="graded T1 table of a cone deck")
    p.add_argument("--input")
    p.add_argument("--example", choices=sorted(EXAMPLE_DECKS))
    p.add_argument("--jmin", type=int, default=-6)
    p.add_argument("--jmax", type=int, default=4)
    common(p)
    p.set_defaults(func=cmd_t1)

    p = sub.add_parser("weight", help="deformation weight of a perturbation")
    p.add_argument("--input")
    p.add_argument("--example", choices=sorted(EXAMPLE_DECKS))
    common(p)
    p.set_defaults(func=cmd_weight)

    p = sub.add_parser("rate", help="predicted asymptotic decay rates")
    p.add_argument("--input")
    p.add_argument("--example", choices=sorted(EXAMPLE_DECKS))
    p.add_argument("--n", type=int)
    p.add_argument("--alpha")
    p.add_argument("--abs-weight", type=int, dest="abs_weight")
    p.add_argument("--compact", action="store_true")
    common(p)
    p.set_defaults(func=cmd_rate)

    p = sub.add_parser("cech", help="normalize a transition germ")
    p.add_argument("--input")
    p.add_argument("--example", choices=sorted(TRANSITION_DECKS))
    p.add_argument("--order", type=int, default=None)
    common(p)
    p.set_defaults(func=cmd_cech)

    p = sub.add_parser("metric", help="Calabi-ansatz metric checks")
    p.add_argument("--delta", required=True)
    p.add_argument("--dimD", type=int, default=1)
    p.add_argument("--potential", required=True)
    p.add_argument("--xi", default="1,0")
    p.add_argument("--sweep", default=None, help="k0..k1 for xi = 2^-k")
    common(p)
    p.set_defaults(func=cmd_metric)

    p = sub.add_parser("dbar", help="Beltrami fixed-point solve")
    p.add_argument("--eta", type=float, default=None)
    p.add_argument("--nu", type=float, required=True)
    p.add_argument("--alpha", type=float, default=0.5)
    p.add_argument("--R", type=float, required=True)
    p.add_argument("--rings", type=int,
                   default=_env("CONEDEFORM_DBAR_RINGS", int))
    p.add_argument("--angular", type=int,
                   default=_env("CONEDEFORM_DBAR_ANGULAR", int))
    p.add_argument("--tol", type=float,
                   default=_env("CONEDEFORM_DBAR_TOL", float))
    p.add_argument("--model", required=True)
    p.add_argument("--report", default=None)
    common(p)
    p.set_defaults(func=cmd_dbar)

    return parser


REFUSAL_ERRORS = (PreconditionFailure, ContractionFailure,
                  NotNormalizedError, NotNormalizedChart,
                  TruncationExhaustedError, ParameterBudgetExhaustedError,
                  QuadratureDivergence)


def main(argv=None) -> int:
    try:
        # building the parser reads the environment overrides
        args = build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except REFUSAL_ERRORS as exc:
        sys.stderr.write(f"refused: {exc}\n")
        return 2
    except (ParseError, FileNotFoundError, ValueError) as exc:
        sys.stderr.write(f"input error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
