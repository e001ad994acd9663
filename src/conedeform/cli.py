"""Command-line entry point: t1, weight, rate, cech, metric, dbar."""

from __future__ import annotations

import argparse
import functools
import os
import sys
from fractions import Fraction

from . import __version__
from .cech import normalize, weight_from_order
from .graded import (NORMALITY_NOTE, RateInput, deformation_weight,
                     predicted_rate, t1_graded)
from .parsing import (ParseError, parse_cone_deck, parse_potential,
                      parse_transition_deck)
from .reports import Refusal, Report, Section, digest

# The numeric engines (cone_metric, dbar) load numpy, so metric and dbar
# import them when they run; t1, weight, rate and cech never do.

# finite-difference step of the metric report's Christoffel check
FD_STEP = 1e-5


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


def _load_deck(args, examples, parse, default=None):
    """(parse(text), text, label) for the deck of --input FILE, or of the
    built-in --example NAME (default if neither is given)."""
    if args.input:
        with open(args.input, "r", encoding="utf-8") as fh:
            text = fh.read()
        return parse(text), text, args.input
    name = args.example or default
    if name is None:
        raise ParseError("provide --input FILE or --example NAME")
    text = examples[name]
    return parse(text), text, f"example:{name}"


def _fraction(flag, text):
    """The rational value p or p/q given to option `flag`."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"{flag} takes p or p/q, got {text!r}") from None


def _input_digest(*settings):
    """Digest of a report's input: the deck text or the values of the
    options, and every further setting that changes the report."""
    return digest("|".join(str(s) for s in settings))


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
    deck, text, label = _load_deck(args, EXAMPLE_DECKS, parse_cone_deck)
    rep = Report("t1", args.seed, _input_digest(text, args.jmin, args.jmax))
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
    deck, text, label = _load_deck(args, EXAMPLE_DECKS, parse_cone_deck)
    if deck.perturbation is None:
        raise ParseError("the deck has no [perturbation] section")
    rep = Report("weight", args.seed, _input_digest(text))
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
        if args.compact or {args.n, args.alpha, args.abs_weight} != {None}:
            raise ParseError("--n, --alpha, --abs-weight and --compact take "
                             "no deck: a deck's [params] line sets them")
        deck, text, label = _load_deck(args, EXAMPLE_DECKS, parse_cone_deck)
        if deck.perturbation is None or deck.n is None or deck.alpha is None:
            raise ParseError("rate needs [perturbation] and [params] "
                             "n=<int> alpha=<p/q>")
        rep = Report("rate", args.seed, _input_digest(text))
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
        sec.add("weight", res.weight)
        inp = RateInput(deck.n, deck.alpha, abs(res.weight), deck.compact)
    else:
        if args.n is None or args.alpha is None or args.abs_weight is None:
            raise ParseError("provide a deck or --n --alpha --abs-weight")
        alpha = _fraction("--alpha", args.alpha)
        rep = Report("rate", args.seed, _input_digest(
            args.n, args.alpha, args.abs_weight, args.compact))
        sec = rep.section("rate")
        inp = RateInput(args.n, alpha, args.abs_weight, args.compact)
    rate = predicted_rate(inp)
    sec.add("n", inp.n)
    sec.add("alpha", inp.alpha)
    if args.abs_weight is not None:
        sec.add("|w|", inp.weight_abs)
    sec.add("lambda", rate.lambda1)
    sec.add("metric rate", rate.metric_rate)
    for n in rate.notes:
        rep.note(n)
    _emit(rep, args)
    return 0


def cmd_cech(args):
    t, text, label = _load_deck(args, TRANSITION_DECKS, parse_transition_deck,
                                "p1p1-diagonal")
    order = min(3, t.order - 1) if args.order is None else args.order
    rep = Report("cech", args.seed, _input_digest(text, order))
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
    from .cone_metric import (ConeChart, TENSOR_TYPES, christoffels_fd,
                              empirical_scaling_slope, metric_at,
                              scaling_exponent)
    pot = parse_potential(args.potential, args.dimD)
    delta = _fraction("--delta", args.delta)
    parts = args.xi.split(",")
    if len(parts) > 2:
        raise ParseError(f"--xi takes re or re,im, got {args.xi!r}")
    xi = complex(*(float(x) for x in parts))
    if args.sweep:
        try:
            k0, k1 = (int(x) for x in args.sweep.split(".."))
        except ValueError:
            k0 = k1 = None
        if k0 is None or k1 <= k0 or 2.0 ** (-2 * k1) == 0:
            raise ParseError(f"--sweep takes k0..k1 with k0 < k1 and "
                             f"2^-2k1 > 0, got {args.sweep!r}")
    chart = ConeChart(delta, args.dimD, (0.0,) * args.dimD, xi, pot)
    rep = Report("metric", args.seed, _input_digest(
        args.potential, args.delta, args.dimD, args.xi, args.sweep, FD_STEP))
    m = metric_at(chart)
    sec = rep.section("closed formulas")
    sec.add("delta", delta)
    sec.add("r", m.r)
    sec.add("g_00 (fiber)", m.g[0, 0].real)
    sec.add("g_11 (base)", m.g[1, 1].real)
    sec.add("Gamma^1_10", m.christoffels[1, 1, 0])
    sec.add("Gamma^0_00", m.christoffels[0, 0, 0])
    sec.add("|dz|", m.frame_norms["dz"])
    sec.add("|dxi|", m.frame_norms["dxi"])
    gfd = christoffels_fd(chart, h=FD_STEP)
    sec.add("FD christoffel defect",
            float(abs(gfd - m.christoffels).max()))
    if args.sweep:
        sw = rep.section("scaling sweep")
        for kind, ttype in TENSOR_TYPES.items():
            pred = scaling_exponent(ttype, delta)
            try:
                slope = empirical_scaling_slope(chart, kind,
                                                range(k0, k1 + 1))
            except ValueError as exc:
                raise ParseError(f"--sweep {args.sweep} leaves the float "
                                 f"range: {exc}") from None
            sw.add(f"{kind} predicted", pred)
            sw.add(f"{kind} empirical", slope)
    _emit(rep, args)
    return 0


def cmd_dbar(args):
    from .dbar import HolderParams, solve_beltrami
    model = _parse_model(args.model)
    p = HolderParams(args.alpha, args.nu)
    if args.eta is not None and not abs(args.eta - model.eta) <= 1e-12:
        raise ParseError("--eta disagrees with the model's decay exponent")
    if args.report:
        _check_writable(args.report)
    sol = solve_beltrami(model, p, args.R, tol=args.tol, rings=args.rings,
                         angular=args.angular)
    rep = Report("dbar", args.seed, _input_digest(
        args.model, args.R, args.nu, args.alpha, args.tol, args.rings,
        args.angular))
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


def _check_writable(path):
    """Raises, before any work, the OSError that writing `path` would; an
    existing file is left as it is and a new one is not kept.

    A new path is opened only when `os.access` finds its directory not
    writable: making and removing a file just to test the path measured
    0.4 ms a call on an ext4 host, about half of a short CLI job."""
    if os.path.exists(path):
        open(path, "a", encoding="utf-8").close()
    elif not os.access(os.path.dirname(path) or ".", os.W_OK | os.X_OK):
        open(path, "a", encoding="utf-8").close()
        os.remove(path)


def _write_dbar_report(path, args, sol):
    """UTF-8 table plus a line-oriented key=value trailer."""
    trailer = Section("report")
    for key in ("model", "R", "nu", "alpha", "tol"):
        trailer.add(key, getattr(args, key))
    trailer.add("iterations", sol.iterations)
    trailer.add("residual", sol.residual)
    trailer.add("norm", sol.norm)
    for i, inc in enumerate(sol.increments):
        trailer.add(f"increment.{i}", inc)
    lines = ["R          iterations  residual      norm",
             "%-10.4g %-11d %-13.4e %-12.6e"
             % (args.R, sol.iterations, sol.residual, sol.norm),
             "", *trailer.kv_lines(""), ""]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines))


def _parse_model(spec):
    from .dbar import PerturbationModel
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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process: building the argparse
    tree takes about as long as a small exact job."""
    parser = _Parser(prog="conedeform",
                     description="Deformation invariants of cone "
                                 "singularities and numerical checks for "
                                 "asymptotically conical geometry.",
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
    p.add_argument("--rings", type=int, default=8)
    p.add_argument("--angular", type=int, default=64)
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--model", required=True)
    p.add_argument("--report", default=None)
    common(p)
    p.set_defaults(func=cmd_dbar)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if args.output:
            _check_writable(args.output)
        return args.func(args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except Refusal as exc:      # before ValueError: some refusals are both
        sys.stderr.write(f"refused: {exc}\n")
        return 2
    except (ParseError, OSError, ValueError) as exc:
        sys.stderr.write(f"input error: {exc}\n")
        return 1
    except OverflowError as exc:
        sys.stderr.write(f"input error: a value overflows a float ({exc})\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
