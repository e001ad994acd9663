import os
import pathlib
import subprocess
import sys
import textwrap

import pytest

import conedeform
from conedeform import cech, cli, cone_metric, dbar
from conedeform.cli import EXAMPLE_DECKS, main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_rate_builtin_cubic(capsys):
    code, out = run(capsys, "rate", "--example", "cubic-cone")
    assert code == 0
    assert "lambda       3" in out
    assert "weight       -1" in out
    assert "projectively normal" in out


def test_rate_regimes(capsys):
    code, out = run(capsys, "rate", "--example", "cubic-cone-linear")
    assert code == 0 and "lambda       6" in out
    code, out = run(capsys, "rate", "--example", "cubic-cone-constant")
    assert code == 0 and "lambda       9" in out


def test_weight_flags_first_order_vanishing(capsys):
    code, out = run(capsys, "weight", "--example", "odp3-z3")
    assert code == 0
    assert "FirstOrderVanishes" in out
    assert "completing-the-square" in out


def test_cech_p1p1_report(capsys):
    code, out = run(capsys, "cech", "--example", "p1p1-diagonal", "--order", "3")
    assert code == 0
    assert "m(X,D)              2" in out
    assert "weight              -2" in out
    assert "a1 = -1/2" in out
    assert "a1 = 0" in out
    assert "order 1 parameters  1" in out


def test_cech_p2_conic(capsys):
    code, out = run(capsys, "cech", "--example", "p2-conic")
    assert code == 0
    assert "m(X,D)              1" in out
    assert "weight              -1" in out


def test_t1_kv_format(capsys):
    code, out = run(capsys, "t1", "--example", "odp3", "--jmin", "-3",
                    "--jmax", "0", "--format", "kv")
    assert code == 0
    assert "t1_dimensions.dim[-2]=1" in out
    assert "t1_dimensions.dim[-1]=0" in out


def test_golden_stability(capsys):
    """Reports are byte-identical across runs with the same seed."""
    _, out1 = run(capsys, "rate", "--example", "two-quadrics", "--seed", "7")
    _, out2 = run(capsys, "rate", "--example", "two-quadrics", "--seed", "7")
    assert out1 == out2
    code, out = run(capsys, "rate", "--example", "two-quadrics")
    assert "lambda       6" in out


def test_input_error_exit_code(capsys, tmp_path):
    bad = tmp_path / "bad.deck"
    bad.write_text("[defining]\nz1^\n")
    code = main(["t1", "--input", str(bad)])
    assert code == 1
    code = main(["t1", "--input", str(tmp_path / "missing.deck")])
    assert code == 1
    code = main(["rate"])   # no deck, no direct parameters
    assert code == 1


def test_refusal_exit_code(capsys):
    code = main(["dbar", "--nu", "0.0", "--R", "0.4", "--rings", "4",
                 "--angular", "16", "--model", "const:0.9"])
    assert code == 2


def test_parameter_budget_refusal(capsys, tmp_path):
    deck = tmp_path / "d0.deck"
    deck.write_text("[normal-degree] d=0\n[y-series]\na1: 1\na4: 0\n"
                    "[z-series]\na0: z^-1\n")
    code = main(["cech", "--input", str(deck), "--order", "3"])
    assert code == 2
    assert "refused: lifting-parameter budget exhausted" in \
        capsys.readouterr().err


def test_repeated_normal_degree_is_input_error(capsys, tmp_path):
    """d=5 alone is refused for this germ; a later d=2 does not replace it."""
    deck = tmp_path / "germ.deck"
    deck.write_text("[normal-degree] d=5\nd=2\n[y-series]\na1: -1*z^-2\n"
                    "a2: 0\n")
    code = main(["cech", "--input", str(deck), "--order", "1"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("input error:")
    assert "at line 2" in captured.err


def test_dbar_zero_model(capsys, tmp_path):
    report = tmp_path / "report.txt"
    code, out = run(capsys, "dbar", "--nu", "0.0", "--R", "0.3", "--rings",
                    "4", "--angular", "16", "--model", "const:0",
                    "--report", str(report))
    assert code == 0
    assert "residual         0" in out
    text = report.read_text()
    assert "residual=0" in text
    assert text.splitlines()[0].startswith("R ")


def test_dbar_digest_covers_grid_size(capsys):
    """Runs that differ only in --rings or --angular get different digests."""
    base = ["dbar", "--nu", "0.0", "--R", "0.3", "--model", "const:0",
            "--format", "kv"]
    digests = set()
    for rings, angular in (("4", "16"), ("3", "16"), ("4", "8")):
        code, out = run(capsys, *base, "--rings", rings, "--angular", angular)
        assert code == 0
        digests.add(next(line for line in out.splitlines()
                         if line.startswith("input_digest=")))
    assert len(digests) == 3


def test_metric_subcommand(capsys):
    code, out = run(capsys, "metric", "--delta", "1", "--dimD", "1",
                    "--potential", "1+|z|^2", "--xi", "1,0")
    assert code == 0
    assert "FD christoffel defect" in out


def test_output_file(tmp_path, capsys):
    path = tmp_path / "out.txt"
    code = main(["t1", "--example", "odp3", "--output", str(path)])
    assert code == 0
    assert "dim[-2]" in path.read_text()


@pytest.mark.parametrize("argv", [
    ["--dimD", "1", "--potential", "1+|z2|^2"],
    ["--potential", "1+|z0|^2"],
    ["--potential", "1+|z|^2", "--xi", "1,2,3"],
    ["--potential", "1+|z|^2", "--sweep", "1..1"],
    ["--potential", "1+|z|^2", "--sweep", "3..1"],
    ["--potential", "1+|z|^2", "--xi", "nan"],
    ["--potential", "1+|z|^2", "--xi", "1e-200"],
    ["--potential", "1+|z|^2", "--delta", "1/0"],
    ["--dimD", "-1", "--potential", "1+|z|^2"],
    ["--dimD", "0", "--potential", "1+|z|^2"],
    ["--potential", "1+|z|^2", "--sweep", "2000..2001"],
    ["--potential", "1+|z|^2", "--sweep", "1"],
])
def test_metric_bad_input_is_input_error(capsys, argv):
    code = main(["metric", "--delta", "1/2", *argv])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("input error:")


def test_metric_sweep_past_float_range_is_input_error(capsys):
    # at xi = 2^-400 the metric powers of |xi| overflow long before
    # 2^-2k underflows; the slopes would read nan
    code = main(["metric", "--delta", "1/2", "--potential", "1+|z|^2",
                 "--sweep", "400..401", "--format", "kv"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("input error: --sweep 400..401")
    assert "xi = 2^-400" in captured.err


@pytest.mark.parametrize("alpha", ["1/0", "x"])
def test_rate_bad_alpha_is_input_error(capsys, alpha):
    code = main(["rate", "--n", "3", "--alpha", alpha, "--abs-weight", "1"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("input error:")
    assert "--alpha" in captured.err


@pytest.mark.parametrize("param", ["alpha=1/0", "n=x"])
def test_bad_deck_param_is_input_error(capsys, tmp_path, param):
    deck = tmp_path / "bad.deck"
    deck.write_text("[defining]\nz1^3+z2^3+z3^3\n[perturbation]\nz1 ; e=1\n"
                    f"[params] n=2 alpha=2 {param}\n")
    code = main(["rate", "--input", str(deck)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("input error:")
    assert "at line 5" in captured.err


@pytest.mark.parametrize("old, new", [("compact=false", "compact=ture"),
                                      ("n=3", "n=3 n=5")])
def test_misread_deck_param_is_input_error(capsys, tmp_path, old, new):
    """A misspelt boolean or a repeated key in the cubic-cone deck's
    [params] is refused at its line, not run with a guessed value."""
    deck = tmp_path / "cubic.deck"
    deck.write_text(EXAMPLE_DECKS["cubic-cone"].replace(old, new))
    code = main(["rate", "--input", str(deck), "--format", "kv"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("input error:")
    assert "at line 5" in captured.err


@pytest.mark.parametrize("flags", [["--compact"], ["--n", "7"],
                                   ["--alpha", "5"], ["--abs-weight", "9"]])
@pytest.mark.parametrize("deck", [["--example", "cubic-cone"],
                                  ["--input", "DECK"]])
def test_rate_deck_with_rate_flags_is_input_error(capsys, tmp_path, deck,
                                                  flags):
    """A deck's [params] set n, alpha and compactness, and the weight comes
    from its perturbation: the direct-rate flags must not be ignored."""
    path = tmp_path / "cubic.deck"
    path.write_text(EXAMPLE_DECKS["cubic-cone"])
    deck = [str(path) if x == "DECK" else x for x in deck]
    code = main(["rate", *deck, *flags])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("input error:")


def test_cech_order_zero_is_input_error(capsys):
    """--order 0 is an order, not a missing option: normalize refuses it."""
    code = main(["cech", "--example", "p1p1-diagonal", "--order", "0"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("input error:")


@pytest.mark.parametrize("option, value", [
    ("--angular", "0"), ("--angular", "-2"), ("--angular", "15"),
    ("--R", "-0.3"), ("--R", "0"), ("--R", "inf"), ("--R", "nan"),
    ("--rings", "0"), ("--tol", "-1"), ("--tol", "0"), ("--tol", "nan"),
    ("--model", "const:nan"), ("--model", "const:inf"),
    ("--model", "power:0.05,nan"), ("--nu", "nan"), ("--eta", "nan")])
def test_dbar_bad_grid_input_is_input_error(capsys, option, value):
    argv = {"--nu": "0.0", "--R": "0.3", "--rings": "4", "--angular": "16",
            "--model": "const:0.1", option: value}
    code = main(["dbar", *(x for kv in argv.items() for x in kv)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("input error:")


def _digest_line(capsys, argv):
    code, out = run(capsys, *argv, "--format", "kv")
    assert code == 0
    return next(line for line in out.splitlines()
                if line.startswith("input_digest="))


@pytest.mark.parametrize("base, variants", [
    (["t1", "--example", "odp3"],
     [["--jmin", "-3", "--jmax", "0"], ["--jmin", "-2", "--jmax", "0"],
      ["--jmin", "-3", "--jmax", "1"]]),
    (["cech", "--example", "p1p1-diagonal"],
     [["--order", "1"], ["--order", "2"]]),
    (["metric", "--delta", "1", "--potential", "1+|z|^2"],
     [[], ["--sweep", "1..2"]]),
    (["rate", "--n", "3", "--alpha", "2", "--abs-weight", "1"],
     [[], ["--compact"]]),
])
def test_digest_covers_output_options(capsys, base, variants):
    """Runs that differ only in an option that changes the output get
    different digests."""
    digests = {_digest_line(capsys, base + v) for v in variants}
    assert len(digests) == len(variants)


DBAR_ZERO = ["dbar", "--nu", "0.0", "--R", "0.3", "--rings", "4",
             "--angular", "16", "--model", "const:0"]


@pytest.mark.parametrize("argv", [
    ["t1", "--input", "DIR"],
    ["t1", "--example", "odp3", "--output", "DIR"],
    [*DBAR_ZERO, "--report", "DIR"]], ids=["input", "output", "report"])
def test_unreadable_path_is_input_error(capsys, tmp_path, argv):
    """A directory given as a file is an input error naming it, not a
    traceback."""
    code = main([str(tmp_path) if x == "DIR" else x for x in argv])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("input error:")
    assert str(tmp_path) in captured.err


@pytest.mark.parametrize("path", ["DIR", "DIR/missing/report.txt"],
                         ids=["directory", "missing directory"])
def test_unwritable_report_fails_before_the_solve(capsys, monkeypatch,
                                                   tmp_path, path):
    """dbar --report to a path that cannot be written gives the input error
    that writing it gives, and never starts the solve."""
    monkeypatch.setattr(dbar, "solve_beltrami",
                        lambda *a, **kw: pytest.fail("the solve ran"))
    report = path.replace("DIR", str(tmp_path))
    with pytest.raises(OSError) as writing:
        open(report, "w", encoding="utf-8")
    code = main([*DBAR_ZERO, "--report", report])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == f"input error: {writing.value}\n"


@pytest.mark.parametrize("existing", [None, "an earlier report\n"])
def test_refused_dbar_leaves_the_report_path_as_it_was(capsys, tmp_path,
                                                       existing):
    report = tmp_path / "report.txt"
    if existing is not None:
        report.write_text(existing)
    code = main(["dbar", "--nu", "0.0", "--R", "0.4", "--rings", "4",
                 "--angular", "16", "--model", "const:0.9",
                 "--report", str(report)])
    assert code == 2
    if existing is None:
        assert not report.exists()
    else:
        assert report.read_text() == existing


@pytest.mark.parametrize("argv, engine", [
    (["t1", "--example", "odp3"], (cli, "t1_graded")),
    (DBAR_ZERO, (dbar, "solve_beltrami"))], ids=["t1", "dbar"])
def test_unwritable_output_fails_before_the_work(capsys, monkeypatch,
                                                 tmp_path, argv, engine):
    """--output naming a directory is an input error before the engine
    runs."""
    monkeypatch.setattr(*engine, lambda *a, **kw: pytest.fail("it ran"))
    code = main([*argv, "--output", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("input error:")
    assert str(tmp_path) in captured.err


@pytest.mark.parametrize("existing", [None, "an earlier output\n"])
def test_refused_run_leaves_the_output_path_as_it_was(capsys, tmp_path,
                                                      existing):
    output = tmp_path / "out.kv"
    if existing is not None:
        output.write_text(existing)
    code = main(["dbar", "--nu", "0.0", "--R", "0.4", "--rings", "4",
                 "--angular", "16", "--model", "const:0.9",
                 "--output", str(output)])
    assert code == 2
    if existing is None:
        assert not output.exists()
    else:
        assert output.read_text() == existing


def test_path_check_keeps_no_file_it_made(tmp_path, monkeypatch):
    """Where os.access refuses a directory that can be written after all,
    the file the check made is removed again."""
    monkeypatch.setattr(cli.os, "access", lambda *a: False)
    path = tmp_path / "new.kv"
    cli._check_writable(str(path))
    assert not path.exists()


def test_exact_subcommands_load_no_numpy(tmp_path):
    """t1, weight, rate and cech on built-in decks never load numpy or the
    numeric engines."""
    script = textwrap.dedent("""
        import sys
        from conedeform.cli import main
        numeric = {"numpy", "conedeform.dbar", "conedeform.cone_metric",
                   "conedeform.jets", "conedeform.fd"}
        assert not numeric & set(sys.modules), "import"
        for argv in (["t1", "--example", "odp3"],
                     ["weight", "--example", "cubic-cone"],
                     ["rate", "--example", "cubic-cone"],
                     ["cech", "--example", "p1p1-diagonal"]):
            assert main(argv + ["--output", "out.txt"]) == 0, argv
            assert not numeric & set(sys.modules), argv
    """)
    src = pathlib.Path(conedeform.__file__).resolve().parent.parent
    path = os.pathsep.join(filter(None, [str(src),
                                         os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script], cwd=tmp_path,
                          env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_main_builds_the_parser_once(capsys, monkeypatch):
    built = []
    init = cli._Parser.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "__init__", counting)
    cli.build_parser.cache_clear()
    argv = ["rate", "--n", "3", "--alpha", "2", "--abs-weight", "1"]
    assert main(argv) == 0
    first = len(built)
    assert main(argv) == 0 and main(["t1", "--example", "odp3"]) == 0
    assert first > 0 and len(built) == first


def test_settings_come_from_argv_alone(capsys, monkeypatch):
    """dbar's grid and tolerance defaults are the flag values 8, 64 and
    1e-10, and no environment variable moves a report."""
    dbar_argv = ["dbar", "--nu", "0.6", "--R", "0.4", "--model",
                 "power:0.05,0.8"]
    argvs = [["t1", "--example", "odp3"],
             ["metric", "--delta", "1/2", "--potential", "1+|z|^2"],
             dbar_argv]
    clean = [run(capsys, *argv, "--format", "kv") for argv in argvs]
    assert all(code == 0 for code, _ in clean)
    assert run(capsys, *dbar_argv, "--rings", "8", "--angular", "64",
               "--tol", "1e-10", "--format", "kv") == clean[-1]
    monkeypatch.setenv("CONEDEFORM_DBAR_ANGULAR", "6.5")
    monkeypatch.setenv("CONEDEFORM_FD_STEP", "nan")
    assert [run(capsys, *argv, "--format", "kv") for argv in argvs] == clean


# the engine call each module's refusals come from, as the CLI reads it:
# cech's through cli's import, the numeric engines' at call time
ENGINE_CALLS = {
    "cech": (cli, "normalize", ["cech", "--example", "p1p1-diagonal"]),
    "cone_metric": (cone_metric, "metric_at",
                    ["metric", "--delta", "1/2", "--potential", "1+|z|^2"]),
    "dbar": (dbar, "solve_beltrami", DBAR_ZERO),
}
REFUSALS = [cech.NotNormalizedError, cech.TruncationExhaustedError,
            cech.ParameterBudgetExhaustedError, cone_metric.NotNormalizedChart,
            dbar.QuadratureDivergence, dbar.PreconditionFailure,
            dbar.ContractionFailure]


@pytest.mark.parametrize("error", REFUSALS, ids=lambda e: e.__name__)
def test_every_refusal_exits_2(capsys, monkeypatch, error):
    """Each refusal class, raised from the engine call its subcommand
    makes, is a refusal (exit 2), not an input error."""
    def refuse(*args, **kwargs):
        raise error("planted refusal")

    owner, attr, argv = ENGINE_CALLS[error.__module__.rpartition(".")[2]]
    monkeypatch.setattr(owner, attr, refuse)
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "refused: planted refusal\n"


def test_refusals_keep_their_library_bases():
    """Library callers may still catch a refusal by its old base."""
    for error in (cone_metric.NotNormalizedChart, dbar.QuadratureDivergence):
        assert issubclass(error, ValueError)
    for error in (cech.NotNormalizedError, cech.TruncationExhaustedError,
                  cech.ParameterBudgetExhaustedError,
                  dbar.PreconditionFailure, dbar.ContractionFailure):
        assert issubclass(error, RuntimeError)
