import pytest

from conedeform.cli import main


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


def test_env_override(capsys, monkeypatch):
    monkeypatch.setenv("CONEDEFORM_DBAR_ANGULAR", "16")
    from conedeform.cli import build_parser
    p = build_parser()
    args = p.parse_args(["dbar", "--nu", "0.0", "--R", "0.3",
                         "--model", "const:0"])
    assert args.angular == 16


@pytest.mark.parametrize("step", ["0", "nan", "-1e-5", "inf"])
def test_bad_fd_step_is_input_error(capsys, monkeypatch, step):
    monkeypatch.setenv("CONEDEFORM_FD_STEP", step)
    code = main(["metric", "--delta", "1/2", "--potential", "1+|z|^2"])
    captured = capsys.readouterr()
    assert code == 1
    assert "FD_christoffel_defect" not in captured.out
    assert captured.err.startswith("input error:")
    assert "finite-difference step" in captured.err


@pytest.mark.parametrize("name, raw", [("CONEDEFORM_DBAR_RINGS", "abc"),
                                       ("CONEDEFORM_DBAR_ANGULAR", "6.5"),
                                       ("CONEDEFORM_DBAR_TOL", "tiny")])
def test_malformed_env_override_is_input_error(capsys, monkeypatch, name,
                                               raw):
    # the dbar overrides are read while the parser is built, so every
    # subcommand meets them
    monkeypatch.setenv(name, raw)
    code = main(["t1", "--example", "odp3"])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("input error:") and name in err
