"""Golden values of the Beltrami solve and the contraction study, captured
before the dbar engine moved to one Beltrami source, one ring-integral
pass per transform and grid tables built once per grid.

Every value must match bit for bit: the refactor evaluates the same
arithmetic in the same order.  `fd_residual` is the finite-difference
oracle's residual of the final source, the solve's residual before it was
read off the mode coefficients; `residual` is the solve's own."""

import pytest

from conedeform import dbar
from conedeform.dbar import (HolderParams, PerturbationModel,
                             contraction_study, solve_beltrami)
from test_dbar import _fd_residual

SOLVES = {
    # name: (model, params, iterations, increments, norm, fd_residual,
    #        residual)
    "power": (
        lambda: PerturbationModel.power(0.05, 0.8), HolderParams(0.5, 0.6), 6,
        ["0x1.e149e4a5b1e1ep-3", "0x1.b8290f682eb22p-8",
         "0x1.d66548caa9cfdp-16", "0x1.bc49a7ffb1871p-23",
         "0x1.821a4eddeaab0p-29", "0x1.4445396e27d29p-35"],
        "0x1.e1f701b0a98e8p-3", "0x1.a3d0a34380000p-26",
        "0x1.46564df600000p-28"),
    "constant": (
        lambda: PerturbationModel.constant(0.1), HolderParams(0.5, 0.0), 4,
        ["0x1.fb0ae1f25392ep-2", "0x1.8d64af8da4628p-13",
         "0x1.45cdd4418de3ap-24", "0x1.1d40c8ca8bc7ep-34"],
        "0x1.fb1e9f8014c23p-2", "0x1.53a3bcba00000p-25",
        "0x1.75d2f17600000p-25"),
}


def _solve(model, params, tol=1e-9):
    return solve_beltrami(model, params, R=0.2, tol=tol, rings=4,
                          angular=16, radial=6, extra_rings=4)


@pytest.mark.parametrize("name", SOLVES)
def test_solve_beltrami_golden(name):
    model, params, iterations, increments, norm, fd_residual, residual = \
        SOLVES[name]
    sol = _solve(model(), params)
    assert sol.iterations == iterations
    assert [x.hex() for x in sol.increments] == increments
    assert sol.norm.hex() == norm
    assert _fd_residual(model(), sol.g_final, 4).hex() == fd_residual
    assert sol.residual.hex() == residual


def test_contraction_study_golden():
    study = contraction_study(PerturbationModel.power(0.05, 0.8),
                              HolderParams(0.5, 0.6), [0.2], probes=2,
                              rings=4, angular=16, radial=6, seed=1)
    (row,) = study.rows
    assert row.R == 0.2
    assert row.j0_norm.hex() == "0x1.e14808e145268p-3"
    assert row.lipschitz.hex() == "0x1.8eb956167ca75p-7"


# The README dbar example (8 rings x 64 angles, radial 10, extra_rings 8)
# and a three-radius contraction study at 32 angles: bench-sized grids,
# captured before the Hoelder sups moved to one ring-0 pair-distance table.
README_SOLVE = (
    7, ["0x1.179433a03126cp-2", "0x1.2b04a297427a4p-4",
        "0x1.9d66472d793eap-14", "0x1.642e5cf64ac13p-20",
        "0x1.1333b5652a62bp-25", "0x1.92a99dd131a0dp-31",
        "0x1.405906d774631p-36"],
    "0x1.1841c387aab8ap-2", "0x1.df17a00000000p-39")

THREE_RADIUS_STUDY = [(0.4, "0x1.dbfe04f196f43p-3", "0x1.2daa001e93da4p-7"),
                (0.2, "0x1.82a0381cebb73p-3", "0x1.605f75a9d3747p-6"),
                (0.1, "0x1.3a09abd519ce7p-3", "0x1.1f80b40e63430p-8")]


def test_readme_solve_golden():
    sol = solve_beltrami(PerturbationModel.power(0.05, 0.8),
                         HolderParams(0.5, 0.6), R=0.4, tol=1e-10, rings=8,
                         angular=64)
    iterations, increments, norm, residual = README_SOLVE
    assert sol.iterations == iterations
    assert [x.hex() for x in sol.increments] == increments
    assert sol.norm.hex() == norm
    assert sol.residual.hex() == residual


def test_three_radius_contraction_study_golden():
    study = contraction_study(PerturbationModel.power(0.05, 0.8),
                              HolderParams(0.5, 0.5), [0.4, 0.2, 0.1],
                              probes=2, angular=32, seed=3)
    assert [(row.R, row.j0_norm.hex(), row.lipschitz.hex())
            for row in study.rows] == THREE_RADIUS_STUDY


@pytest.mark.parametrize("name", SOLVES)
def test_each_iteration_transforms_once(monkeypatch, name):
    """J[0] serves both the threshold check and iteration 1, so a solve of
    N iterations makes N transform_with_derivative calls."""
    calls = []
    transform = dbar.transform_with_derivative

    def counting(f):
        calls.append(f)
        return transform(f)

    monkeypatch.setattr(dbar, "transform_with_derivative", counting)
    model, params = SOLVES[name][:2]
    sol = _solve(model(), params)
    assert len(calls) == sol.iterations


def test_iteration_cap_still_checks_every_increment(monkeypatch):
    monkeypatch.setattr(dbar, "MAX_ITERATIONS", 3)
    model, params = SOLVES["power"][:2]
    sol = _solve(model(), params, tol=1e-300)
    assert sol.iterations == 3
    assert [x.hex() for x in sol.increments] == SOLVES["power"][3][:3]
