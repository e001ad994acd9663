"""Golden values of every finite-difference check, captured before the
stencils moved into conedeform.fd.

FD-derived values must match bit for bit: the stencil layer evaluates the
same points with the same arithmetic.  Only the Christoffel and Riemann
contractions (einsum instead of loops, a different summation order) are
allowed 1e-13 absolute."""

import random
from fractions import Fraction

import numpy as np
import pytest

from conedeform.cone_metric import (Potential, christoffels_fd,
                                    curvature_check, fubini_study_potential,
                                    random_normalized_chart)
from conedeform.dbar import (HolderParams, PerturbationModel,
                             dbar_identity_defect, operator_identities_2var,
                             solve_beltrami)
from test_dbar import _fd_residual

CONTRACTION_TOL = 1e-13

CHR12 = [
    (-1.1289603010249667+0.24410602881991741j), 0j, 0j,
    (1.6555903744438116e-16+0j), 0j,
    (-0.4515841204046595+0.09764241153786103j),
    (-0.451584120412631+0.09764241153741844j), 0j,
]
CHR13 = [
    (-0.8987376077899263-0.3134063924349127j), 0j, 0j, 0j,
    (7.625709445670985e-17-1.143856416850648e-16j),
    (-1.3316241289147266e-21-1.1836658923686458e-21j),
    (-1.2709515742784974e-12+1.2709515742784974e-12j),
    (-1.1836658923686458e-21+2.959164730921615e-22j),
    (2.287712833701296e-16-1.143856416850648e-16j), 0j,
    (-0.2246844019497422-0.07835159811847817j), 0j,
    (-0.2246844019476747-0.07835159813428746j),
    (1.7271333100505177e-12-3.4542666201010354e-12j),
    (1.0053239006377515e-22-5.026619503188762e-23j),
    (-7.539929254783134e-23+1.7593168261160644e-22j),
    (5.181399930151553e-12-6.908533240202071e-12j),
    (1.7593168261160643e-21-1.3069210708290765e-21j), 0j, 0j,
    (-0.2246844019497422-0.07835159811847817j), (5.026619503188755e-23+0j),
    (-5.026619503188756e-22-8.545253155420884e-22j), 0j,
    (-0.2246844019476747-0.07835159813428749j),
    (1.0555900956696387e-21+1.1058562907015264e-21j),
    (1.3817066480404142e-11-1.2089933170353624e-11j),
]


@pytest.mark.parametrize("seed, dimD, want", [(12, 1, CHR12),
                                              (13, 2, CHR13)])
def test_christoffels_fd_golden(seed, dimD, want):
    chart = random_normalized_chart(random.Random(seed), dimD)
    got = christoffels_fd(chart, h=1e-5).ravel()
    assert np.abs(got - np.array(want)).max() <= CONTRACTION_TOL


NOT_CONVERGED = ("convergence not reached at step 0.2: defect {} vs {} at "
                 "step 0.8, truncation estimate {} above the error floor "
                 "1.000e-09; refine the step or the grid")
DEGENERATE = "base metric degenerate; checked pluriharmonicity of log g_00"

CURVATURE = {
    # name: (call, max_riemann, ricci_defect, converged, notes)
    "flat-riemann": (
        lambda: curvature_check(fubini_study_potential(1), 1, 2,
                                full_riemann=True),
        2.0104776916938675e-09, 5.08852375532002e-09, True, []),
    "einstein-diagnosed": (
        lambda: curvature_check(fubini_study_potential(1), Fraction(1, 2), 2,
                                diagnose_convergence=True),
        None, 4.662936706513797e-09, True, []),
    "einstein-coarse-plain": (
        lambda: curvature_check(fubini_study_potential(1), Fraction(1, 2), 2,
                                h=0.2, richardson=False,
                                diagnose_convergence=True),
        None, 0.12674047383435916, False,
        [NOT_CONVERGED.format("3.549e-02", "4.065e-01", "2.473e-02"),
         NOT_CONVERGED.format("1.705e-02", "2.048e-01", "1.252e-02"),
         NOT_CONVERGED.format("1.267e-01", "1.910e+00", "1.189e-01")]),
    "degenerate-base": (
        lambda: curvature_check(Potential.from_terms(1, {(0, 0): 2}),
                                Fraction(1, 3), 1, diagnose_convergence=True),
        None, 1.8209553871878033e-09, True, [DEGENERATE] * 3),
    "einstein-dim2-riemann": (
        lambda: curvature_check(fubini_study_potential(2), Fraction(1, 2), 3,
                                full_riemann=True),
        0.6151503159981372, 6.7723606200536044e-09, True, []),
}


@pytest.mark.parametrize("name", CURVATURE)
def test_curvature_check_golden(name):
    call, riemann, ricci, converged, notes = CURVATURE[name]
    rep = call()
    if riemann is None:
        assert rep.max_riemann is None
    else:
        assert abs(rep.max_riemann - riemann) <= CONTRACTION_TOL
    assert rep.ricci_defect == ricci
    assert rep.converged is converged
    assert rep.notes == notes


def test_beltrami_residual_golden():
    """The FD residual oracle (tests/test_dbar.py) on the final source."""
    model = PerturbationModel.power(0.05, 0.8)
    sol = solve_beltrami(model, HolderParams(0.5, 0.6), R=0.2, tol=1e-9,
                         rings=4, angular=16, radial=6, extra_rings=4)
    assert _fd_residual(model, sol.g_final, 4) == 2.4436448654505116e-08


def test_dbar_identity_defect_golden():
    fn = lambda z: np.conj(z) * np.exp(0.5 * z.real) + 0.3 * np.abs(z) ** 2
    assert dbar_identity_defect(fn, level=0) == 0.00030349782986537006


def test_operator_identities_2var_golden():
    rep = operator_identities_2var(resolution=16)
    assert rep.diag_defect == 0.019466351130187576
    assert rep.cross_defect == 5.64115299343527e-05
