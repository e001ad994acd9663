import math

import numpy as np
import pytest

from conedeform import dbar, fd
from conedeform.dbar import (DiskField, DiskGrid,
                             HolderParams, PerturbationModel,
                             PreconditionFailure, QuadratureDivergence,
                             beltrami_residual, cauchy_transform,
                             contraction_study, dbar_identity_defect,
                             modified_transform, operator_identities_2var,
                             solve_beltrami, transform_at,
                             transform_with_derivative, weighted_norms,
                             weighted_sup)


def _grid(R=0.5, rings=6, angular=32, radial=8, **kw):
    return DiskGrid(R, rings, angular, radial, **kw)


# ---------------------------------------------------------------------------
# transforms


def test_transform_of_one_is_zbar():
    """Calibration fixing the sign/orientation convention: T(1) = conj(z)."""
    grid = _grid(rings=16, angular=32)
    one = DiskField.from_function(grid, lambda z: np.ones_like(z))
    T = cauchy_transform(one)
    nodes = grid.nodes()
    assert np.abs(T.values - np.conj(nodes)).max() < 2e-5
    Tm = modified_transform(one)
    assert np.abs(Tm.values - np.conj(nodes)).max() < 2e-5


def test_transform_of_zero():
    grid = _grid()
    z = DiskField.from_function(grid, lambda z: np.zeros_like(z))
    assert np.abs(modified_transform(z).values).max() == 0.0
    vals, dv = transform_with_derivative(z)
    assert np.abs(vals).max() == 0.0 and np.abs(dv).max() == 0.0
    pts = np.array([0.3 + 0.1j, grid.bounds[2][0] + 0j, 1e-4j])
    assert np.abs(transform_at(z, pts)).max() == 0.0


def test_transform_of_taubar():
    """T(conj(tau)) = conj(z)^2/2 (solves dbar u = conj(tau))."""
    grid = _grid(rings=14)
    f = DiskField.from_function(grid, np.conj)
    T = cauchy_transform(f)
    nodes = grid.nodes()
    assert np.abs(T.values - np.conj(nodes) ** 2 / 2).max() < 1e-6


def test_modified_transform_vanishes_at_origin():
    grid = _grid()
    f = DiskField.from_function(grid, lambda z: np.exp(z.real) + 1j)
    vals = transform_at(f, np.array([1e-9 + 0j]))
    assert abs(vals[0]) < 1e-6


def test_dbar_identity_fd():
    fn = lambda z: np.conj(z) * np.exp(0.5 * z.real) + 0.3 * np.abs(z) ** 2
    d = dbar_identity_defect(fn, level=1)
    assert d < 5e-4


def test_dbar_identity_refinement_order():
    fields = [
        lambda z: np.conj(z) * np.exp(0.5 * z.real),
        lambda z: np.abs(z) ** 2 + 0.3 * np.conj(z) ** 2,
        lambda z: np.exp(-np.abs(z - 0.2) ** 2 / 0.04) * (1 + np.conj(z)),
    ]
    for fn in fields:
        d0 = dbar_identity_defect(fn, level=0)
        d1 = dbar_identity_defect(fn, level=1)
        assert math.log(d0 / d1) / math.log(2) >= 1.8


def test_derivative_of_transform():
    """d/dz Ttilde(1) = 0 away from the truncation hole; against FD."""
    grid = _grid(rings=12, angular=32)
    fn = lambda z: np.conj(z) + 0.5 * np.abs(z) ** 2
    F = DiskField.from_function(grid, fn)
    vals, dv = transform_with_derivative(F)
    # compare with FD of the evaluated transform on the outer rings
    pts = grid.nodes()[:3].ravel()
    h = 1e-5 * np.abs(pts)
    st = np.concatenate([pts + h, pts - h, pts + 1j * h, pts - 1j * h])
    tv = transform_at(F, st).reshape(4, -1)
    dz_fd = 0.5 * ((tv[0] - tv[1]) / (2 * h) - 1j * (tv[2] - tv[3]) / (2 * h))
    assert np.abs(dz_fd - dv[:3].ravel()).max() < 1e-6


def _reference_coefficients(grid, V, pts):
    """Reference per-point transform: no grouping of equal radii, and every
    own-ring sub-rule on all modes.  Returns coeff[p, n] with
    Tf(pts[p]) = sum_n coeff[p, n] e^(i(n-1)phi)."""
    plan = dbar._plan(grid)
    G = dbar._modes(grid, V)
    n = plan.n
    absn = plan.absn
    neg = n <= 0
    pos = n >= 1
    expo = np.where(pos, n - 1, 0)
    J_in, J_out = dbar._ring_integrals(grid, plan, G)
    rho = np.abs(pts)
    coeff = np.zeros((len(pts), grid.angular), dtype=complex)
    for k in range(grid.nrings):
        lo, hi = grid.bounds[k]
        inside = rho >= hi
        outside = rho <= lo
        own = ~(inside | outside)
        if inside.any():
            fold = (hi / rho[inside, None]) ** absn[None, :] / rho[inside, None]
            coeff[inside, :] += 2.0 * fold * neg[None, :] * J_in[k, None, :]
        if outside.any():
            fold = (rho[outside, None] / lo) ** expo[None, :]
            coeff[outside, :] -= 2.0 * fold * pos[None, :] * J_out[k, None, :]
        if own.any():
            idx = np.where(own)[0]
            rt = rho[idx]
            x, w = plan.sub_x, plan.sub_w
            r1 = lo + (rt[:, None] - lo) * (x + 1) / 2
            w1 = (rt[:, None] - lo) * w / 2
            r2 = rt[:, None] + (hi - rt[:, None]) * (x + 1) / 2
            w2 = (hi - rt[:, None]) * w / 2
            E1 = dbar._bary_interp(grid.radii[k], plan.bary[k], r1)
            E2 = dbar._bary_interp(grid.radii[k], plan.bary[k], r2)
            gs1 = np.einsum("psi,im->psm", E1, G[k])
            gs2 = np.einsum("psi,im->psm", E2, G[k])
            fold1 = (w1 * r1)[..., None] * \
                (r1[..., None] / rt[:, None, None]) ** absn
            pin = np.einsum("psm,psm->pm", gs1, fold1 * neg) / rt[:, None]
            fold2 = w2[..., None] * (rt[:, None, None] / r2[..., None]) ** expo
            pout = np.einsum("psm,psm->pm", gs2, fold2 * pos)
            coeff[idx, :] += 2.0 * pin - 2.0 * pout
    return coeff


def _reference(grid, V, pts):
    """(Tf, d/dzeta Tf - e^(-2i phi) f, Tf(0)) from the reference."""
    pts = np.asarray(pts, dtype=complex).ravel()
    n = dbar._plan(grid).n
    coeff = _reference_coefficients(grid, V, pts)
    phase = np.exp(1j * np.outer(np.angle(pts), n - 1))
    vals = np.einsum("pm,pm->p", coeff, phase)
    dvals = np.einsum("pm,pm->p", coeff * (n - 1) / np.abs(pts)[:, None],
                      phase) / pts * np.abs(pts)
    _, J_out = dbar._ring_integrals(grid, dbar._plan(grid), dbar._modes(grid, V))
    return vals, dvals, -2.0 * J_out[:, n == 1].sum()


def _close(got, want, rel=1e-13):
    return np.abs(got - want).max() <= rel * np.abs(want).max()


@pytest.mark.parametrize("puncture", [True, False])
def test_kernel_matches_per_point_reference(puncture):
    """The radius-grouped kernel reproduces the per-point path at the grid
    nodes (values and d/dzeta), random points, ring bounds and points in
    the truncation hole."""
    grid = _grid(rings=6, angular=32, radial=8, puncture=puncture)
    fn = lambda z: np.conj(z) * np.exp(0.5 * z.real) + 0.3j * z ** 3
    F = DiskField.from_function(grid, fn)
    nodes = grid.nodes()
    ref, dref, t0 = _reference(grid, F.values, nodes)
    assert _close(cauchy_transform(F).values.ravel(), ref)
    vals, dv = transform_with_derivative(F)
    assert _close(vals.ravel(), ref - t0)
    assert _close(dv.ravel(), dref + np.exp(-2j * np.angle(nodes.ravel()))
                  * F.values.ravel())
    rng = np.random.default_rng(7)
    phis = rng.uniform(0, 2 * np.pi, 600)
    radii = np.concatenate([
        grid.R * np.sqrt(rng.uniform(0, 1.2, 400)),            # interior
        [b for lo_hi in grid.bounds for b in lo_hi if b > 0],  # lo and hi
        grid.R * 2.0 ** -grid.rings * rng.uniform(0.01, 1, 20)])  # the hole
    pts = radii * np.exp(1j * phis[:len(radii)])
    pts = np.concatenate([pts, -pts])       # shared radii, other phases
    ref, _, t0 = _reference(grid, F.values, pts)
    assert _close(transform_at(F, pts, modified=False), ref)
    assert _close(transform_at(F, pts), ref - t0)


@pytest.mark.parametrize("k", [1, 5, 11])
def test_transforms_commute_with_grid_rotations(k):
    """For the rotation R by theta = 2 pi k / M, which maps the grid to
    itself, T[f o R](zeta) = e^(i theta) (Tf)(R zeta), for the modified
    transform too; the weighted norm does not change."""
    grid = _grid(rings=6, angular=32, radial=6)
    F = DiskField.from_function(
        grid, lambda z: np.conj(z) * np.exp(0.5 * z.real) + 0.3j * z ** 3)
    rotated = DiskField(grid, np.roll(F.values, -k, axis=-1))
    phase = np.exp(2j * np.pi * k / grid.angular)
    for transform in (cauchy_transform, modified_transform):
        want = phase * np.roll(transform(F).values, -k, axis=-1)
        assert _close(transform(rotated).values, want, rel=1e-12)
    p = HolderParams(0.5, 0.3)
    assert math.isclose(weighted_norms(rotated, p).total,
                        weighted_norms(F, p).total, rel_tol=1e-12)


def test_quadrature_divergence_flag():
    grid = _grid()
    f = DiskField.from_function(grid, np.conj, eta=-1.2)
    with pytest.raises(QuadratureDivergence):
        cauchy_transform(f)


def _midpoint_transform(grid, fn):
    """(nodes, Tf) by the polar midpoint rule on the annuli of `grid`:
    `radial` equal radial cells per ring and angles 2 pi (k + 1/2) / M.
    The singular cell is replaced by the exact integral over the
    equal-area disk centered at the node, which is 0."""
    lo, hi = np.array(grid.bounds).T
    edges = np.linspace(lo, hi, grid.radial + 1, axis=-1)
    radii = ((edges[:, :-1] + edges[:, 1:]) / 2)[:, :, None]
    thetas = 2 * np.pi * (np.arange(grid.angular) + 0.5) / grid.angular
    nodes = radii * np.exp(1j * thetas[None, None, :])
    w = np.diff(edges)[:, :, None] * (2 * np.pi / grid.angular) * radii
    w = np.broadcast_to(w, nodes.shape).ravel()
    pts = nodes.ravel()
    src = w * np.asarray(fn(nodes), dtype=complex).ravel()
    out = np.empty_like(pts)
    chunk = 512
    for i0 in range(0, len(pts), chunk):
        diff = pts[i0:i0 + chunk, None] - pts[None, :]
        ker = np.where(diff == 0, 0.0, 1.0 / np.where(diff == 0, 1.0, diff))
        out[i0:i0 + chunk] = (ker * src[None, :]).sum(axis=1) / np.pi
    return nodes, out.reshape(nodes.shape)


def test_midpoint_matches_fourier_on_smooth_bump():
    """Polar midpoint with the exact (zero) singular-cell integral refines
    at order about 2 against the angular-exact scheme."""
    R = 0.5
    bump = lambda z: np.exp(-np.abs(z - 0.3) ** 2 / 0.02) * (1 + np.conj(z))
    ref_grid = DiskGrid(R, 6, 128, 12)
    ref_field = DiskField.from_function(ref_grid, bump)
    errs = []
    for mult in (1, 2, 4):
        nodes, T = _midpoint_transform(DiskGrid(R, 6, 16 * mult, 4 * mult),
                                       bump)
        ref = transform_at(ref_field, nodes.ravel(),
                           modified=False).reshape(nodes.shape)
        errs.append(np.abs(T - ref).max())
    order1 = math.log(errs[0] / errs[1]) / math.log(2)
    order2 = math.log(errs[1] / errs[2]) / math.log(2)
    assert order1 > 1.5 and order2 > 1.5


def test_disk_grid_needs_a_radial_node():
    # R, rings, angular and tol are checked through the CLI in test_cli
    with pytest.raises(ValueError, match="radial"):
        DiskGrid(0.5, 4, 16, 0)


@pytest.mark.parametrize("args, name", [
    ((0.2, 4.7, 16, 6), "rings"), ((0.2, 4, 16.5, 6), "angular"),
    ((0.2, 4, 16, 6.9), "radial"), ((0.2, 4.7, 16, 6.9), "rings"),
    ((0.2, "4", 16, 6), "rings"), ((0.2, 4, 16, math.nan), "radial")])
def test_disk_grid_refuses_fractional_counts(args, name):
    """A fractional count was truncated: (0.2, 4.7, 16, 6.9) gave 4 rings
    of 6 radial nodes."""
    with pytest.raises(ValueError, match=f"^{name} must be a whole number"):
        DiskGrid(*args)


def test_disk_grid_takes_numpy_and_whole_float_counts():
    want = DiskGrid(0.2, 4, 16, 6)
    for args in [(np.float64(0.2), np.int64(4), np.int32(16), np.uint8(6)),
                 (0.2, 4.0, np.float64(16.0), 6)]:
        grid = DiskGrid(*args)
        assert (grid.rings, grid.angular, grid.radial) == (4, 16, 6)
        assert all(type(n) is int
                   for n in (grid.rings, grid.angular, grid.radial))
        assert grid.radii.tobytes() == want.radii.tobytes()


# ---------------------------------------------------------------------------
# weighted norms


def test_weighted_norm_quadratic_outer_dominated():
    """w = zeta^2 with nu = 1: the ring bracket scales like 4s, so the
    outermost annulus dominates."""
    grid = _grid()
    W = DiskField.from_function(grid, lambda z: z ** 2)
    rep = weighted_norms(W, HolderParams(0.5, 1.0))
    weighted = [r["weighted"] for r in rep.per_ring]
    assert rep.total < math.inf
    assert weighted[0] == max(weighted)
    sups = [r["sup"] / r["s"] for r in rep.per_ring]
    assert sups[0] == max(sups)


def test_weighted_norm_zero():
    grid = _grid()
    W = DiskField.from_function(grid, lambda z: np.zeros_like(z))
    rep = weighted_norms(W, HolderParams(0.5, 0.7))
    assert rep.total == 0.0


@pytest.mark.parametrize("where", ["all", "one node"])
def test_weighted_norm_of_nan_field_is_nan(where):
    """A NaN must not fold away in the max over rings: it would read as
    norm 0 and end a solve as converged."""
    grid = _grid()
    V = grid.nodes() ** 2
    if where == "all":
        V[:] = np.nan
    else:
        V[2, 3, 5] = np.nan
    rep = weighted_norms(DiskField(grid, V), HolderParams(0.5, 0.7))
    assert math.isnan(rep.total)


def test_weighted_norm_power_sup_window():
    grid = _grid()
    nu = 0.7
    W = DiskField.from_function(grid, lambda z: np.abs(z) ** nu + 0j)
    rep = weighted_norms(W, HolderParams(0.5, nu))
    assert 1.0 <= rep.sup_part <= 2 ** nu + 1e-9


def test_holder_sup_is_exact_on_large_annulus():
    """More nodes than the former 4096-node subsample: a spike on a node
    the subsample skipped must set the Hoelder sup, which equals the
    brute-force max over all pairs."""
    grid = DiskGrid(0.5, 1, 520, 8)
    pts = grid.nodes()[0].ravel()
    N = len(pts)
    skipped = np.setdiff1d(np.arange(N),
                           np.linspace(0, N - 1, 4096).astype(int))
    spike = skipped[len(skipped) // 2]
    vals = pts ** 2
    vals[spike] += 0.2
    alpha = 0.5
    brute = 0.0
    for i in range(N):
        dp = np.abs(pts[i] - pts)
        dv = np.abs(vals[i] - vals)
        live = dp > 0
        brute = max(brute, float((dv[live] / dp[live] ** alpha).max()))
    F = DiskField(grid, vals.reshape(grid.shape()))
    rep = weighted_norms(F, HolderParams(alpha, 0.0))
    assert rep.per_ring[0]["holder"] == brute
    # the spike is what sets it: without it the sup is far smaller
    F0 = DiskField(grid, (pts ** 2).reshape(grid.shape()))
    smooth = weighted_norms(F0, HolderParams(alpha, 0.0)).per_ring[0]["holder"]
    assert brute > 2 * smooth


def _brute_holder_sups(pts, fields, alpha):
    """Exact max over point pairs of |v_i - v_j| / |p_i - p_j|^alpha for each
    field v, coincident points skipped.  |p_i - p_j|^alpha is computed once
    per block of rows against the columns j >= the block start (the upper
    triangle) and shared by the fields, so memory is O(len(pts))."""
    rows = 64
    sups = [0.0] * len(fields)
    for i0 in range(0, len(pts), rows):
        dp = np.abs(pts[i0:i0 + rows, None] - pts[None, i0:])
        dpa = dp ** alpha
        live = dp > 0
        for j, v in enumerate(fields):
            dv = np.abs(v[i0:i0 + rows, None] - v[None, i0:])
            q = np.divide(dv, dpa, out=np.zeros_like(dv), where=live)
            sups[j] = float(np.maximum(sups[j], q.max()))
    return sups


def _spike(z):
    out = np.zeros_like(z)
    out.flat[z.size // 3 + 5] = 1.0
    return out


def _with_node(value):
    def field(z):
        out = z ** 2
        out.flat[z.size // 2 + 7] = value
        return out
    return field


def _with_two_infs(z):
    out = z ** 2
    out.flat[[3, z.size // 2 + 7]] = np.inf
    return out


def _random(z):
    rng = np.random.default_rng(z.size)
    return rng.normal(size=z.shape) + 1j * rng.normal(size=z.shape)


HOLDER_FIELDS = {
    "random": _random,
    "zeta^2": lambda z: z ** 2,
    "conj zeta |zeta|^0.8": lambda z: np.conj(z) * np.abs(z) ** 0.8,
    "spike": _spike,
    "nan": _with_node(np.nan),
    "inf": _with_node(np.inf),
    "-inf": _with_node(-np.inf),
    "two infs": _with_two_infs,
}


@pytest.mark.parametrize("shape", [
    (1, 16, 6, True), (8, 16, 10, True), (3, 48, 7, True),
    (2, 128, 6, True), (5, 32, 8, False)], ids=str)
@pytest.mark.parametrize("name", HOLDER_FIELDS)
def test_holder_sups_match_brute_force_oracle(shape, name):
    """Each ring's holder and dholder from the ring-0 pair-distance table
    equal the brute-force oracle's on that ring's own nodes, bit for bit,
    NaN and inf included; a center piece stays out of the norm."""
    rings, angular, radial, puncture = shape
    for R in (0.2731, 1e-3, 7.5):
        grid = DiskGrid(R, rings, angular, radial, puncture=puncture)
        V = HOLDER_FIELDS[name](grid.nodes())
        dz, dzb = dbar._ring_derivatives(grid, V)
        nodes = grid.nodes()
        for alpha in (0.2, 0.5, 0.9):
            rep = weighted_norms(DiskField(grid, V), HolderParams(alpha, 0.3))
            assert len(rep.per_ring) == rings
            for k, ring in enumerate(rep.per_ring):
                hol, holz, holzb = _brute_holder_sups(
                    nodes[k].ravel(),
                    (V[k].ravel(), dz[k].ravel(), dzb[k].ravel()), alpha)
                assert ring["holder"].hex() == hol.hex()
                assert ring["dholder"].hex() == max(holz, holzb).hex()


def _holder_sups(pts, fields, alpha, scale=1.0):
    """dbar._holder_sups on the pair table of `pts`, as weighted_norms
    calls it, with the screen table for alpha (None where it is refused)."""
    pairs = dbar._pair_distances(pts)
    return dbar._holder_sups(pairs, dbar._screen_table(pairs, alpha), scale,
                             np.stack(fields), alpha)


def _ring0(R):
    return DiskGrid(R, 1, 32, 6).nodes()[0].ravel()


def _noise(n, seed):
    rng = np.random.default_rng(seed)
    return rng.normal(size=n) + 1j * rng.normal(size=n)


def _one_ulp(n):
    v = np.full(n, 1.0 + 0.5j)
    v[17] = np.nextafter(1.0, 2.0) + 0.5j
    return v


def _tied_line():
    """Points 0..63 on a line and a field with |dv| / d = 1 exactly at
    (0, 1), in row block 0, and at (39, 40) and (40, 41), in row block 2;
    every other pair is below."""
    v = np.zeros(64, dtype=complex)
    v[[0, 40]] = 1.0
    return np.arange(64.0).astype(complex), v


ADVERSARIAL_FIELDS = {
    "large mean": lambda pts: 1e6 + 1e-9 * _noise(len(pts), 1),
    "one ulp off constant": lambda pts: _one_ulp(len(pts)),
    "tiny": lambda pts: 1e-300 * _noise(len(pts), 2),
    "huge": lambda pts: 1e300 * _noise(len(pts), 3),
    "smooth": lambda pts: np.conj(pts) * pts ** 2 / np.abs(pts).max() ** 3,
}


@pytest.mark.parametrize("alpha", [0.01, 0.5, 0.99])
@pytest.mark.parametrize("name", ADVERSARIAL_FIELDS)
@pytest.mark.parametrize("R", [0.37, 1e-30, 1e30, 1e33])
def test_holder_sups_match_oracle_on_adversarial_fields(R, name, alpha):
    """The screened sups equal the brute-force oracle's bit for bit on
    fields that stress the screen: a mean far above the spread, a
    constant moved by one ULP, magnitudes near the float64 limits, and
    radii where d^-alpha leaves the screen's range at alpha = 0.99 (R =
    1e-30 and 1e33), so that every block is evaluated in float64."""
    pts = _ring0(R)
    v = ADVERSARIAL_FIELDS[name](pts)
    fields = (v, v * 1j + 2.0, np.conj(v))
    got = _holder_sups(pts, fields, alpha)
    want = _brute_holder_sups(pts, fields, alpha)
    assert [x.hex() for x in got] == [x.hex() for x in want]
    scale = 2.0 ** -5
    got = _holder_sups(pts, fields, alpha, scale)
    want = _brute_holder_sups(pts * scale, fields, alpha)
    assert [x.hex() for x in got] == [x.hex() for x in want]


@pytest.mark.parametrize("alpha", [0.01, 0.5, 0.99])
def test_holder_sups_find_maxima_tied_across_blocks(alpha):
    pts, v = _tied_line()
    fields = (v, 3.0 * v, np.zeros_like(v) + 1j)
    got = _holder_sups(pts, fields, alpha)
    assert got == _brute_holder_sups(pts, fields, alpha) == [1.0, 3.0, 0.0]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(1, np.nan)])
def test_holder_sups_screen_the_finite_fields_beside_a_bad_one(bad):
    """One non-finite field among three: it takes every block in float64
    (its sup is NaN or inf, as the oracle's), the other two are screened."""
    pts = _ring0(0.37)
    smooth = np.conj(pts) * pts ** 2
    broken = smooth.copy()
    broken[40] = bad
    fields = (smooth, broken, 1e6 + 1e-9 * _noise(len(pts), 4))
    for alpha in (0.01, 0.5, 0.99):
        got = _holder_sups(pts, fields, alpha)
        want = _brute_holder_sups(pts, fields, alpha)
        assert [x.hex() for x in got] == [x.hex() for x in want]


def _count_exact_blocks(monkeypatch):
    visits = []
    exact = dbar._block_sups

    def counting(fields, block, scale, alpha):
        visits.append(len(fields))
        return exact(fields, block, scale, alpha)

    monkeypatch.setattr(dbar, "_block_sups", counting)
    return visits


def test_holder_sups_skip_the_screen_where_its_bounds_do_not_hold(
        monkeypatch):
    """Every block is evaluated in float64 for a constant field, sigma
    below 2^-900, weights d^-alpha outside [2^-100, 2^100], and a scale
    that makes scale * d subnormal; the screen takes a field one ULP off
    a constant."""
    visits = _count_exact_blocks(monkeypatch)
    pts = _ring0(0.37)
    nblocks = len(dbar._pair_distances(pts))
    cases = [(pts, np.full(len(pts), 2.0 - 1j), 0.5, 1.0),
             (pts, 1e-300 * _noise(len(pts), 5), 0.5, 1.0),
             (_ring0(1e-30), _noise(len(pts), 6), 0.99, 1.0),
             (_ring0(1e33), _noise(len(pts), 7), 0.99, 1.0),
             (_ring0(1e-300), _noise(len(pts), 8), 0.01, 2.0 ** -40)]
    for where, v, alpha, scale in cases:
        visits.clear()
        _holder_sups(where, (v,), alpha, scale)
        assert visits == [1] * nblocks
    visits.clear()
    _holder_sups(pts, (_one_ulp(len(pts)),), 0.5)
    assert 0 < sum(visits) < nblocks


def test_screen_leaves_few_blocks_to_float64(monkeypatch):
    """On a smooth field of an 8 x 64 x 10 grid (40 row blocks a ring), the
    float64 quotient is formed on at most 15 of the 120 (block, field)
    pairs of each ring: the screen is what makes the sups cheap."""
    visits = _count_exact_blocks(monkeypatch)
    calls = []
    holder_sups = dbar._holder_sups

    def per_call(*args):
        visits.clear()
        out = holder_sups(*args)
        calls.append(sum(visits))
        return out

    monkeypatch.setattr(dbar, "_holder_sups", per_call)
    grid = DiskGrid(0.3, 8, 64, 10)
    F = DiskField.from_function(grid, lambda z: np.conj(z) * z ** 2
                                + 0.1 * np.exp(z))
    for alpha in (0.2, 0.5, 0.9):
        weighted_norms(F, HolderParams(alpha, 0.5))
    assert len(calls) == 24 and 0 < max(calls) <= 15, calls


@pytest.mark.parametrize("shape", [(8, 64, 10), (6, 48, 7), (4, 16, 6),
                                   (3, 128, 9)], ids=str)
def test_rings_are_ring_zero_scaled_bitwise(shape):
    """The invariant the pair-distance table rests on: ring k's nodes, and
    their pair distances, are ring 0's times 2^-k, bit for bit."""
    rng = np.random.default_rng(sum(shape))
    for R in np.exp(rng.uniform(np.log(1e-4), np.log(20.0), size=4)):
        grid = DiskGrid(R, *shape)
        nodes = grid.nodes().reshape(grid.nrings, -1)
        dist0 = np.abs(nodes[0][:, None] - nodes[0][None, :])
        table0 = dbar._pair_distances(nodes[0])
        for k in range(grid.nrings):
            assert np.array_equal(nodes[k], nodes[0] * 2.0 ** -k)
            dist = np.abs(nodes[k][:, None] - nodes[k][None, :])
            assert np.array_equal(dist, dist0 * 2.0 ** -k)
            for (_, d, _), (_, d0, _) in zip(dbar._pair_distances(nodes[k]),
                                             table0):
                assert np.array_equal(d, d0 * 2.0 ** -k)


def _count_pair_tables(monkeypatch):
    built = []
    make = dbar._pair_distances

    def counting(pts):
        built.append(len(pts))
        return make(pts)

    monkeypatch.setattr(dbar, "_pair_distances", counting)
    return built


def test_solve_builds_the_pair_table_once(monkeypatch):
    """The increments and the final norm share the declared grid, so one
    solve builds one ring-0 table, of one ring's nodes."""
    built = _count_pair_tables(monkeypatch)
    sol = solve_beltrami(PerturbationModel.power(0.05, 0.8),
                         HolderParams(0.5, 0.6), R=0.2, tol=1e-9, rings=4,
                         angular=16, radial=6, extra_rings=4)
    assert sol.iterations > 1
    assert built == [16 * 6]


def test_contraction_study_builds_one_pair_table_per_radius(monkeypatch):
    built = _count_pair_tables(monkeypatch)
    contraction_study(PerturbationModel.power(0.05, 0.8),
                      HolderParams(0.5, 0.6), [0.4, 0.2, 0.1], probes=2,
                      rings=4, angular=16, radial=6)
    assert built == [16 * 6] * 3


def test_weighted_norms_reads_no_nodes_once_the_table_exists(monkeypatch):
    """Past the first call, weighted_norms forms no node pair differences:
    it never reads the nodes, and builds no second table."""
    grid = _grid()
    F = DiskField.from_function(grid, lambda z: np.conj(z) * z ** 2)
    p = HolderParams(0.5, 0.7)
    first = weighted_norms(F, p)
    built = _count_pair_tables(monkeypatch)
    monkeypatch.setattr(DiskGrid, "nodes",
                        lambda self: pytest.fail("weighted_norms read nodes"))
    assert weighted_norms(F, p) == first
    assert built == []


def test_a_new_alpha_builds_its_screen_from_the_pair_table(monkeypatch):
    """The screen's table of d^-alpha comes from the pair table: a second
    alpha on the same grid reads no nodes and gives the norms of a fresh
    grid."""
    grid = _grid()
    F = DiskField.from_function(grid, lambda z: np.conj(z) * z ** 2)
    weighted_norms(F, HolderParams(0.5, 0.7))
    fresh = DiskField(_grid(), F.values)
    want = weighted_norms(fresh, HolderParams(0.3, 0.7))
    monkeypatch.setattr(DiskGrid, "nodes",
                        lambda self: pytest.fail("weighted_norms read nodes"))
    assert weighted_norms(F, HolderParams(0.3, 0.7)) == want


def _weighted_bound_ratio(f: DiskField, nu: float) -> float:
    """Measured constant in ||rho^-nu Ttilde f|| <= C ||rho^(1-nu) f||."""
    return weighted_sup(modified_transform(f), nu) / weighted_sup(f, nu - 1)


def test_weighted_bound_stability():
    """The measured constant in the weighted sup bound is stable across a
    grid refinement (within 15 percent) for each weight."""
    rng = np.random.default_rng(3)
    profiles = []
    for _ in range(8):
        p = rng.uniform(0.7, 1.8)
        m = int(rng.integers(-2, 3))
        c = complex(rng.normal(), rng.normal())
        profiles.append((p, m, c))

    def measure(grid):
        out = {}
        for nu in (0.2, 0.5, 0.8, 1.3):
            ratios = []
            for p, m, c in profiles:
                fn = lambda z, p=p, m=m, c=c: \
                    c * np.abs(z) ** p * np.exp(1j * m * np.angle(z))
                F = DiskField.from_function(grid, fn, p)
                ratios.append(_weighted_bound_ratio(F, nu))
            out[nu] = max(ratios)
        return out

    coarse = measure(_grid(rings=8, angular=32, radial=8))
    fine = measure(_grid(rings=8, angular=64, radial=12))
    for nu in coarse:
        assert abs(fine[nu] - coarse[nu]) <= 0.15 * max(fine[nu], coarse[nu])


# ---------------------------------------------------------------------------
# Beltrami solver


def test_beltrami_zero_model():
    model = PerturbationModel.constant(0.0)
    sol = solve_beltrami(model, HolderParams(0.5, 0.0), R=0.3, rings=4,
                         angular=16, radial=6, extra_rings=4)
    assert np.abs(sol.z_field.values).max() == 0.0
    assert sol.residual < 1e-14


def test_beltrami_constant_model_exact():
    c = 0.04 + 0.02j
    model = PerturbationModel.constant(c)
    sol = solve_beltrami(model, HolderParams(0.5, 0.0), R=0.4, tol=1e-12,
                         rings=6, angular=32, radial=8, extra_rings=9)
    nodes = sol.z_field.grid.nodes()
    assert np.abs(sol.z_field.values - (-c) * np.conj(nodes)).max() < 1e-8
    assert sol.iterations <= 2 + 1
    assert sol.residual < 1e-8


def test_beltrami_power_model():
    model = PerturbationModel.power(0.05, 0.8)
    sol = solve_beltrami(model, HolderParams(0.5, 0.6), R=0.2, tol=1e-9,
                         rings=6, angular=32, radial=8, extra_rings=6)
    assert sol.residual < 1e-6
    slope = sol.z_field.measured_decay()
    assert slope >= 1 + 0.6 - 0.05


def test_beltrami_builds_three_grids(monkeypatch):
    """The source grid, the declared-rings grid (shared by J[0], every
    increment and the final norm) and the verification grid."""
    built = []
    init = DiskGrid.__init__

    def counting(self, *args, **kw):
        built.append(args)
        init(self, *args, **kw)

    monkeypatch.setattr(DiskGrid, "__init__", counting)
    model = PerturbationModel.power(0.05, 0.8)
    sol = solve_beltrami(model, HolderParams(0.5, 0.6), R=0.2, tol=1e-9,
                         rings=4, angular=16, radial=6, extra_rings=4)
    assert sol.iterations > 1
    assert len(built) == 3


def test_beltrami_precondition_refusal():
    model = PerturbationModel.constant(0.9)
    with pytest.raises(PreconditionFailure):
        solve_beltrami(model, HolderParams(0.5, 0.0), R=0.4, rings=4,
                       angular=16, radial=6, extra_rings=4)


def test_beltrami_rejects_bad_weight():
    model = PerturbationModel.power(0.05, 0.8)
    with pytest.raises(ValueError):
        solve_beltrami(model, HolderParams(0.5, 0.9), R=0.2)


@pytest.mark.parametrize("make", [
    lambda: PerturbationModel.constant(complex("nan")),
    lambda: PerturbationModel.constant(math.inf),
    lambda: PerturbationModel.power(0.05, math.nan),
    lambda: PerturbationModel.power(math.inf, 0.8),
    lambda: HolderParams(0.5, math.nan),
    lambda: HolderParams(0.5, -math.inf)])
def test_nonfinite_model_or_weight_is_rejected(make):
    with pytest.raises(ValueError, match="finite"):
        make()


def test_beltrami_rejects_nan_model():
    model = PerturbationModel(lambda z: np.full_like(z, np.nan), 0.0, 0.1)
    with pytest.raises(ValueError, match="not finite"):
        model.validate_on(_grid())
    with pytest.raises(ValueError, match="not finite"):
        solve_beltrami(model, HolderParams(0.5, 0.0), R=0.3, rings=4,
                       angular=16, radial=6, extra_rings=4)


def test_beltrami_nan_j0_is_precondition_failure(monkeypatch):
    monkeypatch.setattr(dbar, "weighted_sup", lambda f, w: math.nan)
    with pytest.raises(PreconditionFailure):
        solve_beltrami(PerturbationModel.constant(0.01),
                       HolderParams(0.5, 0.0), R=0.3, rings=4, angular=16,
                       radial=6, extra_rings=4)


def test_beltrami_nonfinite_increment_is_contraction_failure():
    # finite on the grid, so it passes validate_on; NaN at the points
    # zeta + zfrak that the first iterate moves past |zeta| = 0.3
    model = PerturbationModel(
        lambda z: np.where(np.abs(z) < 0.3, 0.1 + 0j, np.nan), 0.0, 0.1)
    with pytest.raises(dbar.ContractionFailure, match="not finite"):
        solve_beltrami(model, HolderParams(0.5, 0.0), R=0.3, rings=4,
                       angular=16, radial=6, extra_rings=4)


def test_contraction_study_constant_model():
    model = PerturbationModel.constant(0.03)
    st = contraction_study(model, HolderParams(0.5, 0.0), [0.4, 0.2],
                           probes=1, rings=5, angular=16, radial=6)
    j0 = [r.j0_norm for r in st.rows]
    assert abs(j0[0] - j0[1]) <= 0.2 * max(j0)


def test_contraction_study_power_model_slope():
    model = PerturbationModel.power(0.05, 0.8)
    st = contraction_study(model, HolderParams(0.5, 0.6), [0.4, 0.2, 0.1],
                           probes=1, rings=6, angular=32, radial=8)
    assert abs(st.j0_slope - 0.2) <= 0.1
    assert st.lipschitz_slope >= 0.8 - 0.1


def test_determinism():
    model = PerturbationModel.power(0.05, 0.8)
    st1 = contraction_study(model, HolderParams(0.5, 0.6), [0.2], probes=2,
                            rings=5, angular=16, radial=6, seed=4)
    st2 = contraction_study(model, HolderParams(0.5, 0.6), [0.2], probes=2,
                            rings=5, angular=16, radial=6, seed=4)
    assert st1.rows[0].j0_norm == st2.rows[0].j0_norm
    assert st1.rows[0].lipschitz == st2.rows[0].lipschitz


def test_puncture_continuity_of_solution():
    """The solved correction extends continuously by 0 at the puncture and
    stays Hoelder-bounded across it."""
    model = PerturbationModel.power(0.05, 0.8)
    sol = solve_beltrami(model, HolderParams(0.5, 0.6), R=0.2, tol=1e-9,
                         rings=6, angular=32, radial=8, extra_rings=6)
    per_ring_sup = np.max(np.abs(sol.z_field.values), axis=(1, 2))
    assert per_ring_sup[-1] < per_ring_sup[0]
    assert per_ring_sup[-1] < 1e-4
    # Hoelder quotient across the puncture: |z(x) - 0| / |x|^alpha finite
    r = sol.z_field.grid.radii[-1].min()
    assert per_ring_sup[-1] / r ** 0.5 < 1.0


# ---------------------------------------------------------------------------
# two-variable identities


def test_operator_identities_smooth_fields():
    rep = operator_identities_2var(resolution=16)
    assert rep.diag_defect < 5e-2
    assert rep.cross_defect < 1e-3


def test_operator_identities_zero_field():
    rep = operator_identities_2var(resolution=16,
                                   fields=[lambda z1, z2: np.zeros_like(z1 * z2)])
    assert rep.diag_defect == 0.0
    assert rep.cross_defect == 0.0


def test_operator_identity_bump_field():
    R = 0.8
    bump = lambda z1, z2: np.exp(-np.abs(z1 - 0.4 * R) ** 2 / (0.3 * R) ** 2) \
        * (1.0 + 0.3 * np.conj(z2))
    rep = operator_identities_2var(resolution=32, fields=[bump])
    assert rep.cross_defect < 1e-4


def test_residual_tracks_tolerance():
    """Converged solves meet residual < 10*tol for tolerances above the
    discretization floor."""
    model = PerturbationModel.power(0.05, 0.8)
    tol = 1e-7
    sol = solve_beltrami(model, HolderParams(0.5, 0.6), R=0.2, tol=tol,
                         rings=6, angular=32, radial=8, extra_rings=6)
    assert sol.increments[-1] < tol
    assert sol.residual < 10 * tol


# ---------------------------------------------------------------------------
# Beltrami residual: the spectral path against the finite-difference oracle

# Steps of the FD oracle's central differences, relative to |zeta|.
RESIDUAL_FD_SCALE = 5e-3
# The FD oracle's own floor: its residual on the converged golden solves
# (2.4e-8 power, 4.0e-8 constant, test_fd_residual_floor) is the h^2
# truncation of its central differences, not a defect of the solution.
FD_FLOOR = 5e-8


def _fd_fields(g_final, rings, scale=RESIDUAL_FD_SCALE):
    """(vgrid, zfrak, d zfrak/dzeta, dbar zfrak) at the nodes of the
    verification grid, the derivatives by central differences of
    transform_at at steps scale * |zeta|: the residual's former path,
    with the same arithmetic."""
    grid = g_final.grid
    vgrid = DiskGrid(grid.R * 0.98, rings, 2 * grid.angular, grid.radial + 2,
                     puncture=True)
    pts = vgrid.nodes().ravel()
    center = {}

    def zfrak(stencil):
        # zfrak at the nodes comes from the same transform call
        vals = transform_at(g_final, np.concatenate([pts, stencil]))
        center["zfrak"] = vals[:pts.size]
        return vals[pts.size:]

    dz, dzb = fd.wirtinger(zfrak, pts, scale * np.abs(pts), richardson=False)
    shape = vgrid.shape()
    return (vgrid, center["zfrak"].reshape(shape), dz.reshape(shape),
            dzb.reshape(shape))


def _fd_residual_field(model, g_final, rings):
    """|dbar zfrak - source| at each verification node, by the FD oracle."""
    vgrid, zf, dz, dzb = _fd_fields(g_final, rings)
    return np.abs(dzb - dbar._beltrami_source(model, vgrid, zf, dz).values)


def _fd_residual(model, g_final, rings):
    """sup |dbar zfrak - source| by the FD oracle (beltrami_residual before
    it read the mode coefficients)."""
    return float(_fd_residual_field(model, g_final, rings).max())


GOLDEN_MODELS = {
    "power": (lambda: PerturbationModel.power(0.05, 0.8),
              HolderParams(0.5, 0.6)),
    "constant": (lambda: PerturbationModel.constant(0.1),
                 HolderParams(0.5, 0.0)),
}


def _golden_solve(name, tol=1e-9, extra_rings=4):
    make, params = GOLDEN_MODELS[name]
    model = make()
    return model, solve_beltrami(model, params, R=0.2, tol=tol, rings=4,
                                 angular=16, radial=6,
                                 extra_rings=extra_rings)


@pytest.mark.parametrize("name", GOLDEN_MODELS)
def test_fd_residual_floor(name):
    model, sol = _golden_solve(name)
    assert 1e-8 < _fd_residual(model, sol.g_final, 4) <= FD_FLOOR
    assert sol.residual <= FD_FLOOR


@pytest.mark.parametrize("name", GOLDEN_MODELS)
def test_verification_zfrak_matches_transform_at(name):
    _, sol = _golden_solve(name)
    vgrid, zf, _, _ = dbar._verification_fields(sol.g_final, 4)
    want = transform_at(sol.g_final, vgrid.nodes().ravel())
    assert _close(zf.ravel(), want)


def test_verification_fields_off_a_solve():
    """A smooth field on punctured and full-disk grids: zfrak against
    transform_at, and the synthesized g against the field itself."""
    fn = lambda z: np.conj(z) * np.exp(0.5 * z.real) + 0.3j * z ** 3
    for puncture in (True, False):
        grid = _grid(rings=6, angular=32, radial=8, puncture=puncture)
        F = DiskField.from_function(grid, fn)
        vgrid, zf, _, g = dbar._verification_fields(F, 5)
        nodes = vgrid.nodes()
        assert _close(zf.ravel(), transform_at(F, nodes.ravel()))
        assert np.abs(g - fn(nodes)).max() < 1e-7


@pytest.mark.parametrize("name", GOLDEN_MODELS)
def test_verification_derivatives_match_fd(name):
    """d zfrak/dzeta (the Beurling side) and g (dbar zfrak = g) against
    central differences of transform_at, within the FD floor at the
    oracle's step and at half of it."""
    _, sol = _golden_solve(name)
    _, _, dzf, g = dbar._verification_fields(sol.g_final, 4)
    for scale in (RESIDUAL_FD_SCALE, RESIDUAL_FD_SCALE / 2):
        _, _, dz, dzb = _fd_fields(sol.g_final, 4, scale)
        assert np.abs(dz - dzf).max() <= FD_FLOOR
        assert np.abs(dzb - g).max() <= FD_FLOOR


@pytest.mark.parametrize("name", GOLDEN_MODELS)
@pytest.mark.parametrize("cap", [1, 2])
def test_residual_of_capped_solve_matches_fd(monkeypatch, name, cap):
    monkeypatch.setattr(dbar, "MAX_ITERATIONS", cap)
    model, sol = _golden_solve(name, tol=1e-300)
    assert sol.iterations == cap
    fd_res = _fd_residual(model, sol.g_final, 4)
    assert abs(sol.residual - fd_res) <= FD_FLOOR


@pytest.mark.parametrize("name", GOLDEN_MODELS)
def test_residual_of_perturbed_model_matches_fd(name):
    """The converged source checked against a model 0.2% off: a residual of
    0.2% of |a|, far above the floor."""
    model, sol = _golden_solve(name)
    off = PerturbationModel(lambda z: 1.002 * model.a(z), model.eta,
                            1.002 * model.smallness)
    got = beltrami_residual(off, sol.g_final, 4)
    assert got > 100 * FD_FLOOR
    assert abs(got - _fd_residual(off, sol.g_final, 4)) <= FD_FLOOR


def test_residual_of_zero_model_is_exactly_zero():
    model = PerturbationModel.constant(0.0)
    sol = solve_beltrami(model, HolderParams(0.5, 0.0), R=0.3, rings=4,
                         angular=16, radial=6, extra_rings=4)
    assert sol.residual == 0.0
    assert beltrami_residual(model, sol.g_final, 4) == 0.0


def test_residual_reads_the_mode_coefficients_once(monkeypatch):
    """No transform_at (no FD stencil); one _radial_coefficients call, on
    the rings x (radial + 2) radii of the verification grid."""
    model, sol = _golden_solve("power")
    coefficient_radii = []
    points = []
    coefficients = dbar._radial_coefficients

    def counting(grid, G, rho):
        coefficient_radii.append(len(rho))
        return coefficients(grid, G, rho)

    monkeypatch.setattr(dbar, "_radial_coefficients", counting)
    monkeypatch.setattr(dbar, "transform_at",
                        lambda f, pts, **kw: points.append(pts))
    residual = beltrami_residual(model, sol.g_final, 4)
    assert points == []
    assert coefficient_radii == [4 * (sol.grid.radial + 2)]
    assert residual == sol.residual


@pytest.mark.parametrize("extra, match", [
    (2.5, "^extra_rings must be a whole number"),
    (-1, "^extra_rings must be nonnegative"),
    (0, "^extra_rings must be at least 1"),
    ("4", "^extra_rings must be a whole number")])
def test_solve_refuses_bad_extra_rings(extra, match):
    """2.5 ran with 2 extra rings; -1 failed with a grid mismatch; 0
    reported the truncation hole as its residual."""
    with pytest.raises(ValueError, match=match):
        solve_beltrami(PerturbationModel.power(0.05, 0.8),
                       HolderParams(0.5, 0.6), R=0.2, rings=4, angular=16,
                       radial=6, extra_rings=extra)


def test_solve_refuses_fractional_rings():
    with pytest.raises(ValueError, match="^rings must be a whole number"):
        solve_beltrami(PerturbationModel.power(0.05, 0.8),
                       HolderParams(0.5, 0.6), R=0.2, rings=3.5, angular=16,
                       radial=6, extra_rings=4)


def test_solve_takes_numpy_counts():
    model, want = _golden_solve("power")
    got = solve_beltrami(model, HolderParams(0.5, 0.6), R=0.2, tol=1e-9,
                         rings=np.int64(4), angular=np.int32(16),
                         radial=np.int16(6), extra_rings=np.int64(4))
    assert got.increments == want.increments
    assert (got.norm, got.residual) == (want.norm, want.residual)
