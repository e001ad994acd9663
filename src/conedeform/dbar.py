"""Cauchy transform, weighted Hoelder norms, and the Beltrami iteration
on an annularly graded punctured disk.

Convention (frozen by the T(1) = conj(zeta) calibration):

    Tf(zeta) = (1/pi) int_{0<|tau|<R} f(tau)/(zeta - tau) dA(tau),

so that dbar(Tf) = f; the modified transform is Ttilde f = Tf - Tf(0).

The default quadrature is exact in the angle (Fourier modes integrate
against the kernel in closed form) and Gauss-Legendre in the radius per
ring, with the radial split at |zeta| handling the singularity; per mode n

    Tf = sum_{n<=0} 2 zeta^(n-1) int_0^rho g_n(r) r^(1-n) dr
       - sum_{n>=1} 2 zeta^(n-1) int_rho^R g_n(r) r^(1-n) dr,

organized so only ratio powers <= 1 ever appear.

There is one transform path.  The mode coefficients coeff[u, n], with
Tf = sum_n coeff[u, n] e^(i (n-1) phi), depend on the target only through
its radius, so they are computed once per distinct radius |zeta|: whole
rings enter through target-independent ring integrals, and the ring that
holds the radius is split there by a Gauss sub-rule on the interpolated
g_n, each part on the half of the modes it keeps.  Grid nodes synthesize
the values, and d/dzeta from the same coefficients, by inverse FFT;
arbitrary points synthesize by a phase sum per point.  Tf(0) needs only
the ring integrals.  The Beltrami residual reads the same coefficients at
the radii of a finer grid and synthesizes there by a zero-padded inverse
FFT.

The weighted Hoelder norms take exact maxima over all node pairs of each
ring.  Ring k is ring 0 scaled by 2^-k, bitwise, so the pair distances
are formed once per grid, from ring 0, and scaled.  A float32 screen, over
a table of d^-alpha built from them once per grid and alpha, bounds each
block of pairs; the float64 quotient is formed only on the few blocks
that can hold the max.

Only the operator-identity checks differentiate transform values, by the
central differences of conedeform.fd, unextrapolated, at steps scaled by
the radius or the mesh.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from . import fd
from .reports import Refusal


class QuadratureDivergence(Refusal, ValueError):
    pass


class PreconditionFailure(Refusal, RuntimeError):
    pass


class ContractionFailure(Refusal, RuntimeError):
    pass


# ---------------------------------------------------------------------------
# grids and fields


class DiskGrid:
    """Geometric annuli A(s, 2s), s = R 2^-k for k = 1..rings, each carrying
    `radial` nodes and `angular` equispaced angles.  With puncture=False a
    center piece [0, R 2^-rings) is appended (full-disk quadrature)."""

    def __init__(self, R, rings, angular, radial=8, puncture=True):
        if not (np.isfinite(R) and R > 0):
            raise ValueError(f"disk radius R must be finite and positive, "
                             f"got {R}")
        rings = _whole(rings, "rings")
        angular = _whole(angular, "angular")
        radial = _whole(radial, "radial")
        if rings < 1 or radial < 1:
            raise ValueError(f"a grid needs at least one ring and one radial "
                             f"node, got rings={rings}, radial={radial}")
        if angular < 1 or angular % 2:
            raise ValueError(f"angular count must be positive and even, "
                             f"got {angular}")
        self.R = float(R)
        self.rings = rings
        self.angular = angular
        self.radial = radial
        bounds = [(self.R * 2.0 ** (-k), self.R * 2.0 ** (-k + 1))
                  for k in range(1, self.rings + 1)]
        if not puncture:
            bounds.append((0.0, self.R * 2.0 ** (-self.rings)))
        self.bounds = bounds
        lo, hi = np.array(bounds).T
        x, w = np.polynomial.legendre.leggauss(self.radial)
        self.radii = lo[:, None] + (hi - lo)[:, None] * (x + 1) / 2
        self.rweights = w * (hi - lo)[:, None] / 2
        self.thetas = 2 * np.pi * np.arange(self.angular) / self.angular
        self._plan = None

    @property
    def nrings(self):
        return len(self.bounds)

    def nodes(self):
        """Complex node array of shape (nrings, radial, angular)."""
        r = self.radii[:, :, None]
        th = self.thetas[None, None, :]
        return r * np.exp(1j * th)

    def shape(self):
        return (self.nrings, self.radial, self.angular)


@dataclass
class DiskField:
    grid: DiskGrid
    values: np.ndarray
    eta: float = 0.0

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=complex)
        if self.values.shape != self.grid.shape():
            raise ValueError("value array does not match the grid")

    @staticmethod
    def from_function(grid, fn, eta=0.0):
        return DiskField(grid, fn(grid.nodes()), eta)

    def measured_decay(self):
        """Log-log slope of the per-ring sup against the ring scale."""
        sups = np.max(np.abs(self.values), axis=(1, 2))
        s = np.array([lo for lo, _ in self.grid.bounds])
        keep = sups > 0
        if keep.sum() < 2:
            return None
        return _regress(np.log(s[keep]), np.log(sups[keep]))


def _whole(value, name):
    """A grid count as an int; anything but a whole number is refused."""
    if not (isinstance(value, numbers.Integral) or (
            isinstance(value, numbers.Real) and float(value).is_integer())):
        raise ValueError(f"{name} must be a whole number, got {value!r}")
    return int(value)


def _regress(x, y):
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    if len(x) < 2:
        return None
    mx, my = x.mean(), y.mean()
    return float(((x - mx) * (y - my)).sum() / ((x - mx) ** 2).sum())


# ---------------------------------------------------------------------------
# angular-exact transform machinery

_BLOCK = 2048   # targets per vectorized block: bounds the temporaries


def _modes(grid, V):
    """FFT mode coefficients g_n(r_i), shape (K, n_r, M)."""
    return np.fft.fft(V, axis=-1) / grid.angular


class _Plan:
    """Static geometry tables for the angular-exact transform on a grid."""

    def __init__(self, grid: DiskGrid):
        M = grid.angular
        self.n = np.fft.fftfreq(M, 1.0 / M).astype(int)
        self.absn = np.abs(self.n)
        # modes kept by the inner (n <= 0) and outer (n >= 1) radial parts
        self.neg = np.flatnonzero(self.n <= 0)
        self.pos = np.flatnonzero(self.n >= 1)
        self.expo = np.where(self.n >= 1, self.n - 1, 0)
        self.sub_x, self.sub_w = np.polynomial.legendre.leggauss(
            grid.radial + 6)
        self.lo, self.hi = np.array(grid.bounds).T
        # barycentric weights of the ring radial nodes, one gap at a time
        r = grid.radii
        gaps = r[:, :, None] - r[:, None, :]
        diag = np.arange(grid.radial)
        gaps[:, diag, diag] = 1.0
        self.bary = np.ones_like(r)
        for j in diag:
            self.bary /= gaps[:, :, j]
        # radial differentiation matrices (the row sum on the diagonal)
        D = self.bary[:, None, :] / self.bary[:, :, None] / gaps
        D[:, diag, diag] = 0.0
        D[:, diag, diag] = -D.sum(axis=-1)
        self.dr = D
        self.pairs = None    # ring 0's pair distances, built on first use
        self.screen = None   # (alpha, _screen_table(pairs, alpha)), likewise


def _bary_interp(r_nodes, bary_w, targets):
    """Barycentric interpolation weights from nodes to targets (batched)."""
    T = np.asarray(targets, dtype=float)[..., None]
    diff = T - r_nodes
    small = np.abs(diff) < 1e-14 * np.maximum(np.abs(T), 1e-300)
    safe = np.where(small, 1.0, diff)
    terms = bary_w / safe
    E = terms / terms.sum(axis=-1, keepdims=True)
    hit = small.any(axis=-1)
    if np.any(hit):
        E = np.where(hit[..., None], small.astype(float), E)
    return E


def _plan(grid) -> _Plan:
    if grid._plan is None:
        grid._plan = _Plan(grid)
    return grid._plan


def _ring_integrals(grid, plan, G):
    """Target-independent per-ring mode integrals, each of shape (K, M).

    J_in[k, n]  = int_ring g_n r (r/hi)^|n| dr          (modes n <= 0)
    J_out[k, n] = int_ring g_n (lo/r)^(n-1) dr          (modes n >= 1)
    """
    r = grid.radii[..., None]
    w = grid.rweights[..., None]
    fold_in = w * r * (r / plan.hi[:, None, None]) ** plan.absn * (plan.n <= 0)
    fold_out = w * (plan.lo[:, None, None] / r) ** plan.expo * (plan.n >= 1)
    return (np.einsum("kim,kim->km", G, fold_in),
            np.einsum("kim,kim->km", G, fold_out))


def _radial_coefficients(grid, G, rho):
    """(coeff, Tf(0)), coeff[u, n] with Tf(rho_u e^(i phi)) = sum_n coeff[u, n]
    e^(i(n-1)phi) for distinct radii rho_u > 0.

    Rings wholly inside or outside rho_u enter through the ring integrals,
    accumulated ring to ring (ratio powers <= 1 only); the ring holding
    rho_u is split there by a Gauss sub-rule.  Tf(0) needs only the n = 1
    outer ring integrals."""
    plan = _plan(grid)
    K, M = grid.nrings, grid.angular
    J_in, J_out = _ring_integrals(grid, plan, G)
    # C_in[k] = sum_{j >= k} (hi_j/hi_k)^|n| J_in[j]
    # C_out[k] = sum_{j < k} (lo_{k-1}/lo_j)^(n-1) J_out[j]
    hi = np.append(plan.hi, 0.0)
    lo = np.insert(plan.lo, 0, np.inf)
    C_in = np.zeros((K + 1, M), dtype=complex)
    C_out = np.zeros((K + 1, M), dtype=complex)
    for k in range(K - 1, -1, -1):
        C_in[k] = J_in[k] + (hi[k + 1] / hi[k]) ** plan.absn * C_in[k + 1]
    for k in range(K):
        C_out[k + 1] = J_out[k] + (lo[k + 1] / lo[k]) ** plan.expo * C_out[k]
    a = np.count_nonzero(plan.lo >= rho[:, None], axis=1)  # rings < a: outside
    b = np.count_nonzero(plan.hi > rho[:, None], axis=1)   # rings >= b: inside
    coeff = 2.0 * ((hi[b] / rho)[:, None] ** plan.absn * C_in[b] / rho[:, None]
                   - (rho / lo[a])[:, None] ** plan.expo * C_out[a])
    own = np.flatnonzero(b > a)
    for k in np.unique(a[own]):
        idx = own[a[own] == k]
        for s in range(0, len(idx), _BLOCK):
            blk = idx[s:s + _BLOCK]
            coeff[blk] += _split_ring(grid, plan, G[k], k, rho[blk, None])
    return coeff, -2.0 * J_out[:, plan.n == 1].sum()


def _split_ring(grid, plan, Gk, k, rho):
    """2 (P_in - P_out) for radii rho (column) strictly inside ring k, each
    part on the modes it keeps:

    P_in  = (1/rho) int_lo^rho g_n r (r/rho)^|n| dr     (n <= 0)
    P_out = int_rho^hi g_n (rho/r)^(n-1) dr             (n >= 1)
    """
    lo, hi = grid.bounds[k]
    x, w = plan.sub_x, plan.sub_w
    r1 = lo + (rho - lo) * (x + 1) / 2
    w1 = (rho - lo) * w / 2
    r2 = rho + (hi - rho) * (x + 1) / 2
    w2 = (hi - rho) * w / 2
    neg, pos = plan.neg, plan.pos
    out = np.empty((len(rho), grid.angular), dtype=complex)
    fold1 = (w1 * r1)[..., None] * (r1 / rho)[..., None] ** plan.absn[neg]
    out[:, neg] = _sub_rule(grid, plan, k, Gk[:, neg], r1, fold1) / rho
    fold2 = w2[..., None] * (rho / r2)[..., None] ** plan.expo[pos]
    out[:, pos] = -_sub_rule(grid, plan, k, Gk[:, pos], r2, fold2)
    return 2.0 * out


def _sub_rule(grid, plan, k, Gk, r, fold):
    """sum_s fold[u, s, n] g_n(r[u, s]), g interpolated from ring k's nodes."""
    E = _bary_interp(grid.radii[k], plan.bary[k], r).reshape(-1, grid.radial)
    g = (E @ np.ascontiguousarray(Gk).view(float)).view(complex)
    g = g.reshape(fold.shape)
    return np.einsum("usm,usm->um", g, fold)


def _node_transform(grid, V, modified, derivative=False):
    """Tf or Ttilde f at the grid nodes (inverse FFT of the per-radius
    coefficients), and d/dzeta of it from the same coefficients."""
    plan = _plan(grid)
    coeff, t0 = _radial_coefficients(grid, _modes(grid, V), grid.radii.ravel())
    coeff = coeff.reshape(grid.shape())
    M = grid.angular
    out = M * np.fft.ifft(coeff, axis=-1) * np.exp(-1j * grid.thetas)
    if modified:
        out = out - t0
    if not derivative:
        return out, None
    # d/dzeta: sum_n 2 (n-1) zeta^(n-2) (I_in | -I_out) + e^(-2 i phi) f
    e2 = np.exp(-2j * grid.thetas)
    dcoef = coeff * (plan.n - 1) / grid.radii[..., None]
    return out, M * np.fft.ifft(dcoef, axis=-1) * e2 + e2 * V


# ---------------------------------------------------------------------------
# public transform API


def _check_integrable(f: DiskField):
    if f.eta <= -1:
        raise QuadratureDivergence(
            f"declared decay eta = {f.eta} makes the transform divergent")


def cauchy_transform(f: DiskField) -> DiskField:
    """Solid Cauchy transform at the grid nodes."""
    return _transform(f, modified=False)


def modified_transform(f: DiskField) -> DiskField:
    """Ttilde f = Tf - Tf(0); vanishes at the puncture exactly."""
    return _transform(f, modified=True)


def _transform(f: DiskField, modified: bool) -> DiskField:
    _check_integrable(f)
    out, _ = _node_transform(f.grid, f.values, modified)
    return DiskField(f.grid, out, min(f.eta + 1, 1.0))


def transform_with_derivative(f: DiskField):
    """(Ttilde f, d/dzeta Ttilde f) values at the grid nodes."""
    _check_integrable(f)
    return _node_transform(f.grid, f.values, modified=True, derivative=True)


def transform_at(f: DiskField, pts, modified=True):
    """Ttilde f (default) or Tf at arbitrary points: the coefficients at each
    distinct |pts|, then a phase sum per point."""
    _check_integrable(f)
    grid = f.grid
    pts = np.asarray(pts, dtype=complex).ravel()
    rho = np.abs(pts)
    if np.any(rho == 0):
        raise ValueError("evaluation at the puncture is not defined; use "
                         "the modified transform value 0 instead")
    radii, inv = np.unique(rho, return_inverse=True)
    coeff, t0 = _radial_coefficients(grid, _modes(grid, f.values), radii)
    phi = np.angle(pts)
    k = _plan(grid).n - 1
    vals = np.empty(len(pts), dtype=complex)
    for s in range(0, len(pts), _BLOCK):
        sl = slice(s, s + _BLOCK)
        phase = np.exp(1j * np.outer(phi[sl], k))
        vals[sl] = np.einsum("pm,pm->p", coeff[inv[sl]], phase)
    if modified:
        vals -= t0
    return vals


# ---------------------------------------------------------------------------
# weighted Hoelder norms


def _finite(x, what):
    if not np.isfinite(x):
        raise ValueError(f"the {what} must be finite, got {x}")
    return x


@dataclass
class HolderParams:
    alpha: float
    nu: float

    def __post_init__(self):
        if not 0 < self.alpha < 1:
            raise ValueError("alpha must lie in (0, 1)")
        _finite(self.nu, "weight nu")


def _ring_derivatives(grid, V):
    """Wirtinger derivatives (d/dzeta, d/dzbar) per ring via the radial
    differentiation matrices on the GL nodes and the spectral angular
    derivative."""
    plan = _plan(grid)
    dr = np.einsum("kab,...kbm->...kam", plan.dr, V)
    dth = np.fft.ifft(1j * plan.n * np.fft.fft(V, axis=-1), axis=-1)
    eith = np.exp(1j * grid.thetas)
    rr = grid.radii[..., None]
    return (0.5 * (dr - 1j * dth / rr) / eith,
            0.5 * (dr + 1j * dth / rr) * eith)


@dataclass
class NormReport:
    total: float
    sup_part: float
    deriv_part: float
    holder_part: float
    deriv_holder_part: float
    per_ring: list


def weighted_norms(f: DiskField, p: HolderParams) -> NormReport:
    """Scaling-weighted C^{1,alpha}_nu norm via per-annulus seminorms.

    [w]_{1,alpha,s} = sup|w| + s sup|Dw| + s^a Hol_a(w) + s^(1+a) Hol_a(Dw)
    on each annulus A(s,2s) of the grid (the center piece is left out); the
    norm is sup_s s^(-nu) [w]_{1,alpha,s}.  Pairs for the Hoelder quotients
    stay within one annulus (comparable radii only).  A NaN anywhere makes
    the norm NaN.

    The Hoelder sups are exact maxima over all node pairs of a ring.  Ring
    k's nodes are ring 0's times 2^-k, bitwise (its bounds are R 2^-k, and
    scaling by a power of two rounds the same), and so are its pair
    distances; this holds while R 2^-rings is a normal float.  So the pair
    distances are taken once per grid, from ring 0, and scaled.  Each sup
    is the float64 quotient of the pair that holds it: a float32 screen
    over float32(d^-alpha), a table built from the pair distances once per
    grid and alpha, bounds every block of pairs, and the float64 quotient
    is formed only on the blocks that can hold the max (_holder_sups)."""
    grid = f.grid
    V = f.values
    dz, dzb = _ring_derivatives(grid, V)
    plan = _plan(grid)
    if plan.pairs is None:
        plan.pairs = _pair_distances(grid.nodes()[0].ravel())
    alpha, nu = p.alpha, p.nu
    if plan.screen is None or plan.screen[0] != alpha:
        plan.screen = (alpha, _screen_table(plan.pairs, alpha))
    per_ring = []
    parts = np.zeros(4)
    for k in range(grid.rings):
        s = grid.bounds[k][0]
        w = V[k].ravel()
        d1 = np.maximum(np.abs(dz[k]), np.abs(dzb[k])).ravel()
        sup = float(np.abs(w).max())
        supd = float(d1.max())
        hol, holz, holzb = _holder_sups(
            plan.pairs, plan.screen[1], 2.0 ** -k,
            np.stack((w, dz[k].ravel(), dzb[k].ravel())), alpha)
        hold = max(holz, holzb)
        terms = [sup, s * supd, s ** alpha * hol, s ** (1 + alpha) * hold]
        weight = s ** (-nu)
        per_ring.append({"s": s, "sup": sup, "dsup": supd, "holder": hol,
                         "dholder": hold, "weighted": weight * sum(terms)})
        parts = np.maximum(parts, weight * np.array(terms))
    total = float(np.max([ring["weighted"] for ring in per_ring]))
    return NormReport(total, *parts, per_ring)


_PAIR_ROWS = 16   # rows per block of the pair-distance table and its screen

# The float32 screen's slack, relative and absolute (times the block's
# largest weight): the error bounds of _holder_sups with a margin of more
# than 4.  Outside these ranges of the weights and of sigma the bounds are
# not proven, so the screen is skipped there.
_SCREEN_REL = 2.0 ** -18
_SCREEN_ABS = 2.0 ** -20
_WEIGHT_RANGE = (2.0 ** -100, 2.0 ** 100)
_SIGMA_EXPONENTS = (-900, 1020)
_NORMAL = 2.0 ** -1022   # the smallest normal float64


def _pair_distances(pts):
    """|p_i - p_j| over the upper triangle: blocks (i0, d, coincident) of
    _PAIR_ROWS rows i >= i0 against the columns j >= i0, with the flat
    positions in d of the coincident pairs."""
    blocks = []
    for i0 in range(0, len(pts), _PAIR_ROWS):
        d = np.abs(pts[i0:i0 + _PAIR_ROWS, None] - pts[None, i0:])
        blocks.append((i0, d, np.flatnonzero(d == 0)))
    return blocks


@dataclass
class _Screen:
    """The float32 screen's table for one alpha, from the pair table."""
    weights: list        # per block, float32(d^-alpha), 0 at coincident pairs
    slack: np.ndarray    # per block, _SCREEN_ABS * its largest weight
    dmin: float          # the smallest nonzero pair distance


def _screen_table(pairs, alpha):
    """The _Screen of the pair table `pairs` for `alpha`, or None when a
    nonzero weight d^-alpha lies outside _WEIGHT_RANGE."""
    dmin = min(float(np.min(d, where=d > 0, initial=np.inf))
               for _, d, _ in pairs)
    dmax = max(float(d.max()) for _, d, _ in pairs)
    lo, hi = _WEIGHT_RANGE
    with np.errstate(divide="ignore", over="ignore"):
        if not (np.float64(dmin) ** -alpha <= hi
                and np.float64(dmax) ** -alpha >= lo):
            return None
        weights = []
        for _, d, coincident in pairs:
            w = (d ** -alpha).astype(np.float32)
            w.reshape(-1)[coincident] = 0.0
            weights.append(w)
    slack = _SCREEN_ABS * np.array([float(w.max()) for w in weights])
    return _Screen(weights, slack, dmin)


def _holder_sups(pairs, screen, scale, fields, alpha):
    """Exact max over point pairs of |v_i - v_j| / (scale d_ij)^alpha for
    each row v of `fields`, d the table of _pair_distances; coincident
    pairs give 0, whatever the values there.

    Every max is taken by _block_sups, the float64 quotient, on the blocks
    of the pair table that can hold it; a float32 screen finds them.  Each
    row v is centred on its midrange c and scaled by the power of two
    sigma >= max(|Re(v - c)|, |Im(v - c)|), so u = (v - c)/sigma, cast to
    complex64, has parts in [-1, 1].  The screen value of a pair is
    float32 |u_i - u_j| times w = float32(d_ij^-alpha) (`screen`).  With
    kappa = scale^alpha / sigma and T the float64 quotient, each screen
    value lies within

        kappa T (1 +- r) +- a w,    r <= 2^-20.5,  a <= 2^-22.5:

    r from the float32 subtraction, hypotf (1 ulp) and product, the
    float32 rounding of d^-alpha, and the float64 power, hypot and divide
    of T; a from the float64 centring (2^-52 sigma per part of u_i - u_j)
    and the complex64 cast of u, whose parts lie in [-1, 1] (2^-25 per
    part).  So with M_b a block's largest screen value and e_b =
    _SCREEN_ABS * its largest w, the largest kappa T of the block lies in
    [(M_b - e_b)/(1 + REL), (M_b + e_b)/(1 - REL)], REL = _SCREEN_REL.
    Only the blocks whose upper bound reaches the largest lower bound are
    evaluated in float64, and the one that holds the max is among them, so
    the max is bit for bit the max over every block.  A quotient that
    overflows to inf leads the screen too; sigma >= 2^-900 keeps the
    float64 underflow far below a w, and sigma <= 2^1020 keeps
    |v_i - v_j| finite.

    A row is evaluated in float64 on every block when it holds a NaN or an
    infinity, is constant, has sigma outside [2^-900, 2^1020] or a screen
    bound that is not finite; all rows are, when `screen` is None (a
    weight outside _WEIGHT_RANGE) or scale * d_ij is subnormal."""
    exact = np.ones((len(fields), len(pairs)), dtype=bool)
    if screen is not None and screen.dmin * scale >= _NORMAL:
        live, units = _screen_units(fields)
        if live.any():
            exact[live] = _screen_candidates(pairs, screen, units)
    sups = np.zeros(len(fields))
    with np.errstate(divide="ignore", invalid="ignore"):
        for b in np.flatnonzero(exact.any(axis=0)):
            rows = np.flatnonzero(exact[:, b])
            sups[rows] = np.maximum(
                sups[rows], _block_sups(fields[rows], pairs[b], scale, alpha))
    return [float(x) for x in sups]


def _screen_units(fields):
    """(live, u): the rows of `fields` the screen can take, and those rows
    as complex64 u = (v - c) / sigma, c the midrange and sigma the power
    of two of _holder_sups.  A row is live when m = max(|Re(v - c)|,
    |Im(v - c)|) is finite (a NaN or an infinity in v makes it NaN), not 0
    (a constant) and sigma lies in [2^-900, 2^1020]."""
    re, im = fields.real, fields.imag
    with np.errstate(over="ignore", invalid="ignore"):
        c = (0.5 * re.max(axis=1) + 0.5 * re.min(axis=1)
             + 1j * (0.5 * im.max(axis=1) + 0.5 * im.min(axis=1)))
        centred = fields - c[:, None]
        m = np.maximum(np.abs(centred.real).max(axis=1),
                       np.abs(centred.imag).max(axis=1))
    _, e = np.frexp(m)
    lo, hi = _SIGMA_EXPONENTS
    live = np.isfinite(m) & (m > 0) & (e >= lo) & (e <= hi)
    sigma = np.ldexp(1.0, e[live])
    return live, (centred[live] / sigma[:, None]).astype(np.complex64)


def _screen_candidates(pairs, screen, units):
    """(rows x blocks) True where a block can hold the row's max, by the
    bounds of _holder_sups; every block of a row whose bounds are not
    finite."""
    top = np.empty((len(units), len(pairs)))
    for b, ((i0, _, _), w) in enumerate(zip(pairs, screen.weights)):
        q = np.abs(units[:, i0:i0 + _PAIR_ROWS, None] - units[:, None, i0:])
        q *= w
        top[:, b] = q.max(axis=(1, 2))
    upper = (top + screen.slack) / (1 - _SCREEN_REL)
    lower = (top - screen.slack) / (1 + _SCREEN_REL)
    finite = np.isfinite(upper).all(axis=1, keepdims=True)
    return (upper >= lower.max(axis=1, keepdims=True)) | ~finite


def _block_sups(fields, block, scale, alpha):
    """Max over one block of the pair table of the float64 quotient
    |v_i - v_j| / (scale d_ij)^alpha for each row v of `fields`, 0 at the
    coincident pairs."""
    i0, d, coincident = block
    q = np.abs(fields[:, i0:i0 + _PAIR_ROWS, None] - fields[:, None, i0:])
    np.divide(q, (d * scale) ** alpha, out=q)
    q.reshape(len(fields), -1)[:, coincident] = 0.0
    return q.max(axis=(1, 2))


def weighted_sup(f: DiskField, weight_exp: float) -> float:
    """sup over nodes of |zeta|^(-weight_exp) |f|."""
    r = f.grid.radii[:, :, None]
    return float((np.abs(f.values) / r ** weight_exp).max())


# ---------------------------------------------------------------------------
# Beltrami fixed point


@dataclass
class PerturbationModel:
    a: object                    # callable on complex arrays
    eta: float
    smallness: float

    @staticmethod
    def constant(c):
        c = _finite(complex(c), "coefficient c")
        return PerturbationModel(lambda z: np.full_like(z, c, dtype=complex),
                                 0.0, abs(c))

    @staticmethod
    def power(c, eta):
        c = _finite(complex(c), "coefficient c")
        eta = _finite(float(eta), "decay exponent eta")

        def a(z):
            z = np.asarray(z, dtype=complex)
            az = np.abs(z)
            with np.errstate(invalid="ignore", divide="ignore"):
                out = c * np.conj(z) / az * az ** eta
            return np.where(az == 0, 0.0, out)

        return PerturbationModel(a, eta, abs(c))

    def validate_on(self, grid):
        z = grid.nodes()
        a = self.a(z)
        if not np.isfinite(a).all():
            raise ValueError("a is not finite on the grid")
        bound = self.smallness * np.abs(z) ** self.eta
        if np.any(np.abs(a) > bound * (1 + 1e-9) + 1e-300):
            raise ValueError("|a| exceeds smallness * |zeta|^eta on the grid")


@dataclass
class BeltramiSolution:
    z_field: DiskField           # the correction zfrak (z = zeta + zfrak)
    iterations: int
    increments: list
    residual: float
    norm: float
    grid: DiskGrid
    g_final: DiskField


CONTRACTION_THRESHOLD = 0.25
MAX_ITERATIONS = 40


def solve_beltrami(model: PerturbationModel, p: HolderParams, R, tol=1e-10,
                   rings=8, angular=64, radial=10,
                   extra_rings=8) -> BeltramiSolution:
    """Fixed-point iteration for dz/dzbar + a(z) dzbar/dzbar = 0, z = zeta + zfrak,

        zfrak_{m+1} = Ttilde( -a(zeta + zfrak_m) (1 + conj(d zfrak_m)) ),

    in the scaling-weighted C^{1,alpha}_{nu+1} norm on the declared rings.
    The source quadrature grid extends `extra_rings` deeper.  The hole below
    it is not negligible against tol: it shifts the solution by about
    4^-extra_rings relative to its size on the innermost declared ring
    (1.5e-5 at the default 8; for a constant model c the shift is
    |c| rho_h^2 / |zeta|, rho_h the hole radius), so the iteration converges
    to the truncated problem.  Refuses to iterate when the probed ||J[0]||
    exceeds the contraction threshold 1/4.  Stops after MAX_ITERATIONS;
    the residual is measured by beltrami_residual, on a finer grid over
    the declared rings.  `rings` and `extra_rings` must be whole numbers,
    and `extra_rings` at least 1: the verification grid reaches below
    R 2^-rings, and with no extra ring that is the hole, where g = 0."""
    if not tol > 0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    rings = _whole(rings, "rings")
    extra_rings = _whole(extra_rings, "extra_rings")
    if extra_rings < 0:
        raise ValueError(f"extra_rings must be nonnegative, got "
                         f"{extra_rings}")
    if extra_rings == 0:
        raise ValueError(
            "extra_rings must be at least 1: with none, the residual's "
            "check grid (radius 0.98 R) reaches below R 2^-rings into the "
            "truncation hole, where g = 0, and would report the missing "
            "source as the residual")
    if model.eta > 0 and not p.nu < model.eta:
        raise ValueError("the weight nu must lie strictly below eta")
    grid = DiskGrid(R, rings + extra_rings, angular, radial, puncture=True)
    decl = DiskGrid(R, rings, angular, radial)
    pw = HolderParams(p.alpha, p.nu + 1)
    model.validate_on(grid)

    def declared(v):
        return DiskField(decl, v[:rings], model.eta + 1)

    zf = dzf = np.zeros(grid.shape(), dtype=complex)
    g = _beltrami_source(model, grid, zf, dzf)
    zf_new, dzf_new = transform_with_derivative(g)
    # threshold check on the weighted sup of J[0]; the full Hoelder norm is
    # reported by contraction_study
    j0_sup = weighted_sup(declared(zf_new), p.nu + 1)
    if not j0_sup <= CONTRACTION_THRESHOLD:
        raise PreconditionFailure(
            f"weighted sup of J[0] = {j0_sup:.3g} exceeds the contraction "
            f"threshold {CONTRACTION_THRESHOLD}; reduce R or the perturbation")
    increments = []
    prev_inc = None
    bad = 0
    it = 0
    for it in range(1, MAX_ITERATIONS + 1):
        inc = weighted_norms(declared(zf_new - zf), pw).total
        if not np.isfinite(inc):
            raise ContractionFailure(
                f"increment {inc} is not finite at iteration {it}")
        increments.append(inc)
        zf, dzf = zf_new, dzf_new
        g = _beltrami_source(model, grid, zf, dzf)
        if inc < tol:
            break
        if prev_inc is not None and inc >= prev_inc:
            bad += 1
            if bad >= 2:
                raise ContractionFailure(
                    f"increments stopped decreasing (ratio "
                    f"{inc / prev_inc:.3f} at iteration {it})")
        else:
            bad = 0
        prev_inc = inc
        if it < MAX_ITERATIONS:   # the next iterate; the last needs none
            zf_new, dzf_new = transform_with_derivative(g)
    sol_field = declared(zf)
    norm = weighted_norms(sol_field, pw).total
    residual = beltrami_residual(model, g, rings)
    return BeltramiSolution(sol_field, it, increments, residual, norm,
                            grid, g)


def _beltrami_source(model, grid, zf, dzf):
    """The source -a(zeta + zfrak) (1 + conj(d zfrak)) of the Beltrami map
    at the nodes of `grid`, for zfrak and d zfrak/dzeta given there."""
    return DiskField(grid, -model.a(grid.nodes() + zf) * (1.0 + np.conj(dzf)),
                     model.eta)


def beltrami_residual(model, g_final: DiskField, rings):
    """sup |dbar z + a(z) conj(dz)| = sup |dbar zfrak - source| over the
    nodes of an independent, finer grid than g_final's, where zfrak =
    Ttilde g_final and source = -a(zeta + zfrak) (1 + conj(d zfrak/dzeta)).

    dbar zfrak = g holds by construction of T, g the density that the
    quadrature integrates (g_final's modes interpolated in the radius, 0 in
    the truncation hole).  So the residual is the fixed-point defect
    sup |g - source|, with d zfrak/dzeta (the Beurling side of T) read off
    the same mode coefficients as zfrak."""
    vgrid, zf, dzf, g = _verification_fields(g_final, rings)
    source = _beltrami_source(model, vgrid, zf, dzf)
    return float(np.abs(g - source.values).max())


def _verification_fields(g_final: DiskField, rings):
    """(vgrid, zfrak, d zfrak/dzeta, g) at the nodes of the verification
    grid: radius 0.98 R, `rings` rings, twice the angles and two more
    radial nodes.  The mode coefficients come once per vgrid radius, and
    each field by a zero-padded inverse FFT onto the finer angles."""
    _check_integrable(g_final)
    grid = g_final.grid
    plan = _plan(grid)
    vgrid = DiskGrid(grid.R * 0.98, rings, 2 * grid.angular, grid.radial + 2,
                     puncture=True)
    G = _modes(grid, g_final.values)
    rho = vgrid.radii.ravel()
    coeff, t0 = _radial_coefficients(grid, G, rho)
    M2 = vgrid.angular

    def synthesize(c, shift):
        # sum_n c[u, n] e^(i (n - shift) theta) on the vgrid angles
        padded = np.zeros((len(rho), M2), dtype=complex)
        padded[:, (plan.n - shift) % M2] = c
        return (M2 * np.fft.ifft(padded, axis=-1)).reshape(vgrid.shape())

    g = synthesize(_density_modes(grid, plan, G, rho), 0)
    e2 = np.exp(-2j * vgrid.thetas)
    dzf = synthesize(coeff * (plan.n - 1) / rho[:, None], 0) * e2 + e2 * g
    return vgrid, synthesize(coeff, 1) - t0, dzf, g


def _density_modes(grid, plan, G, rho):
    """g_n at radii rho, interpolated from the nodes of the ring holding
    each radius; 0 in the truncation hole."""
    out = np.zeros((len(rho), grid.angular), dtype=complex)
    ring = np.count_nonzero(plan.lo > rho[:, None], axis=1)
    for k in np.unique(ring[ring < grid.nrings]):
        idx = np.flatnonzero(ring == k)
        out[idx] = _bary_interp(grid.radii[k], plan.bary[k], rho[idx]) @ G[k]
    return out


@dataclass
class ContractionRow:
    R: float
    j0_norm: float
    lipschitz: float


@dataclass
class ContractionStudy:
    rows: list
    j0_slope: float | None
    lipschitz_slope: float | None


def contraction_study(model: PerturbationModel, p: HolderParams, R_list,
                      probes=3, rings=8, angular=64, radial=10,
                      seed=0) -> ContractionStudy:
    """Probes ||J[0]|| and a Lipschitz-constant estimate of the Beltrami
    map across radii; the log-log slopes verify the R^(eta-nu) and R^eta
    contraction scalings."""
    rng = np.random.default_rng(seed)
    pnorm = HolderParams(p.alpha, p.nu + 1)
    rows = []
    for R in R_list:
        grid = DiskGrid(R, rings, angular, radial, puncture=True)

        def J(zf, dzf):
            return transform_with_derivative(
                _beltrami_source(model, grid, zf, dzf))

        zeros = np.zeros(grid.shape(), dtype=complex)
        z0, _ = J(zeros, zeros)
        j0 = weighted_norms(DiskField(grid, z0, model.eta + 1), pnorm).total
        lip = 0.0
        for _ in range(probes):
            z1, d1 = _unit_probe(grid, rng, pnorm)
            z2, d2 = _unit_probe(grid, rng, pnorm)
            Ja, _ = J(z1, d1)
            Jb, _ = J(z2, d2)
            dn = weighted_norms(DiskField(grid, z1 - z2, 0.0), pnorm).total
            jn = weighted_norms(DiskField(grid, Ja - Jb, 0.0), pnorm).total
            if dn > 0:
                lip = max(lip, jn / dn)
        rows.append(ContractionRow(R, j0, lip))
    j0s = [r.j0_norm for r in rows]
    lips = [r.lipschitz for r in rows]
    Rs = [r.R for r in rows]
    j0_slope = _regress(np.log(Rs), np.log(j0s)) if min(j0s) > 0 else None
    lip_slope = _regress(np.log(Rs), np.log(lips)) if min(lips) > 0 else None
    return ContractionStudy(rows, j0_slope, lip_slope)


def _unit_probe(grid, rng, pnorm):
    """(zfrak, d zfrak/dzeta) for zfrak = Ttilde of a random probe, scaled
    to weighted norm 1/2."""
    z, d = transform_with_derivative(DiskField(grid, _random_probe(grid, rng),
                                               0.0))
    scale = 0.5 / max(weighted_norms(DiskField(grid, z, 0.0), pnorm).total,
                      1e-30)
    return z * scale, d * scale


def _random_probe(grid, rng):
    """Smooth random field with a few angular modes, O(rho) at the puncture."""
    z = grid.nodes()
    rho = np.abs(z) / grid.R
    out = np.zeros_like(z)
    for m in (-2, -1, 0, 1, 2):
        c = rng.normal() + 1j * rng.normal()
        out += c * rho ** (abs(m) + 1) * np.exp(1j * m * np.angle(z))
    return out


# ---------------------------------------------------------------------------
# two-variable operator identities


@dataclass
class IdentityReport:
    diag_defect: float           # sup |dbar_j Ttilde^j f - f|
    cross_defect: float          # sup |dbar_2 Ttilde^1 f - Ttilde^1 dbar_2 f|
    resolution: int


def dbar_identity_defect(field_fn, level=0):
    """sup FD defect of dbar(Ttilde f) = f on the punctured disk of radius
    0.5, at 160 fixed probe points.

    The mesh refines jointly with the level (angles double from 16, radial
    nodes grow from 6 and rings from 5, halving the truncation hole) and
    the FD step halves, so the defect at the fixed probe points is
    dominated by the h^2 truncation of the difference stencil."""
    R, base_rings, probes = 0.5, 5, 160
    grid = DiskGrid(R, base_rings + level, 16 * 2 ** level, 6 + 2 * level,
                    puncture=True)
    F = DiskField.from_function(grid, field_fn, 0.0)
    # fixed probe cloud, independent of the grid nodes and of the level
    m = np.arange(probes)
    rr = 2 * R * 2.0 ** (-base_rings) + (0.8 * R - 2 * R * 2.0 ** (-base_rings)) \
        * (m + 0.5) / probes
    phis = 2 * np.pi * ((m * 0.6180339887498949) % 1.0)
    pts = rr * np.exp(1j * phis)
    step = 0.2 * 2 * np.pi / grid.angular
    _, dbar = fd.wirtinger(lambda s: transform_at(F, s), pts, step * rr,
                           richardson=False)
    return float(np.abs(dbar - field_fn(pts)).max())


def operator_identities_2var(resolution=32, fields=None) -> IdentityReport:
    """Checks dbar_1 Ttilde^1 f = f, dbar_2 T^2 f = f and the commutation
    dbar_2 Ttilde^1 f = Ttilde^1 dbar_2 f on a 2-variable polydisk grid of
    radius 0.8: 4 punctured rings in z1, 3 rings and a center disk in z2,
    6 radial nodes each.

    Fields are callables f(z1, z2); derivatives of transformed fields use
    mesh-scaled central differences (the h^2 truncation dominates), and
    the sup in the punctured variable excludes the innermost ring, which
    abuts the truncation hole."""
    R = 0.8
    grid1 = DiskGrid(R, 4, resolution, 6, puncture=True)
    grid2 = DiskGrid(R, 3, resolution, 6, puncture=False)
    if fields is None:
        fields = _default_2var_fields(R)
    z1 = grid1.nodes()
    z2 = grid2.nodes()
    inner2 = z2.ravel()[np.abs(z2.ravel()) <= 0.7 * R]
    z2_probe = inner2[:: max(1, inner2.size // 12)][:12]
    step = 0.25 * 2 * np.pi / resolution
    keep1 = (grid1.nrings - 1) * grid1.radial * grid1.angular
    diag = 0.0
    cross = 0.0
    for f in fields:
        # --- identity in variable 1, on slices z2 = const ------------------
        for w2 in z2_probe:
            F = DiskField(grid1, f(z1, w2), 0.0)
            rr = np.abs(z1).ravel()[:keep1]
            h = np.minimum(step * rr, 0.45 * (R - rr))
            pts = z1.ravel()[:keep1]
            _, dbar = fd.wirtinger(lambda s: transform_at(F, s), pts, h,
                                   richardson=False)
            diag = max(diag, float(np.abs(dbar - f(pts, w2)).max()))
        # --- identity in variable 2, on slices z1 = const ------------------
        z1_probe = z1.ravel()[:: max(1, z1.size // 8)][:8]
        for w1 in z1_probe:
            F2 = DiskField(grid2, f(w1, z2), 0.0)
            rr = np.maximum(np.abs(z2).ravel(), 0.05 * R)
            h = np.minimum(step * rr, 0.45 * (R - np.abs(z2).ravel()))
            pts = z2.ravel()
            _, dbar = fd.wirtinger(
                lambda s: transform_at(F2, s, modified=False), pts, h,
                richardson=False)
            diag = max(diag, float(np.abs(dbar - f(w1, pts)).max()))
        # --- commutation: dbar_2 Ttilde^1 f = Ttilde^1 dbar_2 f ------------
        for w2 in z2_probe:
            h2 = min(step * max(abs(w2), 0.05 * R), 0.45 * (R - abs(w2)))
            _, lhs = fd.wirtinger(
                lambda w: modified_transform(
                    DiskField(grid1, f(z1, w), 0.0)).values,
                w2, h2, richardson=False)
            _, dbar2f = fd.wirtinger(lambda w: f(z1, w), w2, 1e-6,
                                     richardson=False)
            rhs = modified_transform(DiskField(grid1, dbar2f, 0.0)).values
            cross = max(cross, float(np.abs(lhs - rhs).max()))
    return IdentityReport(diag, cross, resolution)


def _default_2var_fields(R):
    bump = lambda z1: np.exp(-np.abs(z1 - 0.45 * R) ** 2 / (0.25 * R) ** 2)
    return [
        lambda z1, z2: np.conj(z1) * z2,
        lambda z1, z2: np.conj(z1) ** 2 + 0.5 * z1 * np.conj(z2),
        lambda z1, z2: bump(z1) * (1.0 + 0.3 * np.conj(z2)),
        lambda z1, z2: np.abs(z1) ** 2 * np.exp(0.6 * np.conj(z2)),
        lambda z1, z2: np.conj(z1) * np.exp(0.4 * np.abs(z2) ** 2) +
        0.2 * np.conj(z2),
    ]
