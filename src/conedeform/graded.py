"""Graded deformation algebra of complete-intersection cone singularities.

For a cone C = {F_1 = ... = F_m = 0} in C^N with F_i homogeneous of degree
d_i, the weight-j piece of the first-order deformation space is the
cokernel

    R(j+1)^N --Jac--> R(d_1+j) (+) ... (+) R(d_m+j) --> T1(j) --> 0,

where R is the coordinate ring of C and Jac multiplies by the partial
derivatives of the F_i.  Everything here is exact rational linear algebra;
quotient bases are monomial, chosen degrevlex with the echelon complement.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm

from . import linalg
from .poly import Polynomial, monomials_of_degree


# Assumed of every cone and carried by the reports that depend on it.
NORMALITY_NOTE = ("hypothesis (unchecked): the projectivized base is smooth "
                  "and projectively normal")


class InhomogeneousGeneratorError(ValueError):
    pass


class DegreeMismatchError(ValueError):
    pass


class ConeSingularity:
    """Defining data {F_i, d_i} of a complete-intersection affine cone.

    Smoothness and projective normality of the projectivized base are
    assumed, not verified; reports downstream carry that caveat.
    """

    def __init__(self, ambient_dim, defining):
        if ambient_dim <= 0:
            raise ValueError("ambient dimension must be positive")
        defining = [(f, int(d)) for f, d in defining]
        if not 1 <= len(defining) < ambient_dim:
            raise ValueError("codimension must satisfy 1 <= m < N")
        for f, d in defining:
            if f.nvars != ambient_dim:
                raise ValueError("generator has wrong variable count")
            if f.is_zero() or not f.is_homogeneous(d):
                raise InhomogeneousGeneratorError(
                    f"generator {f} is not homogeneous of degree {d}")
        self.ambient_dim = ambient_dim
        self.defining = tuple(defining)
        self._degree_cache = {}
        self._jac_cache = {}
        self._partials = None

    @property
    def codim(self):
        return len(self.defining)

    def degrees(self):
        return [d for _, d in self.defining]

    def __repr__(self):
        gens = ", ".join(str(f) for f, _ in self.defining)
        return f"ConeSingularity(C^{self.ambient_dim}; {gens})"


@dataclass
class GradedBasis:
    degree: int
    representatives: list        # monomial Polynomials spanning R(j)
    ambient_dim: int             # dim C[Z]_j
    quotient_dim: int


@dataclass
class T1Report:
    weights: dict                # j -> (dim, cokernel basis of m-tuples)
    window: tuple | None         # (min j, max j) with nonzero dim

    def dimension(self, j):
        return self.weights[j][0]

    def dims(self):
        return {j: dw[0] for j, dw in self.weights.items()}


class _DegreeData:
    """The degree-j piece of the quotient ring, as a table of normal forms
    over one denominator.

    The products m*F_i, dense rows over the degree-j monomials filled from
    the terms of F_i shifted by m, go through one `linalg.row_echelon`.
    The monomials off its pivots are `free`, the quotient basis.  `den`,
    the lcm of the denominators of the echelon rows' free entries, is
    positive, and `int_forms` maps each monomial to `den` times its class,
    a sparse dict {free coordinate: int}: a free monomial is its own
    coordinate, and a pivot monomial is minus the free entries of its
    echelon row.
    """

    def __init__(self, cone, j):
        self.monomials = monomials_of_degree(cone.ambient_dim, j)
        index = {m: i for i, m in enumerate(self.monomials)}
        rows = []
        for f, d in cone.defining:
            for m in monomials_of_degree(cone.ambient_dim, j - d):
                row = [Fraction(0)] * len(self.monomials)
                for e, c in f.terms.items():
                    row[index[_shifted(e, m)]] = c
                rows.append(row)
        echelon, pivots = linalg.row_echelon(rows)
        pivset = set(pivots)
        self.free = [i for i in range(len(self.monomials)) if i not in pivset]
        self.den = den = lcm(*[row[i].denominator for row in echelon
                               for i in self.free])
        self.int_forms = {self.monomials[i]: {k: den}
                          for k, i in enumerate(self.free)}
        for row, p in zip(echelon, pivots):
            self.int_forms[self.monomials[p]] = {
                k: -row[i].numerator * (den // row[i].denominator)
                for k, i in enumerate(self.free) if row[i]}

    def scaled(self, terms, shift):
        """`den` times the class of sum c * z^(e + shift) over integer
        terms {e: c}, as a sparse dict over the free coordinates."""
        out = {}
        for e, c in terms.items():
            for k, y in self.int_forms[_shifted(e, shift)].items():
                out[k] = out.get(k, 0) + c * y
        return {k: x for k, x in out.items() if x}

    def reduce(self, terms, shift):
        """Class of sum c * z^(e + shift) over terms {e: c}, as a sparse
        dict of `Fraction`s over the free coordinates."""
        terms, scale = linalg._to_integers(terms)
        return {k: Fraction(x, scale * self.den)
                for k, x in self.scaled(terms, shift).items()}


def _shifted(e, m):
    return tuple(a + b for a, b in zip(e, m))


def _degree_data(cone, j) -> _DegreeData:
    if j not in cone._degree_cache:
        cone._degree_cache[j] = _DegreeData(cone, j)
    return cone._degree_cache[j]


def quotient_basis(cone: ConeSingularity, j: int) -> GradedBasis:
    """Monomial basis of the degree-j piece of the coordinate ring."""
    if j < 0:
        return GradedBasis(j, [], 0, 0)
    data = _degree_data(cone, j)
    reps = [Polynomial.monomial(cone.ambient_dim, data.monomials[i])
            for i in data.free]
    return GradedBasis(j, reps, len(data.monomials), len(data.free))


class _JacobianData:
    """The Jacobian map at weight j, by the forward pivot rows of its image.

    `columns` holds one image vector per source basis element
    (variable-major), a sparse dict of ints over the concatenated target
    coordinates `labels`: the column times a positive number, divided by
    its content.  Column (l, m) is built from the integer terms of each
    dF_i/dz_l shifted by the source monomial m, read through the target's
    integer normal forms (`image`).  A positive scale of a column changes
    no pivot row of `linalg._pivot_rows` (a negative one would), so one
    forward pass over `columns` gives the image's `pivot_rows`: their
    columns give `rank` and `coker_coords`, and `reduce_in_t1` reduces
    against them.
    """

    def __init__(self, cone, j):
        self.targets = [_degree_data(cone, d + j) if d + j >= 0 else None
                        for _, d in cone.defining]
        # (generator index, monomial) of each concatenated target coordinate
        self.labels = [(i, t.monomials[m]) for i, t in enumerate(self.targets)
                       if t is not None for m in t.free]
        self.total = len(self.labels)
        self.columns = [linalg._primitive(v, True)
                        for v, _ in self.image(cone, j)]
        self.pivot_rows = linalg._pivot_rows(self.columns)[0]
        self.rank = len(self.pivot_rows)
        self.coker_coords = [i for i in range(self.total)
                             if i not in self.pivot_rows]

    def image(self, cone, j):
        """(v, s) per column of the map in order, as in `concatenate`."""
        if j + 1 < 0 or self.total == 0:
            return
        src = _degree_data(cone, j + 1)
        partials = _partials(cone)
        for l in range(cone.ambient_dim):
            for mi in src.free:
                yield self.concatenate(partials[l], src.monomials[mi])

    def concatenate(self, parts, shift):
        """(v, s): the sparse concatenated target coordinates of an
        m-tuple times s > 0, in ints.  `parts` gives each component as
        `linalg._to_integers` does, (its terms times t, t), each shifted as
        in `_DegreeData.scaled`; s is the lcm of the blocks' t * den."""
        blocks = [(t, t.scaled(terms, shift), scale * t.den)
                  for t, (terms, scale) in zip(self.targets, parts)
                  if t is not None]
        s = lcm(*[scale for _, _, scale in blocks])
        vec = {}
        offset = 0
        for t, block, scale in blocks:
            f = s // scale
            for k, x in block.items():
                vec[offset + k] = f * x
            offset += len(t.free)
        return vec, s


def _partials(cone):
    """Per variable z_l, the (integer terms, positive scale) of each
    dF_i/dz_l; formed once per cone."""
    if cone._partials is None:
        cone._partials = [[linalg._to_integers(f.derivative(l).terms)
                           for f, _ in cone.defining]
                          for l in range(cone.ambient_dim)]
    return cone._partials


def _jacobian_data(cone, j) -> _JacobianData:
    if j not in cone._jac_cache:
        cone._jac_cache[j] = _JacobianData(cone, j)
    return cone._jac_cache[j]


def jacobian_matrix(cone: ConeSingularity, j: int):
    """Matrix of R(j+1)^N -> (+)_i R(d_i+j) over the monomial quotient bases.

    Rows are the concatenated target coordinates; columns run over N copies
    of the degree-(j+1) basis, variable-major.
    """
    data = _jacobian_data(cone, j)
    columns = [{k: Fraction(x, s) for k, x in v.items()}
               for v, s in data.image(cone, j)]
    return [[col.get(i, Fraction(0)) for col in columns]
            for i in range(data.total)]


def _target_vector(cone, element, j):
    """Sparse concatenated quotient-basis coordinates of an m-tuple at
    weight j."""
    if len(element) != cone.codim:
        raise DegreeMismatchError(
            f"expected a {cone.codim}-tuple, got {len(element)} entries")
    if any(g.nvars != cone.ambient_dim for g in element):
        raise ValueError(f"expected components in {cone.ambient_dim} variables")
    parts = [g.homogeneous_part(d + j) for g, d in zip(element, cone.degrees())]
    if any(not g.is_zero() for g in element) and \
            all(part.is_zero() for part in parts):
        raise DegreeMismatchError(
            f"no component has a degree part at weight {j}")
    data = _jacobian_data(cone, j)
    vec, s = data.concatenate(
        [linalg._to_integers(part.terms) for part in parts],
        (0,) * cone.ambient_dim)
    return {k: Fraction(x, s) for k, x in vec.items()}, data


@dataclass
class ReducedClass:
    weight: int
    is_zero: bool
    coordinates: list            # over the cokernel basis at this weight


def reduce_in_t1(cone: ConeSingularity, element, j: int) -> ReducedClass:
    """Class of an m-tuple in T1(j); zero-flag iff it lies in the Jacobian image.

    Inhomogeneous components are first projected to degree d_i + j.  The
    zero tuple reduces to zero; a nonzero tuple with no degree part at this
    weight raises DegreeMismatchError.
    """
    vec, data = _target_vector(cone, element, j)
    res = linalg.reduce_against(vec, data.pivot_rows)
    coords = [res.get(i, Fraction(0)) for i in data.coker_coords]
    return ReducedClass(j, not res, coords)


def t1_graded(cone: ConeSingularity, j_min: int, j_max: int) -> T1Report:
    """Dimensions and explicit cokernel bases of T1(j) for j in [j_min, j_max]."""
    if j_min > j_max:
        raise ValueError("j_min must not exceed j_max")
    weights = {}
    for j in range(j_min, j_max + 1):
        data = _jacobian_data(cone, j)
        dim = data.total - data.rank
        basis = []
        for coord in data.coker_coords:
            i, mono = data.labels[coord]
            tup = [Polynomial.zero(cone.ambient_dim) for _ in range(cone.codim)]
            tup[i] = Polynomial.monomial(cone.ambient_dim, mono)
            basis.append(tuple(tup))
        weights[j] = (dim, basis)
    nz = [j for j, (d, _) in weights.items() if d > 0]
    window = (min(nz), max(nz)) if nz else None
    return T1Report(weights, window)


# ---------------------------------------------------------------------------
# deformation weights


class Perturbation:
    """Tuple {G_i} deforming the cone equations, with declared degrees e_i."""

    def __init__(self, components, declared_degrees):
        self.components = tuple(components)
        self.declared_degrees = tuple(int(e) for e in declared_degrees)
        if len(self.components) != len(self.declared_degrees):
            raise ValueError("component/degree count mismatch")
        for g, e in zip(self.components, self.declared_degrees):
            if e < 0:
                raise ValueError("declared degree must be nonnegative")
            if g.degree() > e:
                raise ValueError(f"deg {g} exceeds declared degree {e}")

    def validate_against(self, cone: ConeSingularity):
        if len(self.components) != cone.codim:
            raise ValueError("perturbation length differs from codimension")
        if any(g.nvars != cone.ambient_dim for g in self.components):
            raise ValueError(f"perturbation not in {cone.ambient_dim} variables")
        for e, (_, d) in zip(self.declared_degrees, cone.defining):
            if e >= d:
                raise ValueError(f"declared degree {e} not below {d}")


class FirstOrderVanishes:
    """Terminal verdict: every weight's first-order class reduces to zero.

    Detecting the true weight would need higher-order (reduced) classes,
    e.g. after completing the square in the defining equations; this tool
    flags the situation and declines to guess.
    """

    note = ("first-order class vanishes at every weight; the actual "
            "deformation weight is of higher order (completing-the-square "
            "phenomenon) and is not computed")

    def __repr__(self):
        return "FirstOrderVanishes"

    def __eq__(self, other):
        return isinstance(other, FirstOrderVanishes)

    def __hash__(self):
        return hash("FirstOrderVanishes")


@dataclass
class WeightResult:
    weight: object               # int or FirstOrderVanishes
    samples: list                # per-instantiation verdicts
    genericity_warning: bool
    notes: list = field(default_factory=list)

    @property
    def first_order_vanishes(self):
        return isinstance(self.weight, FirstOrderVanishes)


def _random_fraction(rng):
    num = rng.randrange(1, 40)
    den = rng.randrange(1, 12)
    sign = -1 if rng.random() < 0.5 else 1
    return Fraction(sign * num, den)


def _resample(pert: Perturbation, rng) -> Perturbation:
    comps = []
    for g in pert.components:
        comps.append(Polynomial(g.nvars,
                                {e: _random_fraction(rng)
                                 for e in g.terms}))
    return Perturbation(comps, pert.declared_degrees)


def _weight_once(cone, pert):
    """First nonvanishing class, scanning t-orders upward (weights downward)."""
    degrees = cone.degrees()
    tops = [g.degree() - d for g, (_, d) in zip(pert.components, cone.defining)
            if not g.is_zero()]
    if not tops:
        return FirstOrderVanishes()
    w_top = max(tops)
    w_bottom = -max(degrees)
    for w in range(w_top, w_bottom - 1, -1):
        parts = [g.homogeneous_part(d + w) if d + w >= 0
                 else Polynomial.zero(cone.ambient_dim)
                 for g, d in zip(pert.components, degrees)]
        if all(p.is_zero() for p in parts):
            continue
        cls = reduce_in_t1(cone, parts, w)
        if not cls.is_zero:
            return w
    return FirstOrderVanishes()


# Instantiations compared by deformation_weight, the given one included.
WEIGHT_SAMPLES = 3


def deformation_weight(cone: ConeSingularity, pert: Perturbation, *,
                       seed: int = 0) -> WeightResult:
    """Weight of the first nonvanishing class of a perturbation family.

    Genericity of coefficients is modelled by re-instantiating every stored
    coefficient with fresh random rationals on the same monomial support
    (WEIGHT_SAMPLES - 1 times); the given instance is reported, with a
    GenericityWarning attached when the instantiations disagree.
    """
    pert.validate_against(cone)
    rng = random.Random(seed)
    verdicts = [_weight_once(cone, pert)]
    for _ in range(WEIGHT_SAMPLES - 1):
        verdicts.append(_weight_once(cone, _resample(pert, rng)))
    warn = any(v != verdicts[0] for v in verdicts[1:])
    notes = []
    if isinstance(verdicts[0], FirstOrderVanishes):
        notes.append(FirstOrderVanishes.note)
    if warn:
        notes.append("GenericityWarning: random re-instantiations of the "
                     "perturbation disagree on the weight")
    notes.append(NORMALITY_NOTE)
    return WeightResult(verdicts[0], verdicts, warn, notes)


# ---------------------------------------------------------------------------
# predicted asymptotic rates


@dataclass
class RateInput:
    n: int                       # complex dimension of the smoothing
    alpha: Fraction              # -K_X = alpha * D
    weight_abs: int              # |w|
    compactly_supported: bool = False

    def __post_init__(self):
        self.alpha = Fraction(self.alpha)
        if self.n < 2:
            raise ValueError("n must be at least 2")
        if self.alpha <= 1:
            raise ValueError("alpha must exceed 1")
        if self.weight_abs < 1:
            raise ValueError("|w| must be positive")


@dataclass
class RateResult:
    lambda1: Fraction
    metric_rate: Fraction
    notes: list


def predicted_rate(r: RateInput) -> RateResult:
    """lambda_1 = n|w|/(alpha-1) and the induced metric decay rate."""
    lam = Fraction(r.n * r.weight_abs, 1) / (r.alpha - 1)
    cap = Fraction(2 * r.n) if r.compactly_supported else Fraction(2)
    notes = []
    if r.n == 2:
        notes.append("hypothesis note: weight = embedding order is proven "
                     "for n >= 3 only; for n = 2 the identity is expected "
                     "but not established")
    return RateResult(lam, min(cap, lam), notes)


# ---------------------------------------------------------------------------
# stock examples


def cubic_cone() -> ConeSingularity:
    """z1^3 + z2^3 + z3^3 + z4^3 = 0 in C^4."""
    f = Polynomial(4, {tuple(3 if j == i else 0 for j in range(4)): 1
                       for i in range(4)})
    return ConeSingularity(4, [(f, 3)])


def ordinary_double_point(n: int) -> ConeSingularity:
    """Sum of squares in C^(n+1); n is the dimension of the singularity."""
    nv = n + 1
    f = Polynomial(nv, {tuple(2 if j == i else 0 for j in range(nv)): 1
                        for i in range(nv)})
    return ConeSingularity(nv, [(f, 2)])


def two_quadric_cone() -> ConeSingularity:
    """{sum z_i^2 = 0, sum lam_i z_i^2 = 0} in C^5 with the distinct
    weights lam_i = i, i = 1..5."""
    sq = lambda i: tuple(2 if j == i else 0 for j in range(5))
    f1 = Polynomial(5, {sq(i): 1 for i in range(5)})
    f2 = Polynomial(5, {sq(i): i + 1 for i in range(5)})
    return ConeSingularity(5, [(f1, 2), (f2, 2)])
