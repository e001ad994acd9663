# Solving the Beltrami equation dz/dzbar + a(z) dzbar/dzbar = 0 on a
# punctured disk by the modified-Cauchy-transform fixed point
#
#     zfrak  <-  Ttilde( -a(zeta + zfrak) (1 + conj(d zfrak)) ),
#
# measured in the scaling-weighted Hoelder norm on geometric annuli.

import numpy as np

from conedeform.dbar import (DiskField, DiskGrid, HolderParams,
                             PerturbationModel, contraction_study,
                             modified_transform, solve_beltrami)

# Calibration: the transform of 1 is conj(zeta) exactly.
grid = DiskGrid(0.5, 12, 64, 8)
one = DiskField.from_function(grid, lambda z: np.ones_like(z))
T1 = modified_transform(one)
print("calibration |Ttilde(1) - conj(z)| =",
      float(np.abs(T1.values - np.conj(grid.nodes())).max()))
print()

# A constant coefficient has the exact solution zfrak = -c conj(zeta); the
# iteration lands on it immediately.
c = 0.04 + 0.02j
sol = solve_beltrami(PerturbationModel.constant(c), HolderParams(0.5, 0.0),
                     R=0.4, tol=1e-12, rings=6, angular=32, radial=8,
                     extra_rings=9)
err = np.abs(sol.z_field.values + c * np.conj(sol.z_field.grid.nodes())).max()
print(f"constant model: {sol.iterations} iterations, "
      f"|zfrak + c conj(z)| = {err:.2e}, residual = {sol.residual:.2e}")
print()

# A decaying coefficient a = c (conj(z)/|z|) |z|^0.8: the correction decays
# like |z|^(1+nu).  The residual is the fixed-point defect on an independent
# finer grid, read off the transform's mode coefficients there.
model = PerturbationModel.power(0.05, 0.8)
params = HolderParams(0.5, 0.6)
sol = solve_beltrami(model, params, R=0.4, tol=1e-10)
print(f"power model eta=0.8 at R=0.4: {sol.iterations} iterations")
print("  increments:", " ".join(f"{x:.1e}" for x in sol.increments))
print(f"  residual on verification grid: {sol.residual:.2e}")
print(f"  measured decay slope of zfrak: {sol.z_field.measured_decay():.3f} "
      f"(expected >= {1 + params.nu:.2f} - eps)")
print()

# The contraction scaling in the disk radius: the norm of the first iterate
# scales like R^(eta - nu) and the Lipschitz ratio of the map like R^eta.
study = contraction_study(model, params, [0.4, 0.2, 0.1], probes=2)
print("R        ||J[0]||    Lipschitz")
for row in study.rows:
    print(f"{row.R:<8.2f} {row.j0_norm:<11.4f} {row.lipschitz:.5f}")
print(f"||J[0]|| slope: {study.j0_slope:.3f}  (eta - nu = 0.2)")
print(f"Lipschitz slope: {study.lipschitz_slope:.3f}  (>= eta - 0.1)")
