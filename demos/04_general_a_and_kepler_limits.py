"""Centers at distance 2a: adjusted weights, fitted relations, Kepler limits.

For centers at (+-a, 0, 0) the ellipsoid gets weights 1/(1+a^2) on y and z
and the energy picks up a coefficient 2/(1+a^2).  The affine relation
between G and (J, E, Theta^2, 1) survives with the a-dependent
coefficients (2/(1+a^2), 1/(1+a^2), -a^2/(1+a^2)^2, 0); a least-squares
fit that knows nothing of them recovers them to machine precision.
Shrinking a merges the centers and the Euler integral degenerates to the
squared angular momentum at first order in a.
"""

import numpy as np

from twocenter import (
    PhasePoint,
    Problem,
    fit_integral_relation,
    integrate_ellipsoid,
    kepler_limit_residual,
    relation_coefficients,
)
from twocenter.verify import check_energy_drift

start = PhasePoint(np.array([0.0, 2.0, 0.0]), np.array([0.3, 0.0, 0.6]))

print("coefficients of G = l_J J + l_E E + l_T2 Theta^2 + l_0, fitted and closed form:")
print(f"{'a':>5} {'':>7} {'l_J':>12} {'l_E':>12} {'l_T2':>12} {'l_0':>10} {'residual':>10}")
for a in (0.5, 1.0, 2.0):
    rel = fit_integral_relation(Problem(1.0, 1.0, a), 512, seed=1)
    print(f"{a:5.2f} {'fitted':>7} {rel.lambda_J:12.8f} {rel.lambda_E:12.8f} "
          f"{rel.lambda_theta2:12.8f} {rel.lambda_0:10.2e} {rel.max_residual:10.2e}")
    l_j, l_e, l_t2, l_0 = relation_coefficients(a)
    print(f"{'':5} {'closed':>7} {l_j:12.8f} {l_e:12.8f} {l_t2:12.8f} {l_0:10.2e}")

print("\nenergy conservation along intrinsic trajectories:")
for a in (0.5, 1.0, 2.0):
    prob = Problem(1.0, 1.0, a)
    traj = integrate_ellipsoid(start, prob, 5.0)
    result = check_energy_drift(traj)
    print(f"  a = {a:<4} {result.line()}")

print("\nmerged-centers (Kepler) limit, single mass, |E - |q x p|^2|:")
prob = Problem(1.0, 0.0, 1e-4)
q = np.array([1.0, 1.0, 0.5])
p = np.array([0.2, 0.4, 0.1])
prev = None
for a_small in (1e-4, 5e-5, 2.5e-5, 1.25e-5):
    res = float(kepler_limit_residual(q, p, prob, a_small))
    note = "" if prev is None else f"   ratio vs previous: {prev / res:.4f}"
    print(f"  a = {a_small:.2e}   residual = {res:.6e}{note}")
    prev = res
print("  halving a halves the residual: the limit is first order in a")
