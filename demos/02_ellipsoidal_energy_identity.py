"""The ellipsoidal energy is an affine combination of the first integrals.

Lifting any planar phase point (q, p) to the ellipsoid gives a projected
point Q and a tau-velocity Q'; the energy of that projected state,

    G = |Q'|_*^2 - (2/(1+a^2)) sum_j m_j u_j / sqrt(1 - u_j^2),

equals

    (2J + E)/(1+a^2) - a^2 Theta^2/(1+a^2)^2

pointwise for centers at (+-a, 0, 0), whatever the masses.  For a = 1 this
is J + E/2 - Theta^2/4.  No integration is involved: the identity holds at
every single phase point, which this script checks on large seeded sweeps.
"""

import numpy as np

from twocenter import (
    Problem,
    axial_angular_momentum,
    energy_arrays,
    euler_integral,
    hamiltonian,
    lift_arrays,
    relation_coefficients,
    relation_residual,
)
from twocenter.sampling import make_rng, sample_phase_points

prob = Problem(1.0, 1.0, 1.0)
metric = prob.metric()

# one point, spelled out
q = np.array([0.0, 1.0, 0.0])
p = np.array([0.0, 0.0, 1.0])
big_q, qp = lift_arrays(q, p, metric)  # the projected point Q and its tau-velocity Q'
G = energy_arrays(big_q, qp, prob)
J = hamiltonian(q, p, prob)
E = euler_integral(q, p, prob)
Th = axial_angular_momentum(q, p)
print(f"G                    = {G:+.15f}")
print(f"J + E/2 - Theta^2/4  = {J + E / 2 - Th**2 / 4:+.15f}")

# ten thousand points per a, max residual
print("\nmax |G - (l_J J + l_E E + l_T2 Theta^2)| over 10000 points:")
for a, masses in ((1.0, (1.0, 1.0)), (0.5, (1.0, 1.0)), (2.0, (0.3, 1.7)), (3.0, (1.0, 0.0))):
    prob = Problem(*masses, a)
    l_j, l_e, l_t2, _ = relation_coefficients(a)
    qs, ps = sample_phase_points(prob, 10_000, make_rng(42))
    worst = np.max(np.abs(relation_residual(qs, ps, prob)))
    coeffs = f"({l_j:.4g}, {l_e:.4g}, {l_t2:.4g})"
    print(f"  a = {a:<4} masses {masses}   (l_J, l_E, l_T2) = {coeffs:<20} {worst:.3e}")
