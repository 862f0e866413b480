"""Symbolic proof of the closed-form relation between G and the planar integrals.

    G(lift(q, p)) = (2J + E)/(1+a^2) - a^2 Theta^2/(1+a^2)^2

for every a > 0 and all masses.  G, J, E and Theta are written here from their
definitions with sympy, sharing no code with the package, and the identity is
proved in three polynomial pieces; one ``simplify`` of the whole G is far
slower.  The center distances d_-, d_+ stay opaque positive symbols.
"""

import numpy as np
import pytest
import sympy as sp

from twocenter import relation_coefficients

x, y, z, px, py, pz = sp.symbols("x y z p_x p_y p_z", real=True)
a, d_minus, d_plus, n, s = sp.symbols("a d_minus d_plus n s", positive=True)
m_minus, m_plus = sp.symbols("m_minus m_plus", nonnegative=True)

S2 = 1 + a**2  # s^2
W = 1 / S2  # weight of y and z in the star metric
N2 = x**2 + W * (y**2 + z**2) + 1  # n^2 = |(q, 1)|_*^2
LAMBDA_J, LAMBDA_E, LAMBDA_T2 = 2 / S2, 1 / S2, -(a**2) / S2**2

# planar integrals, each split into its kinetic and potential part
J_KIN, J_POT = (px**2 + py**2 + pz**2) / 2, -m_minus / d_minus - m_plus / d_plus
CROSS2 = (y * pz - z * py) ** 2 + (z * px - x * pz) ** 2 + (x * py - y * px) ** 2
E_KIN, E_POT = CROSS2 + a**2 * px**2, 2 * a * x * (m_minus / d_minus - m_plus / d_plus)
THETA = y * pz - z * py


def star_inner(u, v):
    return u[0] * v[0] + W * u[1] * v[1] + W * u[2] * v[2] + u[3] * v[3]


@pytest.mark.parametrize("sign, d", [(-1, d_minus), (1, d_plus)], ids=["minus", "plus"])
def test_center_term_denominator(sign, d):
    """1 - u_j^2 = d_j^2 / (|q|_*^2 (1+a^2)), u_j = (c_j . Q)/sqrt(1+a^2), c_j = (+-a, 0, 0, 1)."""
    u2 = (sign * a * x + 1) ** 2 / (N2 * S2)
    d2 = (x - sign * a) ** 2 + y**2 + z**2
    assert sp.cancel(1 - u2 - d2 / (N2 * S2)) == 0


def test_kinetic_terms():
    """|Q'|_*^2 of the lift Q' = (p, 0) n - (q, 1) ((q, 1), (p, 0))_* / n
    equals the kinetic parts of l_J J + l_E E + l_T2 Theta^2."""
    q4, p4 = (x, y, z, 1), (px, py, pz, 0)
    radial = star_inner(q4, p4)
    # n Q' = p4 n^2 - q4 radial, with n^2 = N2
    scaled = [pi * N2 - qi * radial for pi, qi in zip(p4, q4)]
    speed2 = star_inner(scaled, scaled) / N2
    kinetic = LAMBDA_J * J_KIN + LAMBDA_E * E_KIN + LAMBDA_T2 * THETA**2
    assert sp.cancel(speed2 - kinetic) == 0


def test_potential_terms():
    """-(2/(1+a^2)) sum_j m_j u_j / sqrt(1 - u_j^2) equals the potential parts
    of l_J J + l_E E, and Theta^2 carries none."""
    # by the first identity sqrt(1 - u_j^2) = d_j / (n s) with n, s, d_j > 0
    ratio = {
        d_minus: ((-a * x + 1) / (n * s)) / (d_minus / (n * s)),
        d_plus: ((a * x + 1) / (n * s)) / (d_plus / (n * s)),
    }
    potential = -(2 / S2) * (m_minus * ratio[d_minus] + m_plus * ratio[d_plus])
    assert sp.cancel(potential - (LAMBDA_J * J_POT + LAMBDA_E * E_POT)) == 0


@pytest.mark.parametrize("a_value", [0.25, 0.5, 1.0, 2.0, 3.0, 4.0])
def test_relation_coefficients_match_proof(a_value):
    proved = [float(lam.subs(a, a_value)) for lam in (LAMBDA_J, LAMBDA_E, LAMBDA_T2)]
    got = relation_coefficients(a_value)
    assert np.allclose(got[:3], proved, rtol=1e-15, atol=0) and got[3] == 0.0
