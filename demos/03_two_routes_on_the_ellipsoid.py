"""Two ways to move a point on the ellipsoid, one curve.

Route A integrates the planar problem in the intrinsic time tau, where
dtau/dt = W^2 = 1/|q|_*^2, and projects every sample centrally onto the
ellipsoid.  Route B lifts only the initial condition and integrates the
intrinsic constrained ODE Q'' = F_tan(Q) - |Q'|_*^2 Q directly on the
manifold.  The theorem says both produce the same curve; here they agree
to ~1e-10 while the intrinsic route also conserves the ellipsoidal energy G.
"""

import numpy as np

from twocenter import PhasePoint, Problem, integrate_ellipsoid
from twocenter.verify import check_energy_drift, check_two_routes, planar_route

prob = Problem(1.0, 1.0, 1.0)
start = PhasePoint(np.array([0.0, 2.0, 0.0]), np.array([0.3, 0.0, 0.6]))

tau_a, q_a, _ = planar_route(start.q, start.p, prob, tau_end=5.0)
print(f"route A: planar integration in tau, {len(tau_a) - 1} accepted steps, "
      f"ending at tau = {tau_a[-1]:g} (about t = {tau_a[-1] * 3:.0f}: the orbit sits near |q|_*^2 ~ 3)")

traj_b = integrate_ellipsoid(start, prob, 5.0)  # lifts the start itself
print(f"route B: intrinsic integration, {len(traj_b) - 1} accepted steps")
print(f"         |Q|_* - 1 stayed below {traj_b.diagnostics['norm_residual'].max():.2e}, "
      f"(Q, Q')_* below {traj_b.diagnostics['tangency_residual'].max():.2e}")

print()
print(check_two_routes(start, traj_b).line())
print(check_energy_drift(traj_b).line())
