"""The bits of three default runs, pinned by SHA-256.

The generated Dormand-Prince runs work on Python floats and ``math`` only,
and add their error norms explicitly, left to right, where the builtin
``sum`` would be compensated from Python 3.12 on.  So one run gives the same
time grid and states on every supported Python (3.10 to 3.13); each CI job
checks these hashes.  The ellipsoid run starts from the default planar start
itself, which ``integrate_ellipsoid`` lifts with numpy's correctly rounded
arithmetic (one ``lift_arrays`` call, whose Q is ``project(q)``).

``x ** 2`` and the step controller's ``err ** -0.17`` go through libm's
``pow``, so a platform whose libm rounds differently may change a last bit;
such a difference is to be recorded, not absorbed by loosening this test.
"""

import hashlib

import numpy as np
import pytest

from twocenter import PhasePoint, Problem, integrate_ellipsoid, integrate_planar

START = PhasePoint(np.array([0.0, 2.0, 0.0]), np.array([0.3, 0.0, 0.6]))  # the CLI's default q0, p0
PROBLEM = Problem()


def digest(traj) -> str:
    """SHA-256 of the little-endian float64 bytes of the times, then of the states row by row."""
    data = b"".join(np.ascontiguousarray(values, dtype="<f8").tobytes() for values in (traj.times, traj.states))
    return hashlib.sha256(data).hexdigest()


RUNS = {
    # simulate's default orbit: t = 50, 1,956 steps
    "planar t": (lambda: integrate_planar(START, PROBLEM, 50.0), 1957,
                 "65f8cb3a35b967b9ba0aa65336d6ebd1e041313780cd6a6534e0ee7fa9da4357"),
    # verify-theorem's route A at a = 1: tau = 5, 657 steps
    "planar tau": (lambda: integrate_planar(START, PROBLEM, 5.0, clock="tau"), 658,
                   "c9cfefb8a23b40fb3fba8bc9b942310dbe57182b6d4db0c1ad40e0ff4251d6ef"),
    # verify-theorem's intrinsic run at a = 1: tau = 5, 611 steps
    "ellipsoid": (lambda: integrate_ellipsoid(START, PROBLEM, 5.0), 612,
                  "4852fbc4a0350332f8b1fb61a31382c79bd3a3374084ee2c11fb76af16456702"),
}


@pytest.mark.parametrize("name", RUNS)
def test_default_run_has_recorded_bits(name):
    run, samples, sha256 = RUNS[name]
    traj = run()
    assert traj.status == "ok"
    assert len(traj) == samples
    assert digest(traj) == sha256
