"""The bits of the seeded stream and of one phase-point sample, pinned by SHA-256.

Every seeded figure (the pointwise sweep, the velocity-independence states,
the fit) starts from ``make_rng(seed)``.  The golden figures notice a new
stream only where a figure moves by more than 1e-6 relative; these hashes
notice any change of bit generator, seeding or sampler arithmetic.  PCG64's
bits and the sampler's elementwise IEEE arithmetic are the same on every
platform and Python; a change here is to be recorded, not absorbed.
"""

import hashlib

import numpy as np
import pytest

from twocenter import Problem
from twocenter.sampling import make_rng, sample_phase_points


def digest(*arrays) -> str:
    """SHA-256 of the little-endian float64 bytes of the arrays, one after another."""
    return hashlib.sha256(b"".join(np.ascontiguousarray(a, dtype="<f8").tobytes() for a in arrays)).hexdigest()


DRAWS = {
    # 1,000 points of the default problem and radii, q then p
    "sample": (lambda: sample_phase_points(Problem(), 1000, make_rng(0)),
               "4025a20f53396acd7bb6e1187501cbb07c6680219726c78d8570097451489c58"),
    # the largest seed's first two doubles
    "top seed": (lambda: (make_rng(2**64 - 1).random(2),),
                 "1a0883296c45480b400b4a13ab07dd5c64b8a71d2ae8f82376ce45d69a05660e"),
}


@pytest.mark.parametrize("name", DRAWS)
def test_seeded_draw_has_recorded_bits(name):
    draw, sha256 = DRAWS[name]
    assert digest(*draw()) == sha256
