"""The million-point path holds each large array once.

The sampler writes its accepted rows straight into the arrays it returns,
and the fit releases its sample before ``np.linalg.lstsq`` makes its own copy
of the design.  LAPACK's copy is allocated inside numpy's C wrapper, where
tracemalloc does not see it, so the fit is checked with weak references to
the sample instead of a traced peak.
"""

import tracemalloc
import weakref

import numpy as np
import pytest

from twocenter import Problem, fit_integral_relation, make_rng, sample_phase_points
from twocenter import projective, sampling


@pytest.mark.parametrize("n", [64, 3 * projective._ROWS + 5])  # one pass, and row blocks
def test_fit_releases_its_sample_before_the_solve(n, monkeypatch):
    sample = []
    lstsq = np.linalg.lstsq

    def recording_sampler(*args, **kwargs):
        q, p = sample_phase_points(*args, **kwargs)
        sample.extend((weakref.ref(q), weakref.ref(p)))
        return q, p

    def checking_lstsq(design, g, rcond=None):
        assert sample and all(ref() is None for ref in sample), "the sample is still alive at the solve"
        return lstsq(design, g, rcond=rcond)

    monkeypatch.setattr(projective, "sample_phase_points", recording_sampler)
    monkeypatch.setattr(np.linalg, "lstsq", checking_lstsq)
    fit_integral_relation(Problem(1.0, 0.5, 2.0), n, seed=3)


@pytest.mark.parametrize("n", [1, 1000, 100_000])
def test_sampler_returns_arrays_that_own_their_data(n):
    q, p = sample_phase_points(Problem(), n, make_rng(n))
    for values in (q, p):
        assert values.shape == (n, 3) and values.base is None


def test_sampler_peak_is_its_output_and_a_few_blocks():
    """At 10^6 points the draw and the accepted rows stay within a few blocks
    beyond the 48 MB returned; a list of chunks concatenated at the end holds
    about 2.1 n rows per ball instead."""
    n = 1_000_000
    sample_phase_points(Problem(), 16, make_rng(0))  # first-call allocations are not the sampler's
    tracemalloc.start()
    try:
        q, p = sample_phase_points(Problem(), n, make_rng(3))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    block_bytes = sampling._BLOCK * 3 * q.itemsize
    assert peak <= q.nbytes + p.nbytes + 3 * block_bytes
