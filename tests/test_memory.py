"""The million-point path holds each large array once.

The sampler writes its accepted rows straight into the arrays it returns.
The fit draws its sample a chunk of rows at a time and keeps only each
chunk's rows [J, E, Theta^2, G], 32 B per point: it makes no array of the
sample's length.  Its solve runs on the stacked 5 x 5 factors of the
chunks, so no LAPACK routine copies a whole design outside tracemalloc's
view, and traced memory bounds both.
"""

import tracemalloc

import numpy as np
import pytest

from twocenter import Problem, fit_integral_relation, make_rng, sample_phase_points
from twocenter import projective, sampling


def traced_peak(fn, *args):
    """The tracemalloc peak of fn(*args), and what it returned."""
    tracemalloc.start()
    try:
        value = fn(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak, value


def test_fit_peak_is_its_kept_rows_and_a_few_chunks():
    """At 10^6 points the fit holds its 32 MB of kept rows and the temporaries
    of one chunk, each chunk freed before the next is drawn; a whole sample of
    q and p would add 48 MB (measured: 34.4 MB)."""
    n = 1_000_000
    prob = Problem(1.0, 1.0, 2.0)
    fit_integral_relation(prob, 64)  # first-call allocations are not the fit's
    peak, relation = traced_peak(fit_integral_relation, prob, n, 3)
    assert relation.max_residual <= 1e-8
    kept_bytes = n * 4 * np.dtype(float).itemsize  # rows [J, E, Theta^2, G]
    block_bytes = projective._ROWS * 5 * np.dtype(float).itemsize  # one chunk's rows [J, E, Theta^2, 1, G]
    assert peak <= kept_bytes + 5 * block_bytes


@pytest.mark.parametrize("n", [64, 3 * projective._ROWS + 5])  # one chunk, and four
def test_fit_releases_its_sample_before_the_solve(n, monkeypatch):
    """By the solve only the last chunk of the sample is held, beside the kept
    rows [J, E, Theta^2, G]; lstsq is handed the stacked 5 x 5 factors, not a
    design of the sample's length."""
    prob = Problem(1.0, 0.5, 2.0)
    fit_integral_relation(prob, n, 3)  # first-call allocations are not the fit's
    blocks = -(-n // projective._ROWS)
    at_solve = []
    lstsq = np.linalg.lstsq

    def checking_lstsq(design, g, rcond=None):
        at_solve.append(tracemalloc.get_traced_memory()[0])
        assert design.shape == (5 * blocks, 4) and g.shape == (5 * blocks,)
        return lstsq(design, g, rcond=rcond)

    monkeypatch.setattr(np.linalg, "lstsq", checking_lstsq)
    traced_peak(fit_integral_relation, prob, n, 3)
    kept_bytes = n * 4 * np.dtype(float).itemsize
    block_bytes = min(n, projective._ROWS) * 5 * np.dtype(float).itemsize
    assert at_solve and at_solve[-1] <= kept_bytes + 2 * block_bytes + 16 * 1024  # 16 KiB of Python objects


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
    peak, (q, p) = traced_peak(sample_phase_points, Problem(), n, make_rng(3))
    block_bytes = sampling._BLOCK * 3 * q.itemsize
    assert peak <= q.nbytes + p.nbytes + 3 * block_bytes
