"""The float point sets against the exact residue tally.

``generate`` evaluates digit strings in floats and ``generate_exact`` tallies
them as integer residues; the two share no code.  At a Pisot reciprocal the
coincident strings of a float set form tight clusters far apart from each
other, so cutting the sorted values at every gap above 1e-12 must recover
the exact multiplicities, and the float pair count at any threshold between
the cluster width and the cluster spacing must equal the exact coincidence
count.  At a Garsia parameter no two strings coincide.
"""

import numpy as np
import pytest

from bcvlab import Form, coincidence_rate, generate, generate_exact, stats
from oracles import bisect_root

# Constant-first minimal polynomials of Pisot reciprocals in (0, 1):
# x^2+x-1, x^3+x^2-1 and x^3+x^2+x-1.
PISOT_RECIPROCALS = [(-1, 1, 1), (-1, 0, 1, 1), (-1, 1, 1, 1)]
# Garsia x^3-2x-2; its reciprocal root lambda = 0.5652 solves 2x^3+2x^2-1.
GARSIA, GARSIA_RECIPROCAL = (-2, -2, 0, 1), (-1, 0, 2, 2)
THRESHOLDS = np.array([1e-13, 1e-12, 1e-10, 1e-8])
FORMS = [Form.STANDARD, Form.PRIMED]


@pytest.mark.parametrize("form", FORMS)
@pytest.mark.parametrize("levels", [12, 16])
@pytest.mark.parametrize("minpoly", PISOT_RECIPROCALS)
def test_float_clusters_are_exact_multiplicities(minpoly, levels, form):
    values = generate(bisect_root(minpoly, 0.5, 1.0), levels, form).values
    cuts = np.flatnonzero(np.diff(values) > 1e-12) + 1
    sizes = np.diff(np.concatenate(([0], cuts, [values.size])))
    eps = generate_exact(minpoly, levels)
    assert np.sort(sizes).tolist() == np.sort(eps.multiplicities).tolist()
    counts = stats._grid_counts(values, THRESHOLDS)
    assert (2 * counts / 2**levels).tolist() == [coincidence_rate(eps)] * THRESHOLDS.size


@pytest.mark.parametrize("form", FORMS)
@pytest.mark.parametrize("levels", [12, 16])
def test_garsia_float_set_has_no_close_pairs(levels, form):
    values = generate(bisect_root(GARSIA_RECIPROCAL, 0.5, 1.0), levels, form).values
    assert stats._grid_counts(values, THRESHOLDS).tolist() == [0] * THRESHOLDS.size
    assert coincidence_rate(generate_exact(GARSIA, levels)) == 0.0
