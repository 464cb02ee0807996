"""Epsilons that sit on float ties, shared by the test modules."""

import numpy as np


def _tie_epsilons(values, rng):
    """An actual positive difference of two entries and its two float neighbours."""
    flat = np.asarray(values, dtype=float).ravel()
    diffs = np.abs(flat[:, None] - flat[None, :])
    d = float(rng.choice(diffs[diffs > 0]))
    return d, float(np.nextafter(d, 0.0)), float(np.nextafter(d, np.inf))
