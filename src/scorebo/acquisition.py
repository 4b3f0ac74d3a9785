"""Expected improvement for minimization.

EI(x) = (best - mu - zeta) * Phi(z) + sigma * phi(z),  z = (best - mu - zeta) / sigma

where Phi/phi are the standard normal CDF/PDF. One routine, ``score_grid``,
serves both optimizers: it is elementwise over arrays of any shape and
returns a float for 0-d input. Callers are expected to pass posterior
statistics and the incumbent in the same (standardized) scale so zeta is
problem-scale-free.
"""

from __future__ import annotations

import numpy as np
from scipy.special import ndtr

DEGENERATE_STD = 1e-12
ZETA = 0.01        # both optimizers' exploration offset, in standardized units


def _norm_pdf(z):
    return np.exp(-0.5 * z * z) / np.sqrt(2.0 * np.pi)


def score_grid(means, stds, best_value: float, zeta: float = 0.0):
    """EI of Normal(mean, std^2) posteriors against the incumbent best.

    Elementwise over ``means``/``stds``, which must be non-empty and of one
    shape; a 0-d input gives a float. Degenerate posteriors (std below
    1e-12) return the deterministic limit max(best - mean - zeta, 0).
    """
    means = np.asarray(means, dtype=float)
    stds = np.asarray(stds, dtype=float)
    if means.size == 0:
        raise ValueError("score_grid needs a non-empty posterior list")
    if means.shape != stds.shape:
        raise ValueError("means and stds must have matching shapes")
    improvement = best_value - means - zeta
    degenerate = stds < DEGENERATE_STD
    safe_std = np.where(degenerate, 1.0, stds)
    z = improvement / safe_std
    ei = improvement * ndtr(z) + safe_std * _norm_pdf(z)
    ei = np.where(degenerate, np.maximum(improvement, 0.0), ei)
    ei = np.maximum(ei, 0.0)
    if ei.ndim == 0:
        return float(ei)
    return ei
