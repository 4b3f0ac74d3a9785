"""Expected improvement for minimization.

EI(x) = (best - mu - zeta) * Phi(z) + sigma * phi(z),  z = (best - mu - zeta) / sigma

where Phi/phi are the standard normal CDF/PDF. Shared by both optimizers;
callers are expected to pass posterior statistics and the incumbent in the
same (standardized) scale so zeta is problem-scale-free.
"""

from __future__ import annotations

import numpy as np
from scipy.special import ndtr

DEGENERATE_STD = 1e-12
ZETA = 0.01        # both optimizers' exploration offset, in standardized units


def _norm_pdf(z):
    return np.exp(-0.5 * z * z) / np.sqrt(2.0 * np.pi)


def expected_improvement(mean, std, best_value: float, zeta: float = 0.0):
    """EI of a Normal(mean, std^2) posterior against the incumbent best.

    Vectorized over ``mean``/``std``. Degenerate posteriors (std below 1e-12)
    return the deterministic limit max(best - mean - zeta, 0).
    """
    mean = np.asarray(mean, dtype=float)
    std = np.asarray(std, dtype=float)
    improvement = best_value - mean - zeta
    degenerate = std < DEGENERATE_STD
    safe_std = np.where(degenerate, 1.0, std)
    z = improvement / safe_std
    ei = improvement * ndtr(z) + safe_std * _norm_pdf(z)
    ei = np.where(degenerate, np.maximum(improvement, 0.0), ei)
    ei = np.maximum(ei, 0.0)
    if ei.ndim == 0:
        return float(ei)
    return ei


def score_grid(means, stds, best_value: float, zeta: float = 0.0) -> np.ndarray:
    """Elementwise EI over a grid of posterior statistics."""
    means = np.asarray(means, dtype=float)
    stds = np.asarray(stds, dtype=float)
    if means.size == 0:
        raise ValueError("score_grid needs a non-empty posterior list")
    if means.shape != stds.shape:
        raise ValueError("means and stds must have matching shapes")
    return np.asarray(expected_improvement(means, stds, best_value, zeta))
