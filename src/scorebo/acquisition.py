"""Expected improvement for minimization.

EI(x) = (best - mu - zeta) * Phi(z) + sigma * phi(z),  z = (best - mu - zeta) / sigma

where Phi/phi are the standard normal CDF/PDF. One routine, ``score_grid``,
serves both optimizers: it is elementwise over arrays of any shape and
returns a float for 0-d input. It computes the expression above in place,
in a few work arrays, with the textbook form's operations in its order, so
its results are that form's to the bit. Callers are expected to pass
posterior statistics and the incumbent in the same (standardized) scale so
zeta is problem-scale-free.
"""

from __future__ import annotations

import numpy as np
from scipy.special import ndtr

DEGENERATE_STD = 1e-12
ZETA = 0.01        # both optimizers' exploration offset, in standardized units


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
    if means.ndim == 0:
        return float(score_grid(means[None], stds[None], best_value, zeta)[0])
    # the operations of the textbook form, in its order; products and sums
    # are commutative in IEEE arithmetic, so swapping operands keeps bits
    improvement = best_value - means
    improvement -= zeta
    degenerate = stds < DEGENERATE_STD
    safe_std = np.where(degenerate, 1.0, stds)
    z = improvement / safe_std
    pdf = -0.5 * z                       # phi(z), in place
    pdf *= z
    np.exp(pdf, out=pdf)
    pdf /= np.sqrt(2.0 * np.pi)
    pdf *= safe_std
    ei = ndtr(z, out=z)
    ei *= improvement
    ei += pdf
    np.copyto(ei, np.maximum(improvement, 0.0), where=degenerate)
    return np.maximum(ei, 0.0, out=ei)
