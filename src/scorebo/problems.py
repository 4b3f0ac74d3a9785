"""Benchmark objectives: the Ackley function and single-diode IV fitting.

The single-diode model (SDM) relates a solar panel's current I and voltage V
through five parameters:

    I = I_L - I_o * (exp((V + I*R_s) / a) - 1) - (V + I*R_s) / R_sh

The fitting objective matches the three datasheet points commonly available
in practice (short-circuit current, maximum power point, open-circuit
voltage). Because no real panel datasheet ships with this package, the
default targets are those of a known ground truth, forward-simulated once
and shipped as constants, which makes the global minimum of the fit exactly
zero.
"""

from __future__ import annotations

import math
import sys
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from .errors import ConfigurationError, SolverError
from .space import SearchSpace, make_grid

RESIDUAL_SENTINEL = sys.float_info.max  # flagged failed inner solve; finite on purpose


# ---------------------------------------------------------------------------
# Ackley

ACKLEY_A = 20.0
ACKLEY_B = 0.2
ACKLEY_C = 2.0 * math.pi
ACKLEY_LO = -5.0
ACKLEY_HI = 10.0


def ackley(point) -> float:
    """Standard Ackley function; global minimum 0 at the origin."""
    x = np.asarray(point, dtype=float)
    n = x.size
    term1 = -ACKLEY_A * math.exp(-ACKLEY_B * math.sqrt(np.sum(x * x) / n))
    term2 = -math.exp(np.sum(np.cos(ACKLEY_C * x)) / n)
    return term1 + term2 + ACKLEY_A + math.e


def ackley_space(dims: int, points: int = 61) -> SearchSpace:
    """Identical linear grids on [ACKLEY_LO, ACKLEY_HI] in every dimension.

    The default 61-point mesh on [-5, 10] has step 0.25, which places the
    global minimizer 0.0 exactly on the grid.
    """
    grids = tuple(make_grid(ACKLEY_LO, ACKLEY_HI, points, "linear", name=f"x{d}")
                  for d in range(dims))
    return SearchSpace(grids)


# ---------------------------------------------------------------------------
# Single-diode model


@dataclass(frozen=True)
class SdmParams:
    """Five-parameter single-diode model of a solar panel."""

    i_l: float    # light-induced current (A)
    i_o: float    # saturation current (A)
    r_s: float    # series resistance (ohm)
    r_sh: float   # shunt resistance (ohm)
    a: float      # modified ideality factor (V)

    def __post_init__(self):
        if not (self.i_l >= 0 and self.i_o > 0 and self.r_s >= 0
                and self.r_sh > 0 and self.a > 0):
            raise ValueError(f"invalid SDM parameters: {self}")


@dataclass(frozen=True)
class IvTargets:
    """The three datasheet points fitted: Isc, MPP and Voc."""

    isc: float
    vmp: float
    imp: float
    voc: float

    def __post_init__(self):
        vals = (self.isc, self.vmp, self.imp, self.voc)
        if not all(math.isfinite(v) and v > 0 for v in vals):
            raise ValueError(f"IV targets must be positive and finite: {self}")
        if not (self.vmp < self.voc and self.imp < self.isc):
            raise ValueError(f"IV targets must satisfy vmp < voc and imp < isc: {self}")


DEFAULT_GROUND_TRUTH = SdmParams(i_l=9.0, i_o=3e-10, r_s=0.35, r_sh=800.0, a=1.9)
BISECTION_TOL = 1e-10      # bracket width at which the SDM current solve stops
BISECTION_MAX_ITER = 200


def sdm_current(params: SdmParams, v: float) -> float:
    """Output current at voltage ``v``: the unique root of the implicit SDM.

    g(I) = I_L - I_o*(exp((v + I*R_s)/a) - 1) - (v + I*R_s)/R_sh - I is
    strictly decreasing in I, so bisection on a sign-changing bracket is
    guaranteed to converge.
    """
    if not math.isfinite(v):
        raise ValueError(f"voltage must be finite, got {v}")
    if params.r_s == 0.0:
        # explicit equation; no solve needed
        return params.i_l - params.i_o * math.expm1(v / params.a) - v / params.r_sh

    def g(i: float) -> float:
        drop = v + i * params.r_s
        # math.exp overflows around 709; in that regime g is hugely negative
        arg = drop / params.a
        if arg > 700.0:
            return -math.inf
        return (params.i_l - params.i_o * math.expm1(arg)
                - drop / params.r_sh - i)

    lo = -params.i_l - abs(v) / params.r_sh - 1.0
    hi = params.i_l + 1.0
    g_lo, g_hi = g(lo), g(hi)
    expansions = 0
    while g_lo * g_hi > 0:
        expansions += 1
        if expansions > 10:
            raise SolverError(
                f"no sign change for SDM current at v={v} with {params}")
        lo *= 2.0
        hi *= 2.0
        g_lo, g_hi = g(lo), g(hi)

    for _ in range(BISECTION_MAX_ITER):
        mid = 0.5 * (lo + hi)
        g_mid = g(mid)
        if g_mid == 0.0 or (hi - lo) < BISECTION_TOL:
            return mid
        if g_lo * g_mid < 0:
            hi = mid
        else:
            lo, g_lo = mid, g_mid
    return 0.5 * (lo + hi)


def sdm_residual(params: SdmParams, targets: IvTargets) -> float:
    """RMS of the three relative errors at (0, Isc), (Vmp, Imp) and (Voc, 0).

    All errors are normalized by Isc. A failed inner solve returns the
    largest finite float as a sentinel instead of raising.
    """
    try:
        e_isc = (sdm_current(params, 0.0) - targets.isc) / targets.isc
        e_mpp = (sdm_current(params, targets.vmp) - targets.imp) / targets.isc
        e_voc = sdm_current(params, targets.voc) / targets.isc
    except SolverError:
        return RESIDUAL_SENTINEL
    return math.sqrt((e_isc**2 + e_mpp**2 + e_voc**2) / 3.0)


def make_synthetic_datasheet() -> IvTargets:
    """The three datasheet points of ``DEFAULT_GROUND_TRUTH``.

    Isc is ``sdm_current`` at 0 V and Voc the zero of the current (Brent's
    method, xtol 1e-12); the maximum power point comes from a 2 000-voltage
    scan on [0, Voc] refined by a bounded golden-section search (xatol
    1e-10) between the best scanned value's neighbours. They never change,
    so they are written out here; ``tests/test_problems.py`` derives them
    again and checks every bit.
    """
    return IvTargets(isc=8.996064220664266, vmp=37.24934710678464,
                     imp=8.481989619277986, voc=45.824348933404316)


def sdm_space(targets: IvTargets) -> SearchSpace:
    """Fitting grids spanning the physically plausible parameter ranges.

    Log meshes are used for the parameters spanning several orders of
    magnitude (saturation current, shunt resistance).
    """
    return SearchSpace((
        make_grid(0.8 * targets.isc, 1.2 * targets.isc, 41, "linear", name="i_l"),
        make_grid(1e-12, 1e-6, 61, "log", name="i_o"),
        make_grid(0.0, 1.0, 41, "linear", name="r_s"),
        make_grid(10.0, 1e4, 41, "log", name="r_sh"),
        make_grid(1.0, 4.0, 31, "linear", name="a"),
    ))


def sdm_objective(targets: IvTargets):
    """Objective over points in sdm_space order: (i_l, i_o, r_s, r_sh, a)."""
    def objective(point) -> float:
        params = SdmParams(*[float(x) for x in point])
        return sdm_residual(params, targets)
    return objective


def save_datasheet(path, targets: IvTargets) -> None:
    """Write the datasheet fixture as key=value lines."""
    lines = [f"{k}={v!r}" for k, v in asdict(targets).items()]
    Path(path).write_text("\n".join(lines) + "\n")


def load_datasheet(path) -> IvTargets:
    """Read a datasheet fixture written by save_datasheet.

    Keys other than the targets' are ignored, whatever their values. A
    file that cannot be read or is not UTF-8, a missing key, a value that
    is not a number, or targets that are not a valid datasheet raise
    ``ConfigurationError`` naming the file.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigurationError(f"cannot read datasheet {path}: {exc}") from None
    names = tuple(f.name for f in fields(IvTargets))
    values: dict[str, float] = {}
    for line in text.splitlines():
        key, _, value = line.strip().partition("=")
        key = key.strip()
        if key not in names:          # blank and '#' lines, and other keys
            continue
        try:
            values[key] = float(value)
        except ValueError:
            raise ConfigurationError(f"{path}: {key} is not a number: {value!r}") from None
    try:
        return IvTargets(**{name: values[name] for name in names})
    except KeyError as exc:
        raise ConfigurationError(f"{path}: missing key {exc}") from None
    except ValueError as exc:
        raise ConfigurationError(f"{path}: {exc}") from None
