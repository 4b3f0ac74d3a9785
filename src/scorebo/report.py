"""Convergence traces, CSV serialization, and SVG line plots.

The CSV column set is fixed: method, seed, iteration, evals, best_value,
iter_time_ms, cum_time_ms. Floats are written with repr so that repeated
runs of the same seeded configuration produce byte-identical files apart
from the timing columns.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path

from .errors import ConfigurationError

CSV_COLUMNS = ("method", "seed", "iteration", "evals", "best_value",
               "iter_time_ms", "cum_time_ms")

_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
           "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf")


@dataclass
class TraceRow:
    iteration: int
    evals: int
    best_value: float
    iter_time_ms: float
    cum_time_ms: float


@dataclass
class ConvergenceTrace:
    method: str
    seed: int
    rows: list[TraceRow] = field(default_factory=list)

    def append(self, row: TraceRow) -> None:
        if self.rows:
            last = self.rows[-1]
            if row.evals <= last.evals:
                raise ValueError("evals must be strictly increasing")
            if row.best_value > last.best_value:
                raise ValueError("best_value must be nonincreasing")
        self.rows.append(row)

    @property
    def best_value(self) -> float:
        return self.rows[-1].best_value

    @property
    def total_evals(self) -> int:
        return self.rows[-1].evals

    @property
    def total_time_ms(self) -> float:
        return self.rows[-1].cum_time_ms


def write_trace_csv(trace: ConvergenceTrace, path) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for r in trace.rows:
            writer.writerow([trace.method, trace.seed, r.iteration, r.evals,
                             repr(r.best_value), repr(r.iter_time_ms),
                             repr(r.cum_time_ms)])


def read_trace_csv(path) -> ConvergenceTrace:
    """Read a trace CSV; a file that cannot be read or is not UTF-8, a wrong
    header, no rows or a bad cell raise ``ConfigurationError``."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            if tuple(reader.fieldnames or ()) != CSV_COLUMNS:
                raise ConfigurationError(f"{path}: unexpected CSV columns {reader.fieldnames}")
            rows = list(reader)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigurationError(f"cannot read trace {path}: {exc}") from None
    if not rows:
        raise ConfigurationError(f"{path}: empty trace")
    try:
        trace = ConvergenceTrace(method=rows[0]["method"], seed=int(rows[0]["seed"]))
        for r in rows:
            trace.append(TraceRow(
                iteration=int(r["iteration"]),
                evals=int(r["evals"]),
                best_value=float(r["best_value"]),
                iter_time_ms=float(r["iter_time_ms"]),
                cum_time_ms=float(r["cum_time_ms"]),
            ))
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"{path}: {exc}") from None
    return trace


# ---------------------------------------------------------------------------
# SVG line plots


def _axis_range(values) -> tuple[float, float]:
    """(lo, hi) of an axis over ``values``, with lo < hi at any finite magnitude.

    A zero span v becomes [v, v + 1] where v + 1 != v, else v and its
    neighbour toward zero, so that not even +-float max overflows.
    """
    lo, hi = min(values), max(values)
    if hi > lo:
        return lo, hi
    hi = lo + 1 if lo + 1 != lo else math.nextafter(lo, 0.0)
    return min(lo, hi), max(lo, hi)


def _ticks(lo: float, hi: float, n: int = 5) -> list[float]:
    span = hi - lo
    return [lo + span * i / (n - 1) for i in range(n)]


def render_svg(traces: list[ConvergenceTrace], kind: str, path) -> None:
    """Render overlaid traces as an SVG line chart.

    kind="convergence": best_value vs evals.
    kind="timing":      cum_time_ms vs iteration.
    Both axes take their range from ``_axis_range``: flat traces of any
    finite magnitude plot with finite coordinates.
    """
    if not traces:
        raise ValueError("need at least one trace to plot")
    if kind == "convergence":
        x_label, y_label = "evals", "best_value"
        series = [([r.evals for r in t.rows], [r.best_value for r in t.rows])
                  for t in traces]
    elif kind == "timing":
        x_label, y_label = "iteration", "cum_time_ms"
        series = [([r.iteration for r in t.rows], [r.cum_time_ms for r in t.rows])
                  for t in traces]
    else:
        raise ValueError(f"unknown report kind {kind!r}")

    margin_l, margin_r, margin_t, margin_b = 70, 160, 30, 50
    plot_w, plot_h = 560, 340
    width = margin_l + plot_w + margin_r
    height = margin_t + plot_h + margin_b

    x_lo, x_hi = _axis_range([x for xs, _ in series for x in xs])
    y_lo, y_hi = _axis_range([y for _, ys in series for y in ys])

    def sx(x):
        return margin_l + plot_w * (x - x_lo) / (x_hi - x_lo)

    def sy(y):
        return margin_t + plot_h * (1 - (y - y_lo) / (y_hi - y_lo))

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<rect x="{margin_l}" y="{margin_t}" width="{plot_w}" height="{plot_h}" '
        'fill="none" stroke="#333"/>',
    ]
    for xt in _ticks(x_lo, x_hi):
        px = sx(xt)
        parts.append(f'<line x1="{px:.1f}" y1="{margin_t + plot_h}" '
                     f'x2="{px:.1f}" y2="{margin_t + plot_h + 5}" stroke="#333"/>')
        parts.append(f'<text x="{px:.1f}" y="{margin_t + plot_h + 20}" '
                     f'font-size="11" text-anchor="middle">{xt:.4g}</text>')
    for yt in _ticks(y_lo, y_hi):
        py = sy(yt)
        parts.append(f'<line x1="{margin_l - 5}" y1="{py:.1f}" '
                     f'x2="{margin_l}" y2="{py:.1f}" stroke="#333"/>')
        parts.append(f'<text x="{margin_l - 8}" y="{py + 4:.1f}" '
                     f'font-size="11" text-anchor="end">{yt:.4g}</text>')

    parts.append(f'<text x="{margin_l + plot_w / 2}" y="{height - 10}" '
                 f'font-size="13" text-anchor="middle" class="x-label">{x_label}</text>')
    parts.append(f'<text x="18" y="{margin_t + plot_h / 2}" font-size="13" '
                 f'text-anchor="middle" class="y-label" '
                 f'transform="rotate(-90 18 {margin_t + plot_h / 2})">{y_label}</text>')

    for i, (trace, (xs, ys)) in enumerate(zip(traces, series)):
        color = _COLORS[i % len(_COLORS)]
        pts = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in zip(xs, ys))
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                     'stroke-width="1.5"/>')
        ly = margin_t + 16 + 18 * i
        lx = margin_l + plot_w + 12
        parts.append(f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 22}" y2="{ly - 4}" '
                     f'stroke="{color}" stroke-width="2"/>')
        parts.append(f'<text x="{lx + 28}" y="{ly}" font-size="12">'
                     f'{trace.method} seed={trace.seed}</text>')

    parts.append("</svg>")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(parts) + "\n")

