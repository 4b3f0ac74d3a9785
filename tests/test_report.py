"""Trace bookkeeping, CSV round trips, and SVG rendering."""

import hashlib
import math
import sys

import pytest

from scorebo.report import (CSV_COLUMNS, ConvergenceTrace, TraceRow, _axis_range,
                            read_trace_csv, render_svg, write_trace_csv)


def sample_trace(method="score", seed=0, rows=5):
    trace = ConvergenceTrace(method=method, seed=seed)
    best = 10.0
    for i in range(rows):
        best -= 0.5
        trace.append(TraceRow(iteration=i, evals=4 + i, best_value=best,
                              iter_time_ms=1.25 + i, cum_time_ms=10.0 + i))
    return trace


class TestTrace:
    def test_rows_are_not_a_constructor_argument(self):
        # only append adds rows, so every trace has passed its order checks
        row = TraceRow(iteration=0, evals=4, best_value=1.0, iter_time_ms=1.0,
                       cum_time_ms=1.0)
        with pytest.raises(TypeError):
            ConvergenceTrace(method="score", seed=0, rows=[row])

    def test_append_rejects_nonincreasing_evals(self):
        trace = sample_trace()
        with pytest.raises(ValueError):
            trace.append(TraceRow(iteration=9, evals=trace.total_evals,
                                  best_value=0.0, iter_time_ms=1.0,
                                  cum_time_ms=99.0))

    def test_append_rejects_increasing_best(self):
        trace = sample_trace()
        with pytest.raises(ValueError):
            trace.append(TraceRow(iteration=9, evals=99,
                                  best_value=trace.best_value + 1.0,
                                  iter_time_ms=1.0, cum_time_ms=99.0))

    def test_summary_properties(self):
        trace = sample_trace(rows=3)
        assert trace.best_value == trace.rows[-1].best_value
        assert trace.total_evals == 6
        assert trace.total_time_ms == 12.0


class TestCsv:
    def test_round_trip_reproduces_trace(self, tmp_path):
        trace = sample_trace(method="bo", seed=42)
        path = tmp_path / "trace.csv"
        write_trace_csv(trace, path)
        loaded = read_trace_csv(path)
        assert loaded.method == "bo"
        assert loaded.seed == 42
        assert len(loaded.rows) == len(trace.rows)
        for a, b in zip(loaded.rows, trace.rows):
            assert (a.iteration, a.evals) == (b.iteration, b.evals)
            assert a.best_value == b.best_value
            assert a.iter_time_ms == b.iter_time_ms
            assert a.cum_time_ms == b.cum_time_ms

    def test_exact_column_header(self, tmp_path):
        path = tmp_path / "trace.csv"
        write_trace_csv(sample_trace(), path)
        header = path.read_text().splitlines()[0]
        assert header == ",".join(CSV_COLUMNS)
        assert CSV_COLUMNS == ("method", "seed", "iteration", "evals",
                               "best_value", "iter_time_ms", "cum_time_ms")

    def test_read_rejects_wrong_columns(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError):
            read_trace_csv(path)

    def test_read_rejects_empty_trace(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text(",".join(CSV_COLUMNS) + "\n")
        with pytest.raises(ValueError):
            read_trace_csv(path)


class TestSvg:
    def test_convergence_labels_and_series(self, tmp_path):
        path = tmp_path / "plot.svg"
        render_svg([sample_trace(), sample_trace(method="bo", seed=1)],
                   "convergence", path)
        text = path.read_text()
        assert text.startswith("<svg")
        assert 'class="x-label">evals<' in text
        assert 'class="y-label"' in text and ">best_value<" in text
        assert text.count("<polyline") == 2
        assert "score seed=0" in text and "bo seed=1" in text

    def test_timing_kind_uses_cum_time_axis(self, tmp_path):
        path = tmp_path / "timing.svg"
        render_svg([sample_trace()], "timing", path)
        text = path.read_text()
        assert 'class="x-label">iteration<' in text
        assert ">cum_time_ms<" in text

    def test_unknown_kind_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            render_svg([sample_trace()], "histogram", tmp_path / "x.svg")
        with pytest.raises(ValueError):
            render_svg([], "convergence", tmp_path / "x.svg")

    def test_flat_trace_keeps_unit_axes(self, tmp_path):
        # a zero span of ordinary magnitude plots on [v, v + 1], byte for byte
        trace = ConvergenceTrace(method="score", seed=0)
        for i in range(3):
            trace.append(TraceRow(iteration=i, evals=4 + i, best_value=3.5,
                                  iter_time_ms=1.0, cum_time_ms=1.0 + i))
        path = tmp_path / "flat.svg"
        render_svg([trace], "convergence", path)
        text = path.read_text()
        assert all(f">{label}</text>" in text for label in ("3.5", "3.75", "4.25", "4.5"))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "5f7127c308cba98eb3034e96b0ac939fbaf26c65f73d694fd1e9033dbeefdcd3")


class TestAxisRange:
    @pytest.mark.parametrize("v", [3.5, -2.0**53, 1e17, -1e17, 1e300,
                                   sys.float_info.max, -sys.float_info.max],
                             ids=["3.5", "-2^53", "1e17", "-1e17", "1e300", "+max", "-max"])
    def test_zero_span_widens_by_one_or_toward_zero(self, v):
        lo, hi = _axis_range([v, v])
        if v + 1 != v:
            assert (lo, hi) == (v, v + 1)
        else:
            assert lo < hi and math.isfinite(hi - lo)
            assert (hi == v) if v > 0 else (lo == v)
