"""CLI harness: config handling, experiment runs, sweeps, exit codes."""

import contextlib
import dataclasses
import json
import logging
import math
import re
import subprocess
import sys
from pathlib import Path

import pytest

import scorebo
from scorebo import cli
from scorebo.cli import (RunConfig, aggregate_median, build_parser, load_config,
                         main, run_experiment)
from scorebo.errors import ConfigurationError
from scorebo.problems import ackley, sdm_objective
from scorebo.report import CSV_COLUMNS, read_trace_csv


def _strip_timing(csv_path):
    """CSV rows without the two timing columns (the nondeterministic ones)."""
    keep = [i for i, c in enumerate(CSV_COLUMNS)
            if c not in ("iter_time_ms", "cum_time_ms")]
    out = []
    for line in csv_path.read_text().splitlines():
        cells = line.split(",")
        out.append(",".join(cells[i] for i in keep))
    return out


@contextlib.contextmanager
def plain_logging():
    """Log as a plain ``scorebo run`` does: with no handler on the root logger
    (pytest's capture handler is taken off), records of level WARNING and
    above reach stderr through logging's last-resort handler."""
    root = logging.getLogger()
    saved = root.handlers[:]
    root.handlers.clear()
    try:
        yield
    finally:
        root.handlers[:] = saved


class TestConfig:
    def test_defaults(self):
        config = load_config()
        assert config.method == "score"
        assert config.problem == "ackley"
        assert config.max_evals == 300

    def test_file_values_and_overrides(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"method": "bo", "dims": 3, "seed": 5}))
        config = load_config(path, {"seed": 9, "max_evals": None})
        assert config.method == "bo"
        assert config.dims == 3
        assert config.seed == 9          # override wins
        assert config.max_evals == 300   # None overrides are ignored

    def test_unknown_keys_rejected(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"metod": "bo"}))
        with pytest.raises(ConfigurationError, match="metod"):
            load_config(path)

    def test_unreadable_or_invalid_json_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            load_config(tmp_path / "missing.json")
        bad = tmp_path / "bad.json"
        for text in ("{not json", "5", "null"):
            bad.write_text(text)
            with pytest.raises(ConfigurationError):
                load_config(bad)

    def test_null_is_accepted_for_optional_keys(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"n_init": None, "datasheet": None}))
        config = load_config(path)
        assert config.n_init is None and config.datasheet is None

    def test_every_field_is_a_run_flag(self):
        args = vars(build_parser().parse_args(["run"]))
        missing = [f.name for f in dataclasses.fields(RunConfig)
                   if f.name not in args]
        assert missing == []

    @pytest.mark.parametrize("kwargs", [
        {"method": "grid"},
        {"problem": "rosenbrock"},
        {"dims": 0},
        {"batch_size": 0},
        {"n_init": 0},
        {"problem": "sdm", "n_init": 0},
        {"seed": -1},
        {"method": "bo", "batch_size": 2},
    ])
    def test_validation(self, kwargs):
        config = RunConfig(**kwargs)
        with pytest.raises(ConfigurationError):
            config.validate()


class TestRunExperiment:
    def test_budget_below_n_init_is_rejected(self):
        with pytest.raises(ConfigurationError, match="below n_init=50"):
            run_experiment(RunConfig(n_init=50, max_evals=10))

    def test_score_protocol_has_280_post_init_iterations(self):
        config = RunConfig(method="score", problem="ackley", dims=10,
                           n_init=20, batch_size=1, max_evals=300, seed=7)
        trace = run_experiment(config)
        assert trace.rows[0].iteration == 0
        assert len(trace.rows) == 1 + 280
        assert trace.total_evals == 300

    def test_batch_accounting_520_evals_is_50_iterations(self):
        config = RunConfig(method="score", problem="ackley", dims=10,
                           n_init=20, batch_size=10, max_evals=520, seed=0)
        trace = run_experiment(config)
        assert len(trace.rows) == 1 + 50
        assert trace.total_evals == 520

    def test_degenerate_budget_is_initialization_only(self):
        config = RunConfig(dims=2, n_init=6, max_evals=6, seed=0)
        trace = run_experiment(config)
        assert len(trace.rows) == 1
        assert trace.total_evals == 6

    def test_bo_method_runs(self):
        config = RunConfig(method="bo", dims=2, n_init=4, max_evals=20, seed=0)
        trace = run_experiment(config)
        assert trace.method == "bo"
        assert trace.total_evals == 20

    def test_sdm_problem_runs(self, tmp_path, datasheet):
        from scorebo.problems import save_datasheet
        fixture = tmp_path / "panel.txt"
        save_datasheet(fixture, datasheet)
        config = RunConfig(problem="sdm", n_init=10, max_evals=25, seed=0,
                           datasheet=str(fixture))
        trace = run_experiment(config)
        assert trace.total_evals == 25
        assert trace.best_value >= 0.0

    def test_small_space_stops_at_exhaustion(self):
        config = RunConfig(dims=2, grid_points=3, n_init=2, max_evals=50,
                           seed=0)
        trace = run_experiment(config)
        assert trace.total_evals == 9  # 3x3 grid fully enumerated


class TestAggregateMedian:
    def test_row_wise_medians(self):
        from scorebo.report import ConvergenceTrace, TraceRow
        traces = []
        for seed, best in enumerate((3.0, 1.0, 2.0)):
            t = ConvergenceTrace(method="score", seed=seed)
            t.append(TraceRow(iteration=0, evals=2, best_value=best,
                              iter_time_ms=1.0, cum_time_ms=1.0))
            traces.append(t)
        agg = aggregate_median(traces)
        assert agg.method == "score-median"
        assert agg.seed == -1
        assert agg.rows[0].best_value == 2.0

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            aggregate_median([])


class TestCommands:
    RUN_ARGS = ["run", "--problem", "ackley", "--dims", "2",
                "--n-init", "4", "--max-evals", "25", "--seed", "3"]

    def test_run_writes_csv_and_svgs(self, tmp_path, capsys):
        code = main(self.RUN_ARGS + ["--out", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "score_ackley_seed3.csv").exists()
        assert (tmp_path / "score_ackley_seed3_convergence.svg").exists()
        assert (tmp_path / "score_ackley_seed3_timing.svg").exists()
        assert "best=" in capsys.readouterr().out

    def test_run_is_deterministic_apart_from_timing(self, tmp_path):
        main(self.RUN_ARGS + ["--out", str(tmp_path / "a")])
        main(self.RUN_ARGS + ["--out", str(tmp_path / "b")])
        csv_a = tmp_path / "a" / "score_ackley_seed3.csv"
        csv_b = tmp_path / "b" / "score_ackley_seed3.csv"
        assert _strip_timing(csv_a) == _strip_timing(csv_b)

    def test_sweep_emits_per_seed_and_median_traces(self, tmp_path):
        code = main(["sweep", "--problem", "ackley", "--dims", "2",
                     "--n-init", "4", "--max-evals", "20",
                     "--seeds", "0,1", "--out", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "score_ackley_seed0.csv").exists()
        assert (tmp_path / "score_ackley_seed1.csv").exists()
        median = read_trace_csv(tmp_path / "score_ackley_median.csv")
        assert median.method == "score-median"
        assert (tmp_path / "score_ackley_convergence.svg").exists()
        assert (tmp_path / "score_ackley_timing.svg").exists()

    def test_report_rerenders_from_csv(self, tmp_path):
        main(self.RUN_ARGS + ["--out", str(tmp_path)])
        code = main(["report", str(tmp_path / "score_ackley_seed3.csv"),
                     "--kind", "timing", "--out", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "report_timing.svg").exists()

    def test_sweep_reads_its_config_once(self, monkeypatch, tmp_path):
        calls = []

        def counting_load_config(*args):
            calls.append(args)
            return load_config(*args)

        monkeypatch.setattr(cli, "load_config", counting_load_config)
        code = main(["sweep", "--dims", "2", "--n-init", "4", "--max-evals", "6",
                     "--seeds", "0,1", "--out", str(tmp_path)])
        assert code == 0 and len(calls) == 1
        assert (tmp_path / "score_ackley_seed1.csv").exists()

    def test_budget_below_default_n_init_exits_2(self, monkeypatch, tmp_path, capsys):
        # the default design is twice the built SDM space's 5 dimensions
        calls = []

        def counting_sdm_objective(targets):
            def objective(point):
                calls.append(point)
                return sdm_objective(targets)(point)
            return objective

        monkeypatch.setattr(cli, "sdm_objective", counting_sdm_objective)
        code = main(["run", "--problem", "sdm", "--max-evals", "9",
                     "--out", str(tmp_path)])
        assert code == 2 and calls == []
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("configuration error:")
        assert "below n_init=10" in err[0]
        assert list(tmp_path.iterdir()) == []

    def test_config_error_exits_2(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"method": "annealing"}))
        assert main(["run", "--config", str(path)]) == 2
        assert "configuration error" in capsys.readouterr().err

    def test_runtime_error_exits_3(self, tmp_path, capsys):
        # a readable trace, but the output directory is a file
        trace = tmp_path / "trace.csv"
        trace.write_text(",".join(CSV_COLUMNS) + "\nscore,0,0,4,1.0,1.0,1.0\n")
        blocked = tmp_path / "blocked"
        blocked.write_text("")
        assert main(["report", str(trace), "--out", str(blocked)]) == 3
        assert "runtime error" in capsys.readouterr().err

    @pytest.mark.parametrize("values", [
        [1e17], [1e300] * 3, [sys.float_info.max], [-sys.float_info.max],
    ], ids=["1e17", "flat-1e300", "+max", "-max"])
    def test_report_renders_flat_traces_of_any_magnitude(self, tmp_path, values):
        self._assert_report_is_finite(tmp_path, values)

    @pytest.mark.parametrize("values", [
        [sys.float_info.max, -sys.float_info.max],
        [sys.float_info.max, 0.0, -sys.float_info.max],
        [1e308, -5e307],
    ], ids=["+max-to-max", "+max-0-max", "1e308-to-5e307"])
    def test_report_renders_traces_spanning_float_max(self, tmp_path, values):
        # the span overflows (or, at 1.5e308, the plot width times it
        # would): the ticks still run from the low to the high end
        labels = self._assert_report_is_finite(tmp_path, values)
        # four digits of +-max read back as +-inf, which still sort
        assert [float(t) for t in labels] == sorted(float(t) for t in labels)
        assert (labels[0], labels[-1]) == (f"{min(values):.4g}", f"{max(values):.4g}")

    @staticmethod
    def _assert_report_is_finite(tmp_path, values):
        """Report a trace of these best values; check every coordinate and
        label is finite and return the y-axis tick labels, bottom up."""
        path = tmp_path / "trace.csv"
        path.write_text(",".join(CSV_COLUMNS) + "\n" + "".join(
            f"score,0,{i},{4 + i},{v!r},1.0,{1.0 + i}\n" for i, v in enumerate(values)))
        assert main(["report", str(path), "--out", str(tmp_path)]) == 0
        text = (tmp_path / "report_convergence.svg").read_text()
        coords = re.findall(r'\b(?:x|y|x1|y1|x2|y2)="([^"]*)"', text)
        coords += re.split(r"[ ,]", re.search(r'points="([^"]*)"', text)[1])
        assert all(math.isfinite(float(c)) for c in coords)
        assert "nan" not in text and "inf" not in text      # tick labels too
        return re.findall(r'text-anchor="end">([^<]*)<', text)

    @pytest.mark.parametrize("text", [
        "iteration,evals\n0,4\n",
        "method,seed,iteration,evals,best_value,iter_time_ms,cum_time_ms\n",
        "method,seed,iteration,evals,best_value,iter_time_ms,cum_time_ms\n"
        "score,0,0,four,1.0,1.0,1.0\n",
    ], ids=["wrong-header", "no-rows", "bad-cell"])
    def test_bad_trace_csv_exits_2(self, tmp_path, capsys, text):
        path = tmp_path / "trace.csv"
        path.write_text(text)
        assert main(["report", str(path), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("configuration error:")

    @pytest.mark.parametrize("second_row", [
        "score,0,1,4,0.5,1.0,2.0", "score,0,1,6,2.0,1.0,2.0",
    ], ids=["falling-evals", "rising-best"])
    def test_disordered_trace_csv_exits_2(self, tmp_path, capsys, second_row):
        path = tmp_path / "trace.csv"
        path.write_text(",".join(CSV_COLUMNS) + "\nscore,0,0,5,1.0,1.0,1.0\n"
                        + second_row + "\n")
        assert main(["report", str(path), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("configuration error:")
        assert str(path) in err[0]
        assert list(tmp_path.glob("*.svg")) == []

    def test_non_integer_seed_exits_2(self, tmp_path, capsys):
        code = main(["sweep", "--dims", "2", "--n-init", "4", "--max-evals", "6",
                     "--seeds", "0,x", "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("configuration error:")
        assert "'x'" in err[0]

    @pytest.mark.parametrize("argv, value", [
        (["run", "--seed", "-1"], "-1"), (["sweep", "--seeds", "0,-2"], "'-2'"),
    ], ids=["run", "sweep"])
    def test_negative_seed_exits_2(self, tmp_path, capsys, argv, value):
        # sweep rejects the list before any seed runs: seed 0 prints no
        # summary and writes no trace
        code = main([*argv, "--dims", "2", "--n-init", "4", "--max-evals", "6",
                     "--out", str(tmp_path)])
        assert code == 2
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("configuration error:")
        assert value in err[0]
        assert captured.out == "" and list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("key, value", [
        ("dims", "ten"), ("max_evals", 5.5), ("seed", True), ("out_dir", 3),
    ], ids=["string-for-int", "float-for-int", "bool-for-int", "int-for-str"])
    def test_mistyped_config_value_exits_2(self, tmp_path, capsys, key, value):
        path = tmp_path / "config.json"
        values = {"dims": 2, "n_init": 4, "max_evals": 6, "out_dir": str(tmp_path)}
        path.write_text(json.dumps({**values, key: value}))
        assert main(["run", "--config", str(path)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("configuration error:")
        assert repr(key) in err[0]

    def test_rejected_values_give_one_warning(self, monkeypatch, tmp_path, capsys):
        calls = []

        def every_other_nan(point):
            calls.append(point)
            return math.nan if len(calls) % 2 else ackley(point)

        monkeypatch.setattr(cli, "ackley", every_other_nan)
        with plain_logging():
            code = main(self.RUN_ARGS + ["--out", str(tmp_path)])
        assert code == 0
        assert capsys.readouterr().err.splitlines() == [
            "dropped 13 of 25 evaluations: the objective returned a non-finite value"]

    def test_all_rejected_design_prints_one_line(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setattr(cli, "ackley", lambda point: math.nan)
        with plain_logging():
            code = main(self.RUN_ARGS + ["--out", str(tmp_path)])
        assert code == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("runtime error:")

    @pytest.mark.parametrize("method, batch, k", [
        pytest.param("score", 1, 3, id="3"),
        pytest.param("score", 1, 9, id="9"),
        pytest.param("score", 1, 17, id="17"),
        pytest.param("bo", 1, 9, id="bo-9"),
        pytest.param("score", 3, 9, id="batch3-9"),
        pytest.param("score", 3, 16, id="batch3-16"),
    ])
    def test_raising_objective_exits_3_with_partial_trace(self, monkeypatch, tmp_path,
                                                          capsys, method, batch, k):
        # k = 3 raises inside the 4-point initial design, the others in steps;
        # with B = 3, calls 9 and 16 are the middle and the last of a batch
        args = self.RUN_ARGS + ["--method", method, "--batch", str(batch)]
        calls = []

        def raises_on_kth_call(point):
            calls.append(point)
            if len(calls) == k:
                raise ZeroDivisionError("boom")
            return ackley(point)

        monkeypatch.setattr(cli, "ackley", raises_on_kth_call)
        with plain_logging():
            code = main(args + ["--out", str(tmp_path)])
        assert code == 3 and len(calls) == k
        err = capsys.readouterr().err.splitlines()
        assert err == ["runtime error: the objective raised ZeroDivisionError: boom"]
        # the steps completed before the k-th call, as a complete run wrote them
        main(args + ["--out", str(tmp_path / "whole")])
        stem = f"{method}_ackley_seed3"
        whole = _strip_timing(tmp_path / "whole" / f"{stem}.csv")
        partial = _strip_timing(tmp_path / f"{stem}.csv")
        # the design's row, then one per step completed before the k-th call
        rows = 0 if k <= 4 else 1 + (k - 1 - 4) // batch
        assert partial == whole[:1 + rows]
        assert not (tmp_path / f"{stem}_convergence.svg").exists()

    def test_raising_objective_in_sweep_keeps_earlier_seeds(self, monkeypatch, tmp_path,
                                                            capsys):
        calls = []

        def raises_on_call_30(point):
            calls.append(point)
            if len(calls) == 30:
                raise RuntimeError("lost")
            return ackley(point)

        monkeypatch.setattr(cli, "ackley", raises_on_call_30)
        code = main(["sweep", "--dims", "2", "--n-init", "4", "--max-evals", "20",
                     "--seeds", "0,1,2", "--out", str(tmp_path)])
        assert code == 3
        assert capsys.readouterr().err.startswith("runtime error: the objective raised")
        assert len(read_trace_csv(tmp_path / "score_ackley_seed0.csv").rows) == 17
        assert len(_strip_timing(tmp_path / "score_ackley_seed1.csv")) == 1 + 6
        assert not (tmp_path / "score_ackley_seed2.csv").exists()
        assert not (tmp_path / "score_ackley_median.csv").exists()

    def test_interrupted_sweep_keeps_completed_seeds(self, monkeypatch, tmp_path, capsys):
        # Ctrl-C during seed 1 (the 10th of its calls): seed 0 ran to its
        # budget, so its trace is on disk as a whole run wrote it; seed 1's
        # trace holds the design's row and the 5 steps completed before it
        args = ["sweep", "--dims", "2", "--n-init", "4", "--max-evals", "20"]
        calls = []

        def interrupted_on_call_30(point):
            calls.append(point)
            if len(calls) == 30:
                raise KeyboardInterrupt
            return ackley(point)

        monkeypatch.setattr(cli, "ackley", interrupted_on_call_30)
        code = main(args + ["--seeds", "0,1,2", "--out", str(tmp_path)])
        assert code == 130 and len(calls) == 30
        assert capsys.readouterr().err.splitlines() == ["interrupted"]
        monkeypatch.setattr(cli, "ackley", ackley)
        main(args + ["--seeds", "0,1", "--out", str(tmp_path / "whole")])
        stem = "score_ackley_seed0.csv"
        assert _strip_timing(tmp_path / stem) == _strip_timing(tmp_path / "whole" / stem)
        assert len(read_trace_csv(tmp_path / stem).rows) == 17
        stem = "score_ackley_seed1.csv"
        assert len(read_trace_csv(tmp_path / stem).rows) == 1 + 5
        whole = _strip_timing(tmp_path / "whole" / stem)
        assert _strip_timing(tmp_path / stem) == whole[:1 + 6]   # the header, six rows
        assert not (tmp_path / "score_ackley_seed2.csv").exists()
        assert not (tmp_path / "score_ackley_median.csv").exists()

    @pytest.mark.parametrize("limit, built", [(4_839, None), (4_840, MemoryError)],
                             ids=["over-limit", "allocation-fails"])
    def test_score_state_too_large_exits_2_before_any_call(self, monkeypatch, tmp_path,
                                                          capsys, limit, built):
        # 3 dimensions at 11 grid points keep (3 + 2) * 11 * 11 * 8 = 4 840
        # bytes: one byte over a patched limit, or within it while building
        # the optimizer runs out of memory
        calls = []
        monkeypatch.setattr(cli, "MAX_SCORE_STATE_BYTES", limit)
        monkeypatch.setattr(cli, "ackley", calls.append)

        def out_of_memory(**kwargs):
            raise built()

        if built is not None:
            monkeypatch.setattr(cli, "ScoreOptimizer", out_of_memory)
        code = main(["run", "--dims", "3", "--grid-points", "11", "--out", str(tmp_path)])
        [line] = capsys.readouterr().err.splitlines()
        assert code == 2 and calls == [] and not list(tmp_path.iterdir())
        assert line.startswith("configuration error: the SCORE state of 3 dimensions "
                               "at 11 grid points needs 4,840 bytes, ")

    def test_objective_error_is_exported(self):
        assert scorebo.ObjectiveError is scorebo.errors.ObjectiveError

    @pytest.mark.parametrize("edit, key", [
        (lambda lines: [ln for ln in lines if not ln.startswith("vmp=")], "vmp"),
        (lambda lines: ["imp=lots" if ln.startswith("imp=") else ln
                        for ln in lines], "imp"),
        (lambda lines: ["isc=abc" if ln.startswith("isc=") else ln
                        for ln in lines], "isc"),
        (lambda lines: ["voc=-1.0" if ln.startswith("voc=") else ln
                        for ln in lines], "voc"),
    ], ids=["missing-key", "non-numeric", "non-numeric-isc", "invalid-targets"])
    def test_bad_datasheet_exits_2(self, tmp_path, capsys, datasheet, edit, key):
        from scorebo.problems import save_datasheet
        path = tmp_path / "panel.txt"
        save_datasheet(path, datasheet)
        path.write_text("\n".join(edit(path.read_text().splitlines())) + "\n")
        code = main(["run", "--problem", "sdm", "--n-init", "4", "--max-evals", "6",
                     "--datasheet", str(path), "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("configuration error:")
        assert str(path) in err[0] and key in err[0]

    @pytest.mark.parametrize("make", [
        lambda path: None,
        lambda path: path.mkdir(),
        lambda path: path.write_bytes(b"\xff\xfe=\xff\n"),
    ], ids=["missing", "directory", "not-utf8"])
    @pytest.mark.parametrize("argv", [
        ["run", "--config"],
        ["run", "--problem", "sdm", "--n-init", "4", "--max-evals", "6", "--datasheet"],
        ["report"],
    ], ids=["config", "datasheet", "report"])
    def test_unreadable_input_file_exits_2(self, tmp_path, capsys, argv, make):
        path = tmp_path / "input"
        make(path)
        assert main(argv + [str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("configuration error:")
        assert str(path) in err[0]


def _scipy_loaded_after(code: str) -> set:
    """Which of scipy.linalg and scipy.optimize a fresh interpreter has
    imported after it runs ``code``."""
    src = str(Path(cli.__file__).resolve().parent.parent)
    script = (f"import sys; sys.path.insert(0, sys.argv[1]); {code}; "
              "print(*(m for m in ('scipy.linalg', 'scipy.optimize') if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", script, src], capture_output=True,
                          text=True, timeout=120, check=True)
    return set(proc.stdout.split())


# scipy.optimize costs ~17 MiB and ~0.2 s to import, and only SDM uses it;
# scipy.linalg ~6 MiB and 40-75 ms, and only the joint GP of BO uses it
@pytest.mark.parametrize("module", ["scipy.optimize", "scipy.linalg"])
def test_package_import_leaves_scipy_module_unloaded(module):
    assert module not in _scipy_loaded_after("import scorebo, scorebo.cli")


def test_only_bo_run_loads_scipy_linalg():
    # run_experiment writes nothing; main writes the trace afterwards
    run = ("from scorebo.cli import RunConfig, run_experiment; "
           "run_experiment(RunConfig(method={!r}, dims=5, max_evals=30))")
    assert _scipy_loaded_after(run.format("score")) == set()
    assert _scipy_loaded_after(run.format("bo")) == {"scipy.linalg"}
