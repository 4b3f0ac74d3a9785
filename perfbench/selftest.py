"""Self-test of the benchmark harness.

    python3 perfbench/selftest.py          # or: python3 -m pytest perfbench/selftest.py

Feeds the correctness check doctored runs and asserts each defect is
flagged, checks span bookkeeping and the tolerance of missing attributes,
and runs the benchmark command once to check that it prints every
end-to-end metric by name with its unit.
"""

from __future__ import annotations

import json
import subprocess
import sys
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from check import check_run  # noqa: E402
from tracing import LAYERS, Missing, Spans, Tracer, layer_metrics  # noqa: E402

GRIDS = [[0.0, 0.5, 1.0], [-1.0, 0.0, 1.0]]


def clean_run():
    calls = [((0.0, -1.0), 3.0), ((0.5, 0.0), 2.0), ((1.0, 1.0), 2.5),
             ((0.5, 1.0), 1.0), ((0.0, 0.0), 4.0)]
    rows = [(2, 2.0), (3, 2.0), (4, 1.0), (5, 1.0)]
    return calls, rows


def test_clean_run_passes():
    calls, rows = clean_run()
    assert check_run(calls, GRIDS, rows, 5) == []


def test_duplicate_point_is_flagged():
    calls, rows = clean_run()
    calls[4] = ((0.5, 0.0), 4.0)
    assert any("repeats" in p for p in check_run(calls, GRIDS, rows, 5))


def test_off_grid_point_is_flagged():
    calls, rows = clean_run()
    calls[4] = ((0.25, 0.0), 4.0)
    assert any("off the grid" in p for p in check_run(calls, GRIDS, rows, 5))


def test_rising_best_is_flagged():
    calls, rows = clean_run()
    rows[3] = (5, 1.5)
    assert any("rose" in p for p in check_run(calls, GRIDS, rows, 5))


def test_short_evaluation_count_is_flagged():
    calls, rows = clean_run()
    problems = check_run(calls[:4], GRIDS, rows[:3], 5)
    assert any("called 4 times" in p for p in problems)
    assert any("ends at 4" in p for p in problems)


def test_non_increasing_evals_are_flagged():
    calls, rows = clean_run()
    rows[2] = (3, 1.0)
    assert any("evals 3 after 3" in p for p in check_run(calls, GRIDS, rows, 5))


def test_best_not_matching_recorded_minimum_is_flagged():
    calls, rows = clean_run()
    rows[1] = (3, 1.5)  # monotone, but no call up to 3 returned 1.5
    assert any("minimum of the first 3" in p
               for p in check_run(calls, GRIDS, rows, 5))


def test_non_finite_values_are_left_out_of_the_minimum():
    calls, rows = clean_run()
    calls[1] = ((0.5, 0.0), float("nan"))
    rows = [(2, 3.0), (3, 2.5), (4, 1.0), (5, 1.0)]
    assert check_run(calls, GRIDS, rows, 5) == []


def fake_package():
    """A two-module package: ``pkg.core`` defines, ``pkg.user`` imports."""
    core = types.ModuleType("fakepkg.core")
    user = types.ModuleType("fakepkg.user")
    pkg = types.ModuleType("fakepkg")

    def work(n):
        return helper(n) + 1

    def helper(n):
        return n * 2

    class Box:
        def run(self, n):
            return user.work(n)

    core.work, core.helper, core.Box = work, helper, Box
    user.work = work
    pkg.core, pkg.user = core, user
    sys.modules.update({"fakepkg": pkg, "fakepkg.core": core,
                        "fakepkg.user": user})
    return pkg


def test_replace_reaches_every_binding_and_spans_nest():
    pkg = fake_package()
    tracer = Tracer()
    tracer.install((("box.run", "fakepkg.core:Box.run", None),
                    ("work", "fakepkg.core:work", lambda args, r: r),
                    ("gone", "fakepkg.core:no_such_function", None)))
    assert pkg.user.work is pkg.core.work  # both bindings wrapped alike
    assert pkg.core.Box().run(3) == 7
    assert tracer.names == ["box.run", "work"]
    assert tracer.parents == [-1, 0]
    assert tracer.notes == [None, 7]
    assert dict(tracer.missing) == {"gone": ["fakepkg.core:no_such_function"]}
    assert "gone" not in tracer.installed
    tracer.install((("helper", "fakepkg.core:helper", lambda args, r: r.no_such_attr),))
    assert pkg.core.helper(2) == 4  # the note raised; the call did not
    assert "helper" in tracer.broken_notes
    try:
        Spans(tracer).note_sum("helper")
    except Missing:
        pass
    else:
        raise AssertionError("a broken note must make its metrics missing")
    for name in ("fakepkg", "fakepkg.core", "fakepkg.user"):
        del sys.modules[name]


def test_self_times_telescope():
    tracer = Tracer()
    tracer.names = ["engine.step", "gp.fit", "gp.predict", "engine.step"]
    tracer.starts = [0.0, 1.0, 4.0, 10.0]
    tracer.ends = [6.0, 3.0, 5.0, 11.0]
    tracer.parents = [-1, 0, 0, -1]
    tracer.notes = [None] * 4
    tracer.installed = {"engine.step", "gp.fit", "gp.predict"}
    q = Spans(tracer)
    assert q.self_time == [3.0, 2.0, 1.0, 1.0]
    assert q.self_s("engine.step") == 4.0
    assert q.total_s("gp.fit", "engine.step") == 2.0
    assert q.inside_s(("engine.step",)) == 7.0 == sum(
        q.dur[i] for i in q.ids("engine.step"))


def test_missing_layer_reports_none_and_spares_the_rest():
    tracer = Tracer()
    tracer.installed = {name for name, _, _ in LAYERS} - {"engine.clip"}
    tracer.installed |= {"problems.objective", "cli.run_experiment"}
    metrics = layer_metrics(tracer, line_fits=0)
    assert metrics["engine.clip.calls"] is None
    assert metrics["engine.clip.active_frac"] is None
    assert metrics["engine.refine.fit_s"] is None  # reads engine.clip too
    assert metrics["gp.fit.calls"] == 0
    assert layer_metrics(tracer, line_fits=None)["engine.refine.line_fits"] is None


def test_command_prints_every_end_to_end_metric_with_its_unit():
    root = HERE.parent
    spec = json.loads((root / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload",
         spec["workloads"][0]["name"], "--seed", "0", "--seconds", "1",
         "--trace", "0"],
        cwd=root, capture_output=True, text=True, timeout=170,
        stdin=subprocess.DEVNULL)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    for metric in spec["end_to_end"]:
        name, unit = metric["name"], metric["unit"]
        assert result["metrics"][name]["unit"] == unit
        assert result["metrics"][name]["value"] > 0
        assert any(line.startswith(f"{name} = ") and line.endswith(f" {unit}")
                   for line in lines[:-1]), name


if __name__ == "__main__":
    tests = [(name, fn) for name, fn in sorted(globals().items())
             if name.startswith("test_") and callable(fn)]
    for name, fn in tests:
        fn()
        print(f"ok {name}")
    print(f"{len(tests)} harness self-tests passed")
