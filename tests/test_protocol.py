"""The protocol both optimizers share: ``initialize()``, then ``step()``
returning a ``StepResult``, with the evaluation record kept in ``History``."""

import math

import pytest

from scorebo import cli
from scorebo.baseline import BoOptimizer
from scorebo.engine import ScoreOptimizer
from scorebo.errors import SurrogateError
from scorebo.problems import ackley, ackley_space
from scorebo.space import StepResult

OPTIMIZERS = [
    pytest.param(lambda **kw: ScoreOptimizer(batch_size=3, **kw), id="score"),
    pytest.param(BoOptimizer, id="bo"),
]


@pytest.mark.parametrize("make", OPTIMIZERS)
def test_step_contract(make):
    calls = []

    def every_fifth_nan(point):
        calls.append(point)
        return math.nan if len(calls) % 5 == 0 else ackley(point)

    opt = make(space=ackley_space(3, points=9), objective=every_fifth_nan, seed=0)
    with pytest.raises(ValueError):
        opt.step()
    opt.initialize(6)
    history = opt.history
    for k in range(8):
        before = set(history.evaluated)
        n_before = history.n_evaluations
        result = opt.step(max_batch=2 if k % 2 else None)
        assert isinstance(result, StepResult)
        assert result.gp_fit_seconds >= 0.0
        assert set(history.evaluated) - before == set(result.batch)
        assert history.n_evaluations - n_before == len(result.batch) > 0
        assert history.n_evaluations == len(history) + history.n_rejected
    assert history.n_rejected > 0
    assert len(calls) == history.n_evaluations


@pytest.mark.parametrize("max_batch", [0, -1])
@pytest.mark.parametrize("make", OPTIMIZERS)
def test_step_rejects_max_batch_below_one(make, max_batch):
    # both optimizers, before they draw or evaluate anything
    calls = []
    opt = make(space=ackley_space(3), objective=lambda p: calls.append(p) or ackley(p),
               seed=0)
    opt.initialize(4)
    state = opt.rng.bit_generator.state
    with pytest.raises(ValueError, match="max_batch"):
        opt.step(max_batch=max_batch)
    assert len(calls) == opt.history.n_evaluations == 4
    assert opt.rng.bit_generator.state == state
    assert len(opt.step(max_batch=1).batch) == 1


@pytest.mark.parametrize("make", OPTIMIZERS)
def test_initial_design_without_finite_value_raises(make):
    opt = make(space=ackley_space(2), objective=lambda point: math.nan, seed=0)
    with pytest.raises(SurrogateError, match="non-finite"):
        opt.initialize(4)
    assert opt.history.n_rejected == 4


def test_run_without_finite_value_exits_3(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(cli, "ackley", lambda point: math.nan)
    code = cli.main(["run", "--dims", "2", "--n-init", "4", "--max-evals", "10",
                     "--out", str(tmp_path)])
    assert code == 3
    err = capsys.readouterr().err
    assert err.splitlines()[-1].startswith("runtime error:")
    assert "Traceback" not in err
