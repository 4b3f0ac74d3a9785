"""Benchmark objectives: Ackley and the single-diode IV fitting problem."""

import math
from dataclasses import astuple

import numpy as np
import pytest
from scipy.optimize import brentq, minimize_scalar

from scorebo.errors import SolverError
from scorebo.problems import (DEFAULT_GROUND_TRUTH, RESIDUAL_SENTINEL,
                              IvTargets, SdmParams, ackley, ackley_space,
                              load_datasheet, make_synthetic_datasheet,
                              save_datasheet, sdm_current, sdm_objective,
                              sdm_residual, sdm_space)

SCAN_POINTS = 2000         # voltage scan of the synthetic maximum power point


def open_circuit_voltage(params: SdmParams) -> float:
    """Voltage at which the output current crosses zero."""
    v_hi = 2.0 * params.a * math.log(params.i_l / params.i_o + 1.0)
    f = lambda v: sdm_current(params, v)
    if f(0.0) <= 0:
        raise SolverError(f"no positive current at short circuit for {params}")
    return float(brentq(f, 0.0, v_hi, xtol=1e-12))


def forward_simulated_datasheet() -> IvTargets:
    """The datasheet points of ``DEFAULT_GROUND_TRUTH``, derived.

    The maximum power point comes from a dense voltage scan refined by a
    golden-section pass around the best scanned value.
    """
    truth = DEFAULT_GROUND_TRUTH
    isc = sdm_current(truth, 0.0)
    voc = open_circuit_voltage(truth)
    vs = np.linspace(0.0, voc, SCAN_POINTS)
    powers = np.array([v * sdm_current(truth, v) for v in vs])
    i_best = int(np.argmax(powers))
    lo = vs[max(i_best - 1, 0)]
    hi = vs[min(i_best + 1, SCAN_POINTS - 1)]
    res = minimize_scalar(lambda v: -v * sdm_current(truth, v),
                          bounds=(lo, hi), method="bounded",
                          options={"xatol": 1e-10})
    vmp = float(res.x)
    imp = sdm_current(truth, vmp)
    return IvTargets(isc=isc, vmp=vmp, imp=imp, voc=voc)


class TestAckley:
    @pytest.mark.parametrize("dims", [1, 5, 200])
    def test_global_minimum_at_origin(self, dims):
        assert abs(ackley([0.0] * dims)) <= 1e-12

    def test_1d_unit_point_closed_form(self):
        # cos(2*pi) = 1 makes the second exponential cancel against +e
        assert ackley([1.0]) == pytest.approx(20.0 * (1 - math.exp(-0.2)),
                                              abs=1e-12)
        assert ackley([1.0]) == pytest.approx(3.6253849, abs=1e-6)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(-5, 10, 12)
        shuffled = rng.permutation(x)
        assert ackley(x) == ackley(shuffled)

    def test_nonnegative_on_domain(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            assert ackley(rng.uniform(-5, 10, 8)) >= 0.0

    def test_grid_scan_1d_minimum_only_at_origin(self):
        space = ackley_space(1)
        values = [ackley(space.point((i,))) for i in range(61)]
        assert np.argmin(values) == 20
        assert values[20] <= 1e-12
        assert min(v for i, v in enumerate(values) if i != 20) > 0.5

    def test_space_mesh(self):
        space = ackley_space(10)
        assert space.dims == 10
        for g in space.grids:
            assert len(g) == 61
            assert g.values[0] == -5.0 and g.values[-1] == 10.0
            assert g.values[20] == 0.0


class TestSdmCurrent:
    def test_short_circuit_with_zero_series_resistance(self):
        params = SdmParams(i_l=9.0, i_o=3e-10, r_s=0.0, r_sh=800.0, a=1.9)
        assert sdm_current(params, 0.0) == 9.0

    def test_bisection_matches_closed_form_as_r_s_vanishes(self):
        closed = SdmParams(i_l=9.0, i_o=3e-10, r_s=0.0, r_sh=800.0, a=1.9)
        tiny = SdmParams(i_l=9.0, i_o=3e-10, r_s=1e-12, r_sh=800.0, a=1.9)
        for v in (0.0, 10.0, 25.0, 35.0):
            assert sdm_current(tiny, v) == pytest.approx(
                sdm_current(closed, v), abs=1e-9)

    def test_dense_scan_root_oracle_at_short_circuit(self):
        i = sdm_current(DEFAULT_GROUND_TRUTH, 0.0)
        assert 8.9 < i < 9.0
        # independent oracle: scan g over [8.9, 9.0] at 1e-6 A resolution
        grid = np.arange(8.9, 9.0 + 1e-6, 1e-6)
        p = DEFAULT_GROUND_TRUTH
        g = (p.i_l - p.i_o * np.expm1(grid * p.r_s / p.a)
             - grid * p.r_s / p.r_sh - grid)
        cross = int(np.nonzero(np.diff(np.sign(g)))[0][0])
        assert i == pytest.approx(grid[cross], abs=2e-6)

    @pytest.mark.parametrize("v", [0.0, 5.0, 15.0, 30.0, 36.0])
    def test_root_satisfies_the_implicit_equation(self, v):
        p = DEFAULT_GROUND_TRUTH
        i = sdm_current(p, v)
        drop = v + i * p.r_s
        g = p.i_l - p.i_o * math.expm1(drop / p.a) - drop / p.r_sh - i
        assert abs(g) <= 1e-7

    def test_strictly_decreasing_in_voltage(self):
        vs = np.linspace(0.0, 36.0, 40)
        currents = [sdm_current(DEFAULT_GROUND_TRUTH, v) for v in vs]
        assert np.all(np.diff(currents) < 0)

    def test_nonfinite_voltage_rejected(self):
        with pytest.raises(ValueError):
            sdm_current(DEFAULT_GROUND_TRUTH, float("nan"))


class TestSdmResidual:
    def test_ground_truth_residual_is_zero(self, datasheet):
        assert sdm_residual(DEFAULT_GROUND_TRUTH, datasheet) <= 1e-8

    def test_doubled_light_current_residual(self, datasheet):
        doubled = SdmParams(i_l=18.0, i_o=3e-10, r_s=0.35, r_sh=800.0, a=1.9)
        assert sdm_residual(doubled, datasheet) >= 0.5

    def test_shunt_resistance_near_insensitivity(self, datasheet):
        shifted = SdmParams(i_l=9.0, i_o=3e-10, r_s=0.35, r_sh=8000.0, a=1.9)
        base = sdm_residual(DEFAULT_GROUND_TRUTH, datasheet)
        assert abs(sdm_residual(shifted, datasheet) - base) < 0.01

    def test_sentinel_is_finite(self):
        assert math.isfinite(RESIDUAL_SENTINEL)


class TestOpenCircuitVoltage:
    def test_ideal_diode_closed_form(self):
        ideal = SdmParams(i_l=9.0, i_o=1e-9, r_s=0.0, r_sh=1e9, a=1.5)
        voc = open_circuit_voltage(ideal)
        assert voc == pytest.approx(1.5 * math.log(9.0 / 1e-9 + 1.0), abs=1e-3)
        assert voc == pytest.approx(34.38, abs=0.01)

    def test_current_vanishes_at_voc(self):
        voc = open_circuit_voltage(DEFAULT_GROUND_TRUTH)
        assert abs(sdm_current(DEFAULT_GROUND_TRUTH, voc)) <= 1e-8

    def test_voc_strictly_decreases_with_saturation_current(self):
        vocs = [open_circuit_voltage(
                    SdmParams(i_l=9.0, i_o=i_o, r_s=0.35, r_sh=800.0, a=1.9))
                for i_o in (1e-11, 1e-10, 1e-9, 1e-8)]
        assert all(a > b for a, b in zip(vocs, vocs[1:]))


class TestDatasheet:
    def test_shipped_datasheet_is_the_forward_simulation_to_the_bit(self):
        shipped, derived = make_synthetic_datasheet(), forward_simulated_datasheet()
        assert [x.hex() for x in astuple(shipped)] == [x.hex() for x in astuple(derived)]

    def test_targets_satisfy_invariants(self, datasheet):
        assert 0 < datasheet.vmp < datasheet.voc
        assert 0 < datasheet.imp < datasheet.isc

    def test_mpp_is_a_power_maximum(self, datasheet):
        def power(v):
            return v * sdm_current(DEFAULT_GROUND_TRUTH, v)
        p_star = datasheet.vmp * datasheet.imp
        assert p_star == pytest.approx(power(datasheet.vmp), rel=1e-9)
        for dv in (-0.05, 0.05):
            assert power(datasheet.vmp + dv) <= p_star

    def test_round_trip_without_ground_truth(self, datasheet, tmp_path):
        path = tmp_path / "panel.txt"
        save_datasheet(path, datasheet)
        assert load_datasheet(path) == datasheet

    def test_round_trip_with_ground_truth(self, datasheet, tmp_path):
        # older fixtures also carried the ground truth as gt_ lines, which
        # the loader ignores
        path = tmp_path / "panel.txt"
        save_datasheet(path, datasheet)
        path.write_text(path.read_text() + "gt_i_l=9.0\ngt_i_o=3e-10\ngt_r_s=0.35\n"
                        "gt_r_sh=800.0\ngt_a=1.9\n")
        assert load_datasheet(path) == datasheet

    def test_loader_skips_comments_and_blank_lines(self, datasheet, tmp_path):
        path = tmp_path / "panel.txt"
        save_datasheet(path, datasheet)
        text = "# fixture\n\n" + path.read_text()
        path.write_text(text)
        assert load_datasheet(path) == datasheet

    def test_loader_ignores_other_keys_whatever_their_values(self, datasheet, tmp_path):
        path = tmp_path / "panel.txt"
        save_datasheet(path, datasheet)
        path.write_text(path.read_text() + "model=ABC-123\n")
        assert load_datasheet(path) == datasheet


class TestFittingSpace:
    def test_grid_layout(self, datasheet):
        space = sdm_space(datasheet)
        names = [g.name for g in space.grids]
        assert names == ["i_l", "i_o", "r_s", "r_sh", "a"]
        assert [len(g) for g in space.grids] == [41, 61, 41, 41, 31]
        i_o = space.grids[1]
        np.testing.assert_allclose(i_o.values[0], 1e-12, rtol=1e-12)
        np.testing.assert_allclose(i_o.values[-1], 1e-6, rtol=1e-12)
        for grid in (i_o, space.grids[3]):     # i_o and r_sh are log meshes
            steps = np.diff(np.log10(grid.values))
            np.testing.assert_allclose(steps, steps[0], rtol=1e-9)

    def test_objective_wraps_residual(self, datasheet):
        space = sdm_space(datasheet)
        objective = sdm_objective(datasheet)
        indices = (20, 30, 10, 20, 15)
        point = space.point(indices)
        assert objective(point) == sdm_residual(SdmParams(*point), datasheet)

    def test_near_ground_truth_grid_point_fits_well(self, datasheet):
        space = sdm_space(datasheet)
        gt = DEFAULT_GROUND_TRUTH
        indices = space.nearest_indices((gt.i_l, gt.i_o, gt.r_s, gt.r_sh, gt.a))
        assert sdm_objective(datasheet)(space.point(indices)) < 0.02


class TestParameterValidation:
    @pytest.mark.parametrize("kwargs", [
        {"i_l": -1.0}, {"i_o": 0.0}, {"r_s": -0.1}, {"r_sh": 0.0}, {"a": 0.0},
    ])
    def test_invalid_sdm_params(self, kwargs):
        base = dict(i_l=9.0, i_o=3e-10, r_s=0.35, r_sh=800.0, a=1.9)
        base.update(kwargs)
        with pytest.raises(ValueError):
            SdmParams(**base)

    @pytest.mark.parametrize("kwargs", [
        {"vmp": 40.0},            # vmp >= voc
        {"imp": 10.0},            # imp >= isc
        {"isc": -1.0},
        {"voc": float("inf")},
    ])
    def test_invalid_iv_targets(self, kwargs):
        base = dict(isc=9.0, vmp=30.0, imp=8.5, voc=36.0)
        base.update(kwargs)
        with pytest.raises(ValueError):
            IvTargets(**base)

    def test_solver_error_when_no_positive_short_circuit_current(self):
        dark = SdmParams(i_l=0.0, i_o=1e-9, r_s=0.0, r_sh=100.0, a=1.5)
        with pytest.raises(SolverError):
            open_circuit_voltage(dark)
