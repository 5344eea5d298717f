import dataclasses
import json

import numpy as np
import pytest

from relayplan import scenario as sc_mod
from relayplan.scenario import (
    ScenarioError,
    channel_gain,
    channel_state,
    default_scenario,
    initial_trajectory,
    scenario_from_dict,
    validate_trajectory,
    vehicle_paths,
)


def default_dict():
    from importlib import resources

    with resources.files("relayplan.data").joinpath("default_paper.json").open() as f:
        return json.load(f)


def test_default_scenario_constants():
    sc = default_scenario()
    assert sc.slot_count == 600
    assert sc.uav_height == 100.0
    assert sc.uav_max_speed == 30.0
    assert sc.slot_duration == 0.1
    assert np.allclose(sc.uav_start, [200.0, 300.0])
    assert np.allclose(sc.uav_end, [200.0, 300.0])
    assert np.allclose(sc.vehicle_initial, [[700.0, 100.0], [702.0, 0.0]])
    assert np.allclose(sc.vehicle_velocity, [[0.0, 15.0], [0.0, 15.0]])
    assert sc.avg_bs_power == 0.5 and sc.avg_relay_power == 0.5
    assert np.allclose(sc.rate_targets, [1.0, 1.0])
    assert sc.mode_threshold == 0.1


def test_derived_noise_and_reference_gain():
    sc = default_scenario()
    # sigma^2 = B * 10^(N0/10) mW -> W;  beta0 = 10^(SNR/10) * sigma^2
    assert sc.noise_power == pytest.approx(3.981071705534985e-14, rel=1e-12)
    assert sc.beta0 == pytest.approx(3.981071705534985e-07, rel=1e-12)
    assert sc.beta0 / sc.noise_power == pytest.approx(1e7, rel=1e-12)
    assert sc.bs_energy == pytest.approx(600 * 0.5)
    assert sc.relay_energy == pytest.approx(600 * 0.5)
    assert sc.step_radius == pytest.approx(3.0)


def test_replace_re_derives_noise_and_reference_gain():
    """sigma^2 and beta0 are derived, not stored: a copy with a new bandwidth
    or reference SNR has its own."""
    sc = default_scenario(slots=10)
    assert {"noise_power", "beta0"}.isdisjoint(f.name for f in dataclasses.fields(sc))
    wide = dataclasses.replace(sc, bandwidth_hz=2 * sc.bandwidth_hz)
    assert wide.noise_power == 2 * sc.noise_power and wide.beta0 == 2 * sc.beta0
    loud = dataclasses.replace(sc, reference_snr_db=sc.reference_snr_db + 10.0)
    assert loud.noise_power == sc.noise_power
    assert loud.beta0 == pytest.approx(10 * sc.beta0, rel=1e-12)


def test_loader_rejects_unknown_fields():
    raw = default_dict()
    raw["uav_altitude_m"] = 120.0
    with pytest.raises(ScenarioError, match="unknown"):
        scenario_from_dict(raw)


def test_loader_rejects_missing_fields():
    raw = default_dict()
    del raw["bandwidth_hz"]
    with pytest.raises(ScenarioError, match="missing"):
        scenario_from_dict(raw)


def test_loader_rejects_non_object(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("[1, 2, 3]")
    with pytest.raises(ScenarioError):
        sc_mod.load_scenario(str(p))
    p.write_text("{not json")
    with pytest.raises(ScenarioError, match="JSON"):
        sc_mod.load_scenario(str(p))


def test_loader_shape_and_sign_checks():
    raw = default_dict()
    raw["vehicle_initial_m"] = [[700.0, 100.0]]  # one vehicle only
    with pytest.raises(ScenarioError):
        scenario_from_dict(raw)
    for field, value, match in [
        ("uav_max_speed_mps", -1.0, "V >= 0"),
        ("slot_duration_s", float("inf"), "finite tau"),
        ("mode_threshold_bpshz", float("nan"), "mode_threshold"),
        ("rate_targets_bpshz", [float("nan"), 0.5], "rate targets"),
        ("uav_height_m", "100", "uav_height must be a number"),
        ("mode_threshold_bpshz", None, "mode_threshold must be a number"),
        ("avg_bs_power_w", False, "avg_bs_power must be a number"),
        ("rate_targets_bpshz", ["a", 1], "rate_targets must hold numbers"),
        ("rate_targets_bpshz", [True, 1], "rate_targets must hold numbers"),
        ("vehicle_initial_m", [[700.0, None], [700.0, 0.0]], "vehicle_initial must hold numbers"),
        ("slot_count", float("nan"), "slot_count must be an integer"),
        ("slot_count", float("inf"), "slot_count must be an integer"),
        ("slot_count", 10.7, "slot_count must be an integer"),
        ("slot_count", "12", "slot_count must be a number"),
        ("slot_count", True, "slot_count must be a number"),
        ("slot_count", 10**400, "slot_count must be finite"),
        ("uav_height_m", 10**400, "uav_height must be finite"),
        ("avg_bs_power_w", 10**400, "avg_bs_power must be finite"),
        ("rate_targets_bpshz", [1, 10**400], "rate_targets must be finite"),
    ]:
        raw = dict(default_dict(), **{field: value})
        with pytest.raises(ScenarioError, match=match):
            scenario_from_dict(raw)
    raw = dict(default_dict(), mode_threshold_bpshz=float("inf"))
    assert scenario_from_dict(raw).mode_threshold == np.inf


@pytest.mark.parametrize("value", [0.0, -0.5, float("inf")])
@pytest.mark.parametrize("field", ["avg_bs_power_w", "avg_relay_power_w"])
def test_loader_rejects_nonpositive_average_power(field, value):
    raw = default_dict()
    raw[field] = value
    with pytest.raises(ScenarioError, match="average powers"):
        scenario_from_dict(raw)


@pytest.mark.parametrize("count", [10, 10.0, np.int64(10)])
def test_integral_slot_count_is_kept(count):
    sc = scenario_from_dict(dict(default_dict(), slot_count=count))
    assert sc.slot_count == 10 and type(sc.slot_count) is int


def test_with_slots_rescales_horizon():
    sc = default_scenario(slots=50)
    assert sc.slot_count == 50
    assert sc.bs_energy == pytest.approx(25.0)
    assert default_scenario().with_slots(50).slot_count == 50


def test_vehicle_kinematics():
    sc = default_scenario()
    assert np.allclose(sc.vehicle_initial[0], [700.0, 100.0])
    paths = vehicle_paths(sc)
    assert paths.shape == (2, 600, 2)
    # first row is slot 1: one slot_duration of motion
    assert np.allclose(paths[0, 0], [700.0, 101.5])
    assert np.allclose(paths[1, -1], [702.0, 900.0])


def test_initial_trajectory_default_hover():
    sc = default_scenario()
    traj = initial_trajectory(sc)
    assert traj.shape == (600, 2)
    assert np.allclose(traj, [200.0, 300.0])  # start == end
    assert validate_trajectory(traj, sc) == []


def test_initial_trajectory_straight_line_and_endpoint():
    raw = default_dict()
    raw["uav_end_m"] = [500.0, 300.0]
    sc = scenario_from_dict(raw)
    traj = initial_trajectory(sc)
    assert np.allclose(traj[-1], [500.0, 300.0])
    assert np.allclose(traj[0], [200.5, 300.0])
    assert validate_trajectory(traj, sc) == []


def test_initial_trajectory_infeasible_reports_requirements():
    raw = default_dict()
    raw["uav_end_m"] = [200.0, 900.0]
    raw["slot_count"] = 100  # 100 * 3 m < 600 m
    with pytest.raises(ScenarioError, match="need N >= 200"):
        scenario_from_dict(raw, slots=100)
        initial_trajectory(scenario_from_dict(raw))


def test_validate_trajectory_flags_each_violation_kind():
    sc = default_scenario(slots=10)
    traj = initial_trajectory(sc).copy()
    traj[4] = traj[3] + [10.0, 0.0]  # too fast into slot 5
    report = validate_trajectory(traj, sc)
    kinds = {r["kind"] for r in report}
    assert "velocity" in kinds
    slots = [r["slot"] for r in report if r["kind"] == "velocity"]
    assert 5 in slots

    traj = initial_trajectory(sc).copy()
    traj[0] = [900.0, 900.0]
    report = validate_trajectory(traj, sc)
    assert any(r["kind"] == "start" for r in report)

    traj = np.full((10, 2), [200.0, 300.0])
    traj[-1] = [260.0, 300.0]
    report = validate_trajectory(traj, sc)
    assert any(r["kind"] == "end" for r in report)

    traj = np.full((10, 2), [-5.0, 300.0])
    report = validate_trajectory(traj, sc)
    assert any(r["kind"] == "box" for r in report)

    assert validate_trajectory(np.zeros((3, 2)), sc)[0]["kind"] == "shape"


def test_channel_gain_formula():
    sc = default_scenario()
    h = channel_gain([200.0, 300.0], [0.0, 0.0], sc.uav_height, sc.beta0)
    assert h == pytest.approx(sc.beta0 / (200.0**2 + 300.0**2 + 100.0**2), rel=1e-15)
    with pytest.raises(ScenarioError):
        channel_gain([0, 0], [0, 0], 0.0, sc.beta0)


def test_channel_gain_matches_summed_square_form_bit_for_bit():
    """dx*dx + dy*dy gives exactly the old summed-square distance, on the
    shapes the callers pass: oracle cells against a path, a trajectory
    against a path, and a trajectory against one point."""
    sc = default_scenario()
    paths = vehicle_paths(sc)
    rng = np.random.default_rng(5)
    cells = np.column_stack([rng.uniform(0.0, 1000.0, 63), np.arange(63) * 20.0])
    traj = rng.uniform(-50.0, 1050.0, (paths.shape[1], 2))
    for uav, node in ((cells[:, None, :], paths[0]), (traj, paths[1]), (traj, sc.bs_position[:2])):
        old = sc.beta0 / (np.sum((uav - node) ** 2, axis=-1) + sc.uav_height**2)
        assert np.array_equal(channel_gain(uav, node, sc.uav_height, sc.beta0), old)


def test_channel_state_psi_inverse_gains():
    sc = default_scenario()
    traj = initial_trajectory(sc)
    cs = channel_state(traj, sc)
    assert cs.h_r.shape == (600,)
    assert np.allclose(cs.psi_r * cs.h_r, sc.noise_power, rtol=1e-14)
    # frozen slot-1 values for the hovering default
    assert cs.psi_r[0] == pytest.approx(0.014, rel=1e-12)
    assert cs.psi_1[0] == pytest.approx(0.029940225, rel=1e-12)
    assert cs.psi_2[0] == pytest.approx(0.035110625, rel=1e-12)
