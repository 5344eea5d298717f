"""Scenario configuration, node kinematics, and the free-space channel model.

Distances are meters, powers watts, rates bps/Hz.  The scenario file carries
the physical parametrization (bandwidth, noise density, reference SNR) and the
loader derives the linear noise power and reference channel gain from it:
sigma^2 = B * 10^(N0_dBm/10) / 1000 and beta0 = 10^(refSNR_dB/10) * sigma^2.
"""

import dataclasses
import json
import numbers
from importlib import resources
from typing import Dict, List, Optional

import numpy as np


class ScenarioError(ValueError):
    """Raised for malformed scenario files or inconsistent configuration."""


# JSON key -> dataclass attribute for directly-stored fields.
_FIELD_MAP = {
    "bs_position_m": "bs_position",
    "uav_height_m": "uav_height",
    "uav_start_m": "uav_start",
    "uav_end_m": "uav_end",
    "uav_max_speed_mps": "uav_max_speed",
    "slot_duration_s": "slot_duration",
    "slot_count": "slot_count",
    "flight_box_m": "flight_box",
    "vehicle_initial_m": "vehicle_initial",
    "vehicle_velocity_mps": "vehicle_velocity",
    "bandwidth_hz": "bandwidth_hz",
    "noise_density_dbm_per_hz": "noise_density_dbm_per_hz",
    "reference_snr_db": "reference_snr_db",
    "avg_bs_power_w": "avg_bs_power",
    "avg_relay_power_w": "avg_relay_power",
    "rate_targets_bpshz": "rate_targets",
    "mode_threshold_bpshz": "mode_threshold",
}

_ARRAY_FIELDS = {
    "bs_position": (3,),
    "uav_start": (2,),
    "uav_end": (2,),
    "flight_box": (4,),
    "vehicle_initial": (2, 2),
    "vehicle_velocity": (2, 2),
    "rate_targets": (2,),
}


def _is_number(value) -> bool:
    """A real number and not a boolean."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


@dataclasses.dataclass(frozen=True)
class Scenario:
    """All physical constants, node kinematics, budgets, and policy knobs."""

    bs_position: np.ndarray
    uav_height: float
    uav_start: np.ndarray
    uav_end: np.ndarray
    uav_max_speed: float
    slot_duration: float
    slot_count: int
    flight_box: np.ndarray  # (x_min, x_max, y_min, y_max)
    vehicle_initial: np.ndarray  # (2, 2): row k -> (x_k[0], y_k[0])
    vehicle_velocity: np.ndarray  # (2, 2): row k -> (v_x, v_y)
    bandwidth_hz: float
    noise_density_dbm_per_hz: float
    reference_snr_db: float
    avg_bs_power: float
    avg_relay_power: float
    rate_targets: np.ndarray  # per vehicle, bps/Hz
    mode_threshold: float
    beta0: float = 0.0  # derived unless given
    noise_power: float = 0.0  # derived unless given

    def __post_init__(self):
        for name in (f.name for f in dataclasses.fields(self) if f.name not in _ARRAY_FIELDS):
            if not _is_number(getattr(self, name)):
                raise ScenarioError(f"{name} must be a number, got {getattr(self, name)!r}")
        if not float(self.slot_count).is_integer():
            raise ScenarioError(f"slot_count must be an integer, got {self.slot_count!r}")
        object.__setattr__(self, "slot_count", int(self.slot_count))
        for name, shape in _ARRAY_FIELDS.items():
            entries = np.asarray(getattr(self, name), dtype=object)
            if not all(map(_is_number, entries.flat)):
                raise ScenarioError(f"{name} must hold numbers, got {getattr(self, name)!r}")
            arr = entries.astype(float)
            if arr.shape != shape:
                raise ScenarioError(f"{name}: expected shape {shape}, got {arr.shape}")
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        if self.noise_power == 0.0:
            sigma2 = self.bandwidth_hz * 10.0 ** (self.noise_density_dbm_per_hz / 10.0) / 1000.0
            object.__setattr__(self, "noise_power", sigma2)
        if self.beta0 == 0.0:
            object.__setattr__(self, "beta0", 10.0 ** (self.reference_snr_db / 10.0) * self.noise_power)
        self._check()

    def _check(self):
        for name in ("bandwidth_hz", "noise_density_dbm_per_hz", "reference_snr_db", "uav_height",
                     "uav_max_speed", "vehicle_initial", "vehicle_velocity", "bs_position", "flight_box"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ScenarioError(f"{name} must be finite")
        if not (self.uav_max_speed >= 0 and 0 < self.slot_duration < np.inf and self.slot_count >= 1):
            raise ScenarioError("need V >= 0, finite tau > 0, N >= 1")
        if not (self.uav_height > 0 and self.beta0 > 0 and self.noise_power > 0):
            raise ScenarioError("need h > 0, beta0 > 0, sigma^2 > 0")
        if not (0 < self.avg_bs_power < np.inf and 0 < self.avg_relay_power < np.inf):
            raise ScenarioError("average powers must be finite and > 0")
        if not self.mode_threshold >= 0:  # inf is legal: the OMA-only policy
            raise ScenarioError("mode_threshold must be >= 0")
        if not np.all(self.rate_targets >= 0):
            raise ScenarioError("rate targets must be >= 0")
        x_min, x_max, y_min, y_max = self.flight_box
        if not (x_min < x_max and y_min < y_max):
            raise ScenarioError("flight_box must have positive extent")
        for name in ("uav_start", "uav_end"):
            x, y = getattr(self, name)
            if not (x_min <= x <= x_max and y_min <= y <= y_max):
                raise ScenarioError(f"{name} lies outside the flight box")

    # ---- derived quantities ----

    @property
    def bs_energy(self) -> float:
        """Total BS power budget over the horizon, E_s = N * Pbar_s."""
        return self.slot_count * self.avg_bs_power

    @property
    def relay_energy(self) -> float:
        """Total relay power budget over the horizon, E_r = N * Pbar_r."""
        return self.slot_count * self.avg_relay_power

    @property
    def step_radius(self) -> float:
        """Maximum per-slot displacement V * tau, meters."""
        return self.uav_max_speed * self.slot_duration

    def with_slots(self, n: int) -> "Scenario":
        """Copy of this scenario with the slot count replaced (budgets rescale)."""
        return dataclasses.replace(self, slot_count=n)


def load_scenario(path: str, slots: Optional[int] = None) -> Scenario:
    """Load a scenario JSON file, rejecting unknown fields."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"scenario file is not valid JSON: {exc}") from exc
    return scenario_from_dict(raw, slots=slots)


def scenario_from_dict(raw: Dict, slots: Optional[int] = None) -> Scenario:
    if not isinstance(raw, dict):
        raise ScenarioError("scenario JSON must be an object")
    unknown = sorted(set(raw) - set(_FIELD_MAP))
    if unknown:
        raise ScenarioError(f"unknown scenario fields: {', '.join(unknown)}")
    missing = sorted(set(_FIELD_MAP) - set(raw))
    if missing:
        raise ScenarioError(f"missing scenario fields: {', '.join(missing)}")
    sc = Scenario(**{attr: raw[key] for key, attr in _FIELD_MAP.items()})
    if slots is not None:
        sc = sc.with_slots(slots)
    return sc


def default_scenario(slots: Optional[int] = None) -> Scenario:
    """The bundled default scenario."""
    text = resources.files("relayplan.data").joinpath("default_paper.json").read_text()
    return scenario_from_dict(json.loads(text), slots=slots)


# ---- kinematics ----


def vehicle_paths(sc: Scenario) -> np.ndarray:
    """(2, N, 2) array of both vehicles' positions at slots 1..N."""
    t = np.arange(1, sc.slot_count + 1)[:, None] * sc.slot_duration
    return np.stack([sc.vehicle_initial[k] + t * sc.vehicle_velocity[k] for k in (0, 1)])


def initial_trajectory(sc: Scenario) -> np.ndarray:
    """Straight-line trajectory from uav_start to uav_end, (N, 2).

    Points are q[n] = start + (end - start) * n / N for n = 1..N, so the first
    point sits one step from the start and the last lands on the end exactly.
    """
    d = float(np.hypot(*(sc.uav_end - sc.uav_start)))
    if d > sc.slot_count * sc.step_radius * (1 + 1e-12):
        need_n = int(np.ceil(d / sc.step_radius))
        need_v = d / (sc.slot_count * sc.slot_duration)
        raise ScenarioError(
            f"straight line infeasible: distance {d:.1f} m exceeds N*V*tau; "
            f"need N >= {need_n} or V >= {need_v:.2f} m/s"
        )
    frac = np.arange(1, sc.slot_count + 1)[:, None] / sc.slot_count
    return sc.uav_start + frac * (sc.uav_end - sc.uav_start)


def validate_trajectory(traj: np.ndarray, sc: Scenario) -> List[Dict]:
    """Report every violated trajectory constraint; empty list iff feasible."""
    traj = np.asarray(traj, dtype=float)
    n_slots = sc.slot_count
    report = []
    if traj.shape != (n_slots, 2):
        return [{"kind": "shape", "detail": f"expected ({n_slots}, 2), got {traj.shape}"}]
    r2 = sc.step_radius**2
    tol = 1e-9 * max(r2, 1.0)
    d0 = float(np.sum((traj[0] - sc.uav_start) ** 2))
    if d0 > r2 + tol:
        report.append({"kind": "start", "slot": 1, "excess_m": float(np.sqrt(d0) - sc.step_radius)})
    df = float(np.sum((traj[-1] - sc.uav_end) ** 2))
    if df > r2 + tol:
        report.append({"kind": "end", "slot": n_slots, "excess_m": float(np.sqrt(df) - sc.step_radius)})
    steps = np.sum(np.diff(traj, axis=0) ** 2, axis=1)
    for i in np.nonzero(steps > r2 + tol)[0]:
        report.append(
            {"kind": "velocity", "slot": int(i + 2), "excess_m": float(np.sqrt(steps[i]) - sc.step_radius)}
        )
    x_min, x_max, y_min, y_max = sc.flight_box
    box_tol = 1e-9
    out = (
        (traj[:, 0] < x_min - box_tol)
        | (traj[:, 0] > x_max + box_tol)
        | (traj[:, 1] < y_min - box_tol)
        | (traj[:, 1] > y_max + box_tol)
    )
    for i in np.nonzero(out)[0]:
        report.append({"kind": "box", "slot": int(i + 1), "point": traj[i].tolist()})
    return report


# ---- channel model ----


def channel_gain(uav_xy, node_xy, uav_height: float, beta0: float):
    """Free-space channel power gain beta0 / (dx^2 + dy^2 + h^2)."""
    if uav_height <= 0 or beta0 <= 0:
        raise ScenarioError("need uav_height > 0 and beta0 > 0")
    uav_xy = np.asarray(uav_xy, dtype=float)
    node_xy = np.asarray(node_xy, dtype=float)
    dx = uav_xy[..., 0] - node_xy[..., 0]
    dy = uav_xy[..., 1] - node_xy[..., 1]
    return beta0 / (dx * dx + dy * dy + uav_height**2)


@dataclasses.dataclass(frozen=True)
class ChannelState:
    """Per-slot gains for BS->relay and relay->vehicle links, plus psi = sigma^2/h."""

    h_r: np.ndarray
    h_1: np.ndarray
    h_2: np.ndarray
    psi_r: np.ndarray
    psi_1: np.ndarray
    psi_2: np.ndarray


def channel_state(traj: np.ndarray, sc: Scenario) -> ChannelState:
    """Channel gains and inverse-gain psi variables along a trajectory."""
    traj = np.asarray(traj, dtype=float)
    paths = vehicle_paths(sc)
    h_r = channel_gain(traj, sc.bs_position[:2], sc.uav_height, sc.beta0)
    h_1 = channel_gain(traj, paths[0], sc.uav_height, sc.beta0)
    h_2 = channel_gain(traj, paths[1], sc.uav_height, sc.beta0)
    s2 = sc.noise_power
    return ChannelState(h_r, h_1, h_2, s2 / h_r, s2 / h_1, s2 / h_2)
