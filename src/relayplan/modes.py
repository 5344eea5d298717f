"""Dynamic NOMA/OMA policy: map channel-gain orderings to states 1-10 and modes.

The policy compares the high-SNR NOMA-over-OMA sum-rate gain against the
superiority threshold R_th.  NOMA is worth its receiver complexity only in
states 1, 3 (SIC at vehicle 1) and 6, 8 (SIC at vehicle 2); everything else is
OMA.  Ties between gains fall through the strict > tests to OMA, which is the
right limit: equal links make the NOMA gain zero.
"""

import dataclasses

import numpy as np

from relayplan.scenario import ChannelState, Scenario

# Table rows: state -> mode
STATE_MODE = {1: 1, 2: 3, 3: 1, 4: 3, 5: 3, 6: 2, 7: 3, 8: 2, 9: 3, 10: 3}
# the same table as an array indexed by state (entry 0 unused)
MODE_OF_STATE = np.array([0] + [STATE_MODE[s] for s in range(1, 11)])


def policy_states(h_r, h_1, h_2, r_th: float) -> np.ndarray:
    """Each slot's policy state 1-10 from its three gains and the threshold.

    With vehicle 1 the nearer (h_1 >= h_2): state 1 or 2 with the relay
    above both vehicles, NOMA (1) when half the log of the nearer gain over
    the farther one exceeds R_th; state 3 or 4 with the relay between them,
    NOMA (3) when half the log of the relay's gain over the farther one
    does; state 5 with the relay below both.  States 6-10 are states 1-5
    with the vehicles swapped, so each slot takes one gain ratio and one
    log.  A whole horizon, or a grid of candidate relay positions, is
    classified at once.
    """
    h_r, h_1, h_2 = np.broadcast_arrays(*np.atleast_1d(h_r, h_1, h_2))
    if np.any(h_r <= 0) or np.any(h_1 <= 0) or np.any(h_2 <= 0):
        raise ValueError("gains must be positive")
    first = h_1 >= h_2
    near, far = np.where(first, h_1, h_2), np.where(first, h_2, h_1)
    above, between = h_r > near, h_r > far
    # one log of the gain ratio: a difference of two logs can round a
    # one-ulp gain ratio to zero and classify a near-tie the other way
    noma = 0.5 * np.log2(np.where(above, near, h_r) / far) > r_th
    return np.where(above, 1, np.where(between, 3, 5)) + (between & ~noma) + np.where(first, 0, 5)


@dataclasses.dataclass(frozen=True)
class ModeSchedule:
    """Per-slot policy state and operating mode (dense encoding of the indicator triples)."""

    states: np.ndarray  # (N,) ints in 1..10
    modes: np.ndarray  # (N,) ints in {1, 2, 3}

    def __post_init__(self):
        for name in ("states", "modes"):
            arr = np.asarray(getattr(self, name), dtype=int)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        if self.states.shape != self.modes.shape:
            raise ValueError("states/modes length mismatch")
        in_table = np.all((self.states >= 1) & (self.states <= 10))
        if not in_table or not np.array_equal(MODE_OF_STATE[self.states], self.modes):
            raise ValueError("state/mode assignment inconsistent with the policy table")


def mode_schedule(cs: ChannelState, sc: Scenario) -> ModeSchedule:
    """Vectorized per-slot policy over a channel state."""
    states = policy_states(cs.h_r, cs.h_1, cs.h_2, sc.mode_threshold)
    return ModeSchedule(states=states, modes=MODE_OF_STATE[states])
