import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from relayplan import rates
from relayplan.scenario import channel_state, default_scenario, initial_trajectory

SC = default_scenario()
S2 = SC.noise_power
CS = channel_state(initial_trajectory(SC), SC)
HR, H1, H2 = CS.h_r[0], CS.h_1[0], CS.h_2[0]


def test_mode1_slot1_regression():
    r1, r2 = rates.rates_for_mode(1, HR, H1, H2, 0.25, 0.25, 0.5, S2)
    assert r1 == pytest.approx(2.7187517955574476, rel=1e-12)
    assert r2 == pytest.approx(0.8742642991997939, rel=1e-12)


def test_mode3_slot1_regression():
    r1 = rates.oma_rate(HR, H1, 0.25, 0.5, S2)
    r2 = rates.oma_rate(HR, H2, 0.25, 0.5, S2)
    assert r1 == pytest.approx(1.802395072162178, rel=1e-12)
    assert r2 == pytest.approx(1.7284878555518703, rel=1e-12)


def test_mode1_edge_cases():
    r1, r2 = rates.rates_for_mode(1, HR, H1, H2, 0.5, 0.0, 0.5, S2)
    assert r2 == 0.0
    # interference-free single-user AF rate
    expect = np.log2(1 + 0.5 * H1 * HR * 0.5 / (0.5 * H1 * S2 + 0.5 * HR * S2 + S2**2))
    assert r1 == pytest.approx(expect, rel=1e-12)
    assert rates.rates_for_mode(1, HR, H1, H2, 0.25, 0.25, 0.0, S2) == (0.0, 0.0)
    with pytest.raises(ValueError):
        rates.rates_for_mode(1, HR, H1, H2, -0.1, 0.25, 0.5, S2)
    with pytest.raises(ValueError):
        rates.oma_rate(HR, H1, -0.1, 0.5, S2)


def test_mode2_is_mirror_of_mode1():
    a = rates.rates_for_mode(2, HR, H1, H2, 0.2, 0.3, 0.5, S2)
    b = rates.rates_for_mode(1, HR, H2, H1, 0.3, 0.2, 0.5, S2)
    assert a[0] == pytest.approx(b[1], rel=1e-14)
    assert a[1] == pytest.approx(b[0], rel=1e-14)
    assert rates.rates_for_mode(2, HR, H1, H2, 0.0, 0.3, 0.5, S2)[0] == 0.0


def test_interference_free_limit_matches_across_sic_orders():
    # with p1 = 0 the SIC distinction for vehicle 2 vanishes
    a = rates.rates_for_mode(1, HR, H1, H2, 0.0, 0.3, 0.5, S2)[1]
    b = rates.rates_for_mode(2, HR, H1, H2, 0.0, 0.3, 0.5, S2)[1]
    assert a == pytest.approx(b, rel=1e-14)


def test_mode3_limits():
    so2 = 0.5 * S2  # the OMA subband's noise power
    assert rates.oma_rate(HR, H1, 0.0, 0.5, S2) == 0.0
    # h_k -> inf: relay-link-limited asymptote (divide through by h_k)
    big = rates.oma_rate(HR, 1e6, 0.25, 0.5, S2)
    assert big == pytest.approx(0.5 * np.log2(1 + HR * 0.25 / so2), rel=1e-6)


def test_decode_at_near_vehicle_beats_far_vehicle():
    # the far vehicle's message is easier to decode at the stronger link,
    # which is what makes collapsing to the far-vehicle SINR valid
    rng = np.random.default_rng(3)
    for _ in range(100):
        h1, h2 = np.sort(rng.uniform(1e-9, 1e-5, 2))[::-1]
        hr = rng.uniform(1e-9, 1e-5)
        p1, p2, pr = rng.uniform(0.05, 1.0, 3)
        s = p1 + p2
        at_near = pr * h1 * hr * p2 / (pr * h1 * hr * p1 + pr * h1 * S2 + s * hr * S2 + S2**2)
        at_far = pr * h2 * hr * p2 / (pr * h2 * hr * p1 + pr * h2 * S2 + s * hr * S2 + S2**2)
        assert at_near >= at_far


def test_rates_for_mode_dispatch():
    # every mode reads its own two rows (c_m, S, D) of the table
    for mode in (1, 2, 3):
        rows = rates.sinr_table(mode, HR, H1, H2, 0.25, 0.25, 0.5, S2)
        want = tuple(cm * (np.log1p(s / d) / np.log(2.0)) for cm, s, d in rows)
        assert rates.rates_for_mode(mode, HR, H1, H2, 0.25, 0.25, 0.5, S2) == want

    o1, o2 = rates.rates_for_mode(3, HR, H1, H2, 0.25, 0.25, 0.5, S2)
    assert o1 == rates.oma_rate(HR, H1, 0.25, 0.5, S2)
    # equal powers: rate ordering follows the gain ordering
    assert (o1 > o2) == (H1 > H2)

    assert rates.rates_for_mode(2, HR, H1, H2, 0.0, 0.0, 0.0, S2) == (0.0, 0.0)
    with pytest.raises(ValueError):
        rates.rates_for_mode(4, HR, H1, H2, 0.25, 0.25, 0.5, S2)
    with pytest.raises(ValueError):
        rates.sinr_table(0, HR, H1, H2, 0.25, 0.25, 0.5, S2)


def test_symmetric_gains_make_sic_order_irrelevant():
    r1 = rates.rates_for_mode(1, HR, H1, H1, 0.2, 0.3, 0.5, S2)
    r2 = rates.rates_for_mode(2, HR, H1, H1, 0.2, 0.3, 0.5, S2)
    assert sum(r1) == pytest.approx(sum(r2), rel=1e-12)


def test_exact_rates_matches_per_slot_dispatch():
    n = 40
    sc = default_scenario(slots=n)
    cs = channel_state(initial_trajectory(sc), sc)
    rng = np.random.default_rng(11)
    modes = rng.choice([1, 2, 3], size=n)
    assert set(modes.tolist()) == {1, 2, 3}
    p1, p2, pr = rng.uniform(0.05, 0.6, (3, n))
    r1, r2 = rates.exact_rates(modes, cs.h_r, cs.h_1, cs.h_2, p1, p2, pr, S2)
    so2 = 0.5 * S2
    for i in range(n):
        hr, h1, h2 = cs.h_r[i], cs.h_1[i], cs.h_2[i]
        a1, a2, ar = p1[i], p2[i], pr[i]
        s = a1 + a2
        if modes[i] == 3:  # each vehicle on half the band with half the relay power
            sinr1 = ar * h1 * hr * a1 / (ar * h1 * so2 + 2 * a1 * hr * so2 + 2 * so2**2)
            sinr2 = ar * h2 * hr * a2 / (ar * h2 * so2 + 2 * a2 * hr * so2 + 2 * so2**2)
            want = 0.5 * np.log2(1 + sinr1), 0.5 * np.log2(1 + sinr2)
        else:  # the near vehicle decodes free of interference, the far one sees it
            (hn, pn), (hf, pf) = ((h1, a1), (h2, a2)) if modes[i] == 1 else ((h2, a2), (h1, a1))
            sinr_n = ar * hn * hr * pn / (ar * hn * S2 + s * hr * S2 + S2**2)
            sinr_f = ar * hf * hr * pf / (ar * hf * hr * pn + ar * hf * S2 + s * hr * S2 + S2**2)
            rn, rf = np.log2(1 + sinr_n), np.log2(1 + sinr_f)
            want = (rn, rf) if modes[i] == 1 else (rf, rn)
        assert r1[i] == pytest.approx(want[0], rel=1e-12)
        assert r2[i] == pytest.approx(want[1], rel=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    p1=st.floats(1e-3, 1.0),
    p2=st.floats(1e-3, 1.0),
    pr=st.floats(1e-3, 1.0),
    bump=st.floats(1e-4, 0.5),
)
def test_rates_monotone_in_own_power(p1, p2, pr, bump):
    """Each vehicle's rate never drops when its own power or pr grows."""
    base1, base2 = rates.rates_for_mode(1, HR, H1, H2, p1, p2, pr, S2)
    up1, _ = rates.rates_for_mode(1, HR, H1, H2, p1 + bump, p2, pr, S2)
    _, up2 = rates.rates_for_mode(1, HR, H1, H2, p1, p2 + bump, pr, S2)
    assert up1 >= base1 - 1e-12
    assert up2 >= base2 - 1e-12
    upr = rates.rates_for_mode(1, HR, H1, H2, p1, p2, pr + bump, S2)
    assert upr[0] >= base1 - 1e-12 and upr[1] >= base2 - 1e-12
    # more interference from vehicle 1 can only hurt vehicle 2
    _, down2 = rates.rates_for_mode(1, HR, H1, H2, p1 + bump, p2, pr, S2)
    assert down2 <= base2 + 1e-12


GAINS = st.floats(1e-16, 1e-8)  # around the default scenario's 1e-12 against noise 4e-14


@settings(max_examples=300, deadline=None)
@given(
    mode=st.sampled_from([1, 2, 3]),
    h_r=GAINS,
    own=st.tuples(GAINS, GAINS),
    other=st.tuples(GAINS, GAINS),
    powers=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
)
# a raw-gain product pr*h_k*h_r*p_k here is subnormal (about 5e-324); over
# normalised gains the table keeps it normal and the rate rises as it should
@example(mode=1, h_r=9.04e-09, own=(4.53e-09, 5.35e-09), other=(7.47e-09, 9.30e-09), powers=(0.0, 1e-300, 1.19e-07))
def test_rate_reads_only_its_own_gain_and_rises_with_it(mode, h_r, own, other, powers):
    """The static-placement oracle's screen rests on this: in every mode R1
    never reads h_2 and R2 never reads h_1, and each rises with its own gain,
    so a vehicle's worst slot of a mode is the one where its gain is least.
    Rising holds up to rounding: a gain a few ulps larger can lose an ulp.
    The relative 1e-12 here is the margin the min objective's bound uses."""
    lo, hi = sorted(own)
    for k in (0, 1):
        def rate(h_own, h_other):
            gains = (h_own, h_other) if k == 0 else (h_other, h_own)
            return rates.rates_for_mode(mode, h_r, *gains, *powers, S2)[k]

        assert rate(lo, other[0]) == rate(lo, other[1])
        assert rate(hi, other[0]) >= rate(lo, other[0]) * (1.0 - 1e-12)


@settings(max_examples=300, deadline=None)
@given(
    mode=st.sampled_from([1, 2, 3]),
    h_r=GAINS,
    own=st.lists(GAINS, min_size=1, max_size=12),
    other=GAINS,
    powers=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
)
@example(mode=1, h_r=2e-12, own=[3e-12] * 7, other=1e-12, powers=(0.3, 0.2, 0.5))  # equal gains: tight
@example(mode=2, h_r=2e-12, own=[3e-12] * 7, other=1e-12, powers=(0.3, 0.2, 0.5))
@example(mode=3, h_r=2e-12, own=[3e-12] * 7, other=1e-12, powers=(0.3, 0.2, 0.5))
@example(mode=1, h_r=5e-13, own=[4e-12], other=1e-12, powers=(0.1, 0.4, 0.5))  # one slot
@example(mode=3, h_r=5e-13, own=[1e-16, 1e-8], other=1e-12, powers=(0.0, 0.0, 0.0))  # zero powers
@example(mode=2, h_r=5e-13, own=[1e-16, 1e-8], other=1e-12, powers=(0.2, 0.3, 0.0))
# a subnormal pr makes every rate subnormal, a few ulps from exact
@example(mode=1, h_r=1.3836785243958987e-09, own=[9.907856526910299e-09, 1.0647857936007686e-09],
         other=7.9956642485535e-09, powers=(1.0, 1.0, 5e-324))
def test_rate_at_the_mean_gain_bounds_the_summed_rate(mode, h_r, own, other, powers):
    """The sum oracle's bound rests on this: with h_r and the powers fixed,
    each vehicle's rate in a mode is c_m log2(1 + a g / (b + c g)) in its own
    gain g, which is concave, so by Jensen's inequality n R(mean g) is at
    least the sum of R(g_i) over any n gains, up to a relative 1e-12, and up
    to one smallest normal float per gain where the rates are subnormal."""
    g = np.array(own)
    tiny = np.finfo(float).tiny
    for k in (0, 1):
        def rate(h_own):
            gains = (h_own, other) if k == 0 else (other, h_own)
            return rates.rates_for_mode(mode, h_r, *gains, *powers, S2)[k]

        assert g.size * rate(g.sum() / g.size) >= rate(g).sum() * (1.0 - 1e-12) - g.size * tiny


def test_high_snr_forms():
    noma_sum = rates.high_snr_rates("NOMA", "sum", 1e6, 1e5, 1e4, 0.4, 0.6)
    assert noma_sum == pytest.approx(np.log2(1 + 1e5 * 1e6 / (1e5 + 1e6)), rel=1e-12)
    assert noma_sum == pytest.approx(16.47, abs=0.01)
    oma_sum = rates.high_snr_rates("OMA", "sum", 1e6, 1e5, 1e4, 0.5, 0.5)
    expect = 0.5 * np.log2(1 + 1e5 * 1e6 / 1.1e6) + 0.5 * np.log2(1 + 1e4 * 1e6 / 1.01e6)
    assert oma_sum == pytest.approx(expect, rel=1e-12)
    assert rates.high_snr_rates("NOMA", "min", 1e6, 1e5, 1e4, 0.2, 0.8) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        rates.high_snr_rates("NOMA", "min", 1e6, 1e5, 1e4, 0.5, 0.5)
    oma_min = rates.high_snr_rates("OMA", "min", 1e6, 1e5, 1e4, 0.5, 0.5)
    assert oma_min == pytest.approx(0.5 * np.log2(1e4 * 1e6 / 1.01e6), rel=1e-12)
    with pytest.raises(ValueError):
        rates.high_snr_rates("TDMA", "sum", 1e6, 1e5, 1e4, 0.5, 0.5)


def test_high_snr_schemes_agree_when_relay_is_bottleneck():
    # both schemes collapse to the relay link when it is far weakest
    noma = rates.high_snr_rates("NOMA", "sum", 1e6, 1e12, 1e12, 0.5, 0.5)
    oma = rates.high_snr_rates("OMA", "sum", 1e6, 1e12, 1e12, 0.5, 0.5)
    assert abs(noma - oma) < 0.01
