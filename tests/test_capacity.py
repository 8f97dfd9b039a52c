import math

import numpy as np
import pytest

from qcap.capacity import (
    CapacityBounds,
    ChiConfig,
    Ensemble,
    _neg_chi_objective,
    _random_starts,
    chi_capacity_grid_oracle,
    chi_capacity_numeric,
    gad_bounds,
    gad_f,
    gad_norm_products,
    gad_params,
    holevo_quantity,
    mix_params,
    proposition_bounds,
    theorem_bound,
    unital_capacity,
)
from qcap.core import (
    NotInterior,
    PauliChannelParams,
    _as_ptm,
    binary_entropy,
    is_completely_positive,
    ptm_from_params,
)
from qcap.sinkhorn import ScalingPair, family_unital_params

H_QUARTER = 0.8112781244591328           # h(1/4) = 2 - (3/4) log2(3)
F_QUARTER_ONE = 0.8993095900651654       # f(0.25, 1.0)

LIGHT_CFG = ChiConfig(sizes=(2,), starts=8, xatol=1e-6, fatol=1e-11, max_iter=200)


def test_unital_capacity_values():
    from qcap.sinkhorn import UnitalForm
    assert unital_capacity(UnitalForm(1, 1, 1, (1.0, 1.0, 1.0))) == 1.0
    assert unital_capacity(UnitalForm(0, 0, 0, (0.0, 0.0, 0.0))) == 0.0
    form = UnitalForm(0.5, 0.3, 0.2, (0.5, 0.3, 0.2))
    assert unital_capacity(form) == pytest.approx(1 - H_QUARTER, abs=1e-15)


def test_theorem_bound():
    unit_pair = ScalingPair.from_operators(np.eye(2), np.eye(2))
    assert theorem_bound(0.7, unit_pair) == pytest.approx(0.7, abs=1e-15)
    root2_pair = ScalingPair.from_operators(math.sqrt(2) * np.eye(2), np.eye(2))
    assert theorem_bound(1.0, root2_pair) == pytest.approx(0.0, abs=1e-14)
    with pytest.raises(ValueError):
        theorem_bound(1.5, unit_pair)


def test_proposition_bounds_collapse_for_unital():
    bounds = proposition_bounds(PauliChannelParams(0.6, 0.4, 0.0, 0.0))
    assert bounds.lower_gap == pytest.approx(0.0, abs=1e-12)
    assert bounds.upper_gap == pytest.approx(0.0, abs=1e-12)
    expected = 1 - binary_entropy(0.5 * (1 - 0.6))
    assert bounds.lower_raw == pytest.approx(expected, abs=1e-12)
    assert bounds.upper_raw == pytest.approx(expected, abs=1e-12)


def test_proposition_bounds_match_gad_closed_form():
    for p in (0.05, 0.2, 0.35, 0.5):
        for gt in (0.05, 0.8, 2.0):
            via_family = proposition_bounds(gad_params(p, gt))
            closed = gad_bounds(p, gt)
            assert via_family.lower_raw == pytest.approx(closed.lower_raw, abs=1e-10)
            assert via_family.upper_raw == pytest.approx(closed.upper_raw, abs=1e-10)
            assert via_family.unital_capacity == pytest.approx(
                closed.unital_capacity, abs=1e-10)


def test_proposition_bounds_mixture():
    bounds = proposition_bounds(mix_params(0.2))
    assert math.isfinite(bounds.lower_raw) and math.isfinite(bounds.upper_raw)
    assert bounds.lower_raw < bounds.upper_raw


def test_capacity_bounds_invariants():
    rng = np.random.default_rng(3)
    for _ in range(100):
        p = rng.uniform(0.02, 0.5)
        gt = rng.uniform(0.01, 4.0)
        b = gad_bounds(p, gt)
        assert b.lower_raw == pytest.approx(b.unital_capacity - b.lower_gap, abs=1e-14)
        assert b.upper_raw == pytest.approx(b.unital_capacity + b.upper_gap, abs=1e-14)
        assert b.lower_raw <= b.upper_raw
        assert b.lower_gap + b.upper_gap >= -1e-12
        assert b.lower_clamped == min(max(b.lower_raw, 0.0), 1.0)
        assert b.upper_clamped == min(max(b.upper_raw, 0.0), 1.0)


def test_gad_params_values_and_domain():
    ch = gad_params(0.3, 0.0)
    assert (ch.lambda1, ch.lambda2, ch.lambda3, ch.t3) == (1.0, 1.0, 1.0, 0.0)
    ch = gad_params(0.3, 50.0)
    assert ch.lambda1 == pytest.approx(0.0, abs=1e-21)
    assert ch.t3 == pytest.approx(2 * 0.3 - 1, abs=1e-12)
    ch = gad_params(0.475, 1.0)
    assert ch.lambda1 == pytest.approx(math.exp(-1), abs=1e-15)
    assert ch.lambda3 == pytest.approx(math.exp(-2), abs=1e-15)
    assert ch.t3 == pytest.approx(-0.05 * (1 - math.exp(-2)), abs=1e-15)
    for bad_p in (0.0, -0.1, 0.6):
        with pytest.raises(ValueError):
            gad_params(bad_p, 1.0)
    with pytest.raises(ValueError):
        gad_params(0.3, -0.5)


def test_gad_f():
    for p in (0.05, 0.25, 0.5):
        assert gad_f(p, 0.0) == pytest.approx(1.0, abs=1e-15)
    for gt in (0.3, 2.0, 10.0):
        assert gad_f(0.5, gt) == pytest.approx(1.0, abs=1e-15)
    assert gad_f(0.25, 1.0) == pytest.approx(F_QUARTER_ONE, abs=1e-15)


def test_gad_bounds_special_cases():
    for gt in (0.2, 1.0, 3.0):
        b = gad_bounds(0.5, gt)
        assert b.lower_raw == b.upper_raw  # exactly, the asymmetric term is 0
        assert b.lower_gap == 0.0 and b.upper_gap == 0.0
        expected = 1 - binary_entropy(0.5 * (1 - math.exp(-gt)))
        assert b.lower_raw == pytest.approx(expected, abs=1e-12)
    for p in (0.1, 0.3):
        b = gad_bounds(p, 0.0)
        half_log = 0.5 * math.log2((1 - p) / p)
        assert b.lower_raw == pytest.approx(1 - half_log, abs=1e-12)
        assert b.upper_raw == pytest.approx(1 + half_log, abs=1e-12)


def test_gad_bounds_degenerate_near_amplitude_damping():
    b = gad_bounds(1e-3, 1.0)
    assert b.lower_raw < 0.0
    assert b.upper_raw > 1.0
    assert b.lower_clamped == 0.0
    assert b.upper_clamped == 1.0
    nab, nabi = gad_norm_products(1e-3, 1.0)
    assert nab > 5.0 and nabi > 2.0


def test_gaps_collapse_as_translation_vanishes():
    # with lambda3 = 0 fixed, both gap terms shrink monotonically to 0
    # as t3 -> 0
    gaps = []
    # stop at 1e-6: smaller t3 leaves the gap dominated by the absolute
    # 1e-16 representation noise of norms near 1
    levels = (0.4, 0.2, 0.1, 0.01, 1e-4, 1e-6)
    for t3 in levels:
        b = proposition_bounds(PauliChannelParams(0.5, 0.4, 0.0, t3))
        assert b.lower_gap >= 0.0 and b.upper_gap >= 0.0
        gaps.append((b.lower_gap, b.upper_gap))
    assert all(b[0] < a[0] and b[1] < a[1] for a, b in zip(gaps, gaps[1:]))
    # the gaps scale like 2 log2(1 + t3/2) ~ 1.44 t3 here
    assert max(gaps[-1]) < 2.0 * levels[-1]


def test_mix_params():
    ch = mix_params(0.5)
    assert ch.lambda1 == pytest.approx(0.5 * math.sqrt(0.5) + 0.5 / 3, abs=1e-15)
    assert ch.lambda2 == ch.lambda1
    assert ch.lambda3 == pytest.approx(0.5 * (1 - 0.5 / 3), abs=1e-15)
    assert ch.t3 == 0.25
    for p in (0.1, 0.3, 0.7, 0.9):
        assert is_completely_positive(mix_params(p)).is_cp
    tiny = mix_params(1e-9)
    assert tiny.lambda1 == pytest.approx(1.0, abs=1e-8)
    assert tiny.lambda3 == pytest.approx(1.0, abs=1e-8)
    assert tiny.t3 == pytest.approx(0.0, abs=1e-17)
    for bad in (0.0, 1.0, -0.5, 1.5):
        with pytest.raises(NotInterior):
            mix_params(bad)


def test_holevo_quantity_trivials():
    single = Ensemble(np.array([1.0]), np.array([[0.0, 0.0, 1.0]]))
    assert holevo_quantity(PauliChannelParams(1, 1, 1, 0), single) == 0.0

    antipodal = Ensemble(np.array([0.5, 0.5]),
                         np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]]))
    assert holevo_quantity(PauliChannelParams(1, 1, 1, 0), antipodal) \
        == pytest.approx(1.0, abs=1e-15)

    for q in (0.2, 0.6):
        depol = PauliChannelParams(q, q, q, 0)
        expected = 1 - binary_entropy((1 - q) / 2)
        assert holevo_quantity(depol, antipodal) == pytest.approx(expected, abs=1e-12)


def test_holevo_invariance_under_relabeling_and_merging():
    ch = gad_params(0.3, 0.7)
    s1, s2 = [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]
    base = Ensemble(np.array([0.5, 0.5]), np.array([s1, s2]))
    swapped = Ensemble(np.array([0.5, 0.5]), np.array([s2, s1]))
    split = Ensemble(np.array([0.5, 0.25, 0.25]), np.array([s1, s2, s2]))
    v = holevo_quantity(ch, base)
    assert holevo_quantity(ch, swapped) == pytest.approx(v, abs=1e-14)
    assert holevo_quantity(ch, split) == pytest.approx(v, abs=1e-14)


def test_ensemble_validation():
    with pytest.raises(ValueError):
        Ensemble(np.array([0.5, 0.6]), np.array([[0, 0, 1], [0, 0, -1]]))
    with pytest.raises(ValueError):
        Ensemble(np.array([1.2, -0.2]), np.array([[0, 0, 1], [0, 0, -1]]))
    with pytest.raises(ValueError):
        Ensemble(np.array([0.5, 0.5]), np.array([[0, 0, 0.5], [0, 0, -1]]))
    with pytest.raises(ValueError):
        Ensemble(np.ones(5) / 5, np.tile([0.0, 0.0, 1.0], (5, 1)))


def test_chi_identity_and_tracing():
    r = chi_capacity_numeric(PauliChannelParams(1, 1, 1, 0), LIGHT_CFG)
    assert r.value == pytest.approx(1.0, abs=1e-9)
    r = chi_capacity_numeric(PauliChannelParams(0, 0, 0, 0), LIGHT_CFG)
    assert r.value == pytest.approx(0.0, abs=1e-12)


def test_chi_matches_unital_closed_form():
    ch = PauliChannelParams(0.5, 0.3, 0.2, 0.0)
    r = chi_capacity_numeric(ch)
    assert r.value == pytest.approx(1 - H_QUARTER, abs=1e-4)
    assert r.converged
    assert r.ensemble.weights.sum() == pytest.approx(1.0, abs=1e-12)

    rng = np.random.default_rng(11)
    count = 0
    while count < 40:
        lam = rng.uniform(-1, 1, 3)
        if 1 + lam[2] < abs(lam[0] + lam[1]) or 1 - lam[2] < abs(lam[0] - lam[1]):
            continue
        count += 1
        expected = 1 - binary_entropy(0.5 * (1 - np.abs(lam).max()))
        got = chi_capacity_numeric(PauliChannelParams(*lam, 0.0), LIGHT_CFG)
        assert got.value == pytest.approx(expected, abs=1e-4)


def test_chi_deterministic():
    ch = gad_params(0.3, 0.8)
    first = chi_capacity_numeric(ch, LIGHT_CFG)
    second = chi_capacity_numeric(ch, LIGHT_CFG)
    assert first.value == second.value
    assert np.array_equal(first.ensemble.weights, second.ensemble.weights)
    assert np.array_equal(first.ensemble.states, second.ensemble.states)


def test_chi_respects_upper_bound():
    rng = np.random.default_rng(13)
    for _ in range(15):
        p = rng.uniform(0.05, 0.5)
        gt = rng.uniform(0.05, 3.0)
        bounds = gad_bounds(p, gt)
        r = chi_capacity_numeric(gad_params(p, gt), LIGHT_CFG)
        assert r.value <= bounds.upper_raw + 1e-6


def test_grid_oracle_trivials():
    ident = ptm_from_params(PauliChannelParams(1, 1, 1, 0))
    val = chi_capacity_grid_oracle(ident, n_grid=500)
    assert 0.999 <= val <= 1.0 + 1e-12
    tracing = ptm_from_params(PauliChannelParams(0, 0, 0, 0))
    assert chi_capacity_grid_oracle(tracing, n_grid=200) == pytest.approx(0.0, abs=1e-12)


def test_grid_oracle_depolarizing():
    # closed form within the 5e-4 grid resolution
    ch = ptm_from_params(PauliChannelParams(0.5, 0.5, 0.5, 0))
    expected = 1 - H_QUARTER
    val = chi_capacity_grid_oracle(ch)
    assert expected - 5e-4 <= val <= expected + 1e-12


def test_chi_matches_grid_oracle_on_gad():
    # the 4000-point grid resolves chi to ~1e-4; the coarser default grid
    # still supports the one-sided guarantee
    for gt in (0.25, 0.5, 1.0):
        ch = gad_params(0.475, gt)
        numeric = chi_capacity_numeric(ch).value
        coarse = chi_capacity_grid_oracle(ptm_from_params(ch))
        assert numeric >= coarse - 1e-4
        fine = chi_capacity_grid_oracle(ptm_from_params(ch), n_grid=4000)
        assert numeric == pytest.approx(fine, abs=1e-4)


def _objective(channel, m):
    ptm = _as_ptm(channel)
    return _neg_chi_objective(ptm[1:, 1:], ptm[1:, 0], m)


def test_chi_gradient_matches_central_differences():
    channel = PauliChannelParams(0.5, 0.4, 0.3, 0.3)
    rng = np.random.default_rng(17)
    step = 1e-6
    for m in (2, 3, 4):
        func = _objective(channel, m)
        x = _random_starts(rng, m, 6)
        value, grad = func(x)
        assert np.array_equal(value, func(x, grad=False))
        numeric = np.empty_like(x)
        for i in range(x.shape[1]):
            e = np.zeros(x.shape[1])
            e[i] = step
            numeric[:, i] = (func(x + e, grad=False) - func(x - e, grad=False)) / (2 * step)
        assert np.abs(numeric - grad).max() <= 1e-6 * np.abs(grad).max()


def test_chi_gradient_finite_at_pure_and_maximally_mixed_outputs():
    rng = np.random.default_rng(19)
    # identity: every output is pure (r = 1); tracing: the average is 0
    for channel in (PauliChannelParams(1, 1, 1, 0), PauliChannelParams(0, 0, 0, 0)):
        for m in (2, 3, 4):
            value, grad = _objective(channel, m)(_random_starts(rng, m, 4))
            assert np.all(np.isfinite(value)) and np.all(np.isfinite(grad))


def test_chi_converges_before_the_iteration_cap():
    cfg = ChiConfig(sizes=(2,), starts=4, xatol=1e-7, fatol=1e-12, max_iter=200)
    rng = np.random.default_rng(23)
    count = 0
    while count < 50:
        lam = rng.uniform(-1, 1, 3)
        if 1 + lam[2] < abs(lam[0] + lam[1]) or 1 - lam[2] < abs(lam[0] - lam[1]):
            continue
        count += 1
        r = chi_capacity_numeric(PauliChannelParams(*lam, 0.0), cfg)
        assert r.converged
        assert 0 < r.iterations < 200
    r = chi_capacity_numeric(gad_params(0.475, 1.0))
    assert r.converged
    assert r.iterations > 0
