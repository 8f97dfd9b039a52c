import cmath
import math

import numpy as np
import pytest

from qcap import capacity, verify
from qcap.capacity import (
    CapacityBounds,
    ChiConfig,
    Ensemble,
    _chi_objective,
    _random_starts,
    chi_capacity_grid_oracle,
    chi_capacity_numeric,
    gad_bounds,
    gad_f,
    gad_norm_products,
    analyze,
    gad_params,
    holevo_quantity,
    mix_params,
    theorem_bound,
    unital_capacity,
)
from qcap.core import (
    NotInterior,
    PauliChannelParams,
    _as_ptm,
    binary_entropy,
    entropy_kernel,
    is_completely_positive,
)
from qcap.optimize import _LADDER, bfgs_batch
from qcap.sinkhorn import ScalingPair, family_scaling_pair

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
    bounds = analyze(PauliChannelParams(0.6, 0.4, 0.0, 0.0)).bounds
    assert bounds.lower_gap == pytest.approx(0.0, abs=1e-12)
    assert bounds.upper_gap == pytest.approx(0.0, abs=1e-12)
    expected = 1 - binary_entropy(0.5 * (1 - 0.6))
    assert bounds.lower_raw == pytest.approx(expected, abs=1e-12)
    assert bounds.upper_raw == pytest.approx(expected, abs=1e-12)


def test_proposition_bounds_match_gad_closed_form():
    for p in (0.05, 0.2, 0.35, 0.5):
        for gt in (0.05, 0.8, 2.0):
            via_family = analyze(gad_params(p, gt)).bounds
            closed = gad_bounds(p, gt)
            assert via_family.lower_raw == pytest.approx(closed.lower_raw, abs=1e-10)
            assert via_family.upper_raw == pytest.approx(closed.upper_raw, abs=1e-10)
            assert via_family.unital_capacity == pytest.approx(
                closed.unital_capacity, abs=1e-10)


def _analyze_by_objects(params):
    # the object path analyze once took: unital form, scaling pair with
    # its 2x2 operators, bounds from the pair's norm products
    form = analyze(params).form
    pair = family_scaling_pair(params)
    bounds = CapacityBounds.from_gaps(unital_capacity(form), 2.0 * math.log2(pair.norm_ab),
                                      2.0 * math.log2(pair.norm_ab_inv))
    return (form.lt1, form.lt2, form.lt3, pair.norm_ab, pair.norm_ab_inv,
            bounds.unital_capacity, bounds.lower_raw, bounds.upper_raw,
            bounds.lower_clamped, bounds.upper_clamped)


def _random_custom_family(rng):
    # lambdas and a t3 half-range T with every t3 in [-T, T] interior and
    # completely positive, drawn as the sweep_bounds benchmark draws them
    while True:
        l1, l2, l3 = (round(float(v), 6) for v in rng.uniform(-0.9, 0.9, 3))
        half = float(rng.uniform(0.05, 0.9)) * (1.0 - abs(l3))
        if (1 + l3 >= math.hypot(half, l1 + l2) + 1e-6
                and 1 - l3 >= math.hypot(half, l1 - l2) + 1e-6):
            return (l1, l2, l3), half


def _analyze_inputs():
    fig1 = [gad_params(0.475, g) for g in np.linspace(0.05, 3.0, 60).tolist()]
    fig2 = [mix_params(p) for p in np.linspace(0.02, 0.98, 49).tolist()]
    rng = np.random.default_rng(2024)
    drawn = []
    for _ in range(7000):
        drawn.append(gad_params(float(rng.uniform(0.05, 0.5)), float(rng.uniform(0.0, 3.0))))
        drawn.append(mix_params(float(rng.uniform(0.02, 0.98))))
        lams, half = _random_custom_family(rng)
        drawn.append(PauliChannelParams(*lams, float(rng.uniform(-half, half))))
    return fig1 + fig2 + drawn


def test_analyze_matches_the_object_path_bit_for_bit():
    # analyze's float pass gives every row number of the object path, bit
    # for bit, on the figure grids and 21 000 random family points
    inputs = _analyze_inputs()
    assert len(inputs) == 60 + 49 + 21_000
    for params in inputs:
        report = analyze(params)
        form, bounds = report.form, report.bounds
        row = (form.lt1, form.lt2, form.lt3, report.norm_ab, report.norm_ab_inv,
               bounds.unital_capacity, bounds.lower_raw, bounds.upper_raw,
               bounds.lower_clamped, bounds.upper_clamped)
        expected = _analyze_by_objects(params)
        assert row == expected, params
        assert [v.hex() for v in row] == [v.hex() for v in expected], params
        assert all(type(v) is float for v in row)


def _family_sweeps():
    # the figure grids, 70 seeded gad, mix and custom sweeps of 100 points
    # each, built as the sweep command builds them, and lambda = (1, a, a),
    # t3 = 0
    sweeps = [[gad_params(0.475, g) for g in np.linspace(0.05, 3.0, 60).tolist()],
              [mix_params(p) for p in np.linspace(0.02, 0.98, 49).tolist()]]
    rng = np.random.default_rng(2025)
    for _ in range(70):
        p = float(rng.uniform(0.05, 0.5))
        lams, half = _random_custom_family(rng)
        sweeps += [[gad_params(p, g) for g in np.linspace(0.05, 3.0, 100).tolist()],
                   [mix_params(x) for x in np.linspace(0.02, 0.98, 100).tolist()],
                   [PauliChannelParams(*lams, t) for t in np.linspace(-half, half, 100).tolist()]]
    sweeps.append([PauliChannelParams(1.0, a, a, 0.0)
                   for a in np.linspace(-0.99, 0.99, 100).tolist()])
    return sweeps


def _report_fields(report):
    form, bounds = report.form, report.bounds
    return (form.lt1, form.lt2, form.lt3, *form.singular_values, report.norm_ab,
            report.norm_ab_inv, bounds.unital_capacity, bounds.lower_gap, bounds.upper_gap,
            bounds.lower_raw, bounds.upper_raw, bounds.lower_clamped, bounds.upper_clamped)


def _pair_fields(pair):
    return (pair.norm_a, pair.norm_b, pair.norm_a_inv, pair.norm_b_inv)


def test_stacked_family_closed_forms_match_the_single_calls():
    # every field of analyze and family_scaling_pair on a family stack,
    # slice by slice, is the single call's, bit for bit: whole sweeps in
    # one array pass, and their first points as the small stacks that go
    # one channel at a time
    sweeps = _family_sweeps()
    assert len(sweeps) == 2 + 210 + 1
    for channels in sweeps:
        singles = [(_report_fields(analyze(c)), family_scaling_pair(c)) for c in channels]
        for size in (len(channels), 1, 2, 7):
            stack = PauliChannelParams.stack(channels[:size])
            report, pair = analyze(stack), family_scaling_pair(stack)
            stacked = (_report_fields(report), _pair_fields(pair))
            for column in (c for fields in stacked for c in fields):
                assert isinstance(column, np.ndarray) and column.shape == (size,)
            assert pair.a.shape == pair.b.shape == (size, 2, 2)
            for k, (report1, pair1) in enumerate(singles[:size]):
                assert all(type(v) is float for v in report1 + _pair_fields(pair1))
                expected = (report1, _pair_fields(pair1))
                got = tuple(tuple(float(c[k]) for c in fields) for fields in stacked)
                assert [[v.hex() for v in f] for f in got] == \
                    [[v.hex() for v in f] for f in expected], channels[k]
                assert pair.a[k].tobytes() == pair1.a.tobytes()
                assert pair.b[k].tobytes() == pair1.b.tobytes()


def test_an_empty_stack_gives_empty_columns():
    report = analyze(PauliChannelParams.stack([]))
    assert all(column.shape == (0,) for column in _report_fields(report))


def test_proposition_bounds_mixture():
    bounds = analyze(mix_params(0.2)).bounds
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
        b = analyze(PauliChannelParams(0.5, 0.4, 0.0, t3)).bounds
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


def _holevo_reference(channel, ensemble):
    # the Holevo quantity as holevo_quantity once wrote it: np.linalg.norm,
    # np.clip and an entropy call for the average and one for the outputs
    ptm = _as_ptm(channel)
    out = ensemble.states @ ptm[1:, 1:].T + ptm[1:, 0]
    radii = np.clip(np.linalg.norm(out, axis=1), 0.0, 1.0)
    avg = ensemble.weights @ out
    r_avg = min(float(np.linalg.norm(avg)), 1.0)
    s_avg = float(entropy_kernel(np.array(0.5 * (1.0 - r_avg))))
    s_each = entropy_kernel(0.5 * (1.0 - radii))
    return s_avg - float(ensemble.weights @ s_each)


def test_holevo_quantity_matches_its_reference_bit_for_bit():
    # seeded random family params and rotated (generic) channels with
    # ensembles of 1 to 4 states, and a state whose radius rounds past 1
    rng = np.random.default_rng(11)
    cases = []
    for k in range(400):
        params = _random_cp_family(rng, k % 4)
        channel = params
        if k % 2:
            channel = _rotated_ptm(params, _random_rotation(rng), _random_rotation(rng))
        m = 1 + k % 4
        states = rng.normal(size=(m, 3))
        states /= np.linalg.norm(states, axis=1, keepdims=True)
        cases.append((channel, Ensemble(rng.dirichlet(np.ones(m)), states)))
    past_one = [0.9698243673082586, -0.03271874667890908, -0.24159921396994988]
    assert np.linalg.norm(past_one) > 1.0
    for weights in ([1.0], [0.3, 0.7]):
        states = [past_one, [0.0, 0.0, 1.0]][: len(weights)]
        cases.append((PauliChannelParams(1, 1, 1, 0), Ensemble(weights, states)))
    for channel, ensemble in cases:
        assert holevo_quantity(channel, ensemble) == _holevo_reference(channel, ensemble)


def test_holevo_quantity_of_a_family_channel_is_its_ptm_value():
    # the family outputs (lambda1 x, lambda2 y, lambda3 z + t3) give the
    # value of the PTM product on the fig points with their exact ensembles
    for params in ([gad_params(0.475, g) for g in np.linspace(0.05, 3.0, 60).tolist()]
                   + [mix_params(p) for p in np.linspace(0.02, 0.98, 49).tolist()]):
        ensemble = chi_capacity_numeric(params).ensemble
        assert holevo_quantity(params, ensemble) == \
            holevo_quantity(_as_ptm(params), ensemble)


def test_ensemble_validation():
    with pytest.raises(ValueError):
        Ensemble(np.array([0.5, 0.6]), np.array([[0, 0, 1], [0, 0, -1]]))
    with pytest.raises(ValueError):
        Ensemble(np.array([1.2, -0.2]), np.array([[0, 0, 1], [0, 0, -1]]))
    with pytest.raises(ValueError):
        Ensemble(np.array([0.5, 0.5]), np.array([[0, 0, 0.5], [0, 0, -1]]))
    with pytest.raises(ValueError):
        Ensemble(np.ones(5) / 5, np.tile([0.0, 0.0, 1.0], (5, 1)))


@pytest.mark.parametrize("weights, states", [
    ([math.nan, 1.0], [[0, 0, 1], [0, 0, -1]]),
    ([0.5, 0.5], [[0, 0, math.nan], [0, 0, 1]]),
], ids=["nan-weight", "nan-state"])
def test_ensemble_rejects_nan(weights, states):
    with pytest.raises(ValueError):
        Ensemble(weights, states)


def test_chi_identity_and_tracing():
    r = chi_capacity_numeric(PauliChannelParams(1, 1, 1, 0), LIGHT_CFG)
    assert r.value == pytest.approx(1.0, abs=1e-9)
    r = chi_capacity_numeric(PauliChannelParams(0, 0, 0, 0), LIGHT_CFG)
    assert r.value == pytest.approx(0.0, abs=1e-12)


def test_chi_matches_unital_closed_form():
    ch = PauliChannelParams(0.5, 0.3, 0.2, 0.0)
    r = chi_capacity_numeric(ch, ChiConfig())
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
    assert chi_capacity_grid_oracle(PauliChannelParams(1, 1, 1, 0)) == 1.0
    assert chi_capacity_grid_oracle(PauliChannelParams(0, 0, 0, 0)) == 0.0
    assert chi_capacity_grid_oracle(PauliChannelParams(0, 0, 0, 0.5)) == 0.0


def test_grid_oracle_depolarizing():
    # a unital channel's chi is 1 - h((1 - s_max)/2)
    depolarizing = chi_capacity_grid_oracle(PauliChannelParams(0.5, 0.5, 0.5, 0))
    assert abs(depolarizing - (1 - H_QUARTER)) <= 1e-12
    rng = np.random.default_rng(37)
    count = 0
    while count < 20:
        lam = rng.uniform(-1, 1, 3)
        if 1 + lam[2] < abs(lam[0] + lam[1]) or 1 - lam[2] < abs(lam[0] - lam[1]):
            continue
        count += 1
        expected = 1.0 - binary_entropy(0.5 * (1.0 - np.abs(lam).max()))
        assert abs(chi_capacity_grid_oracle(PauliChannelParams(*lam, 0.0)) - expected) <= 1e-12


ORACLE_CHANNELS = {
    "gad-0.25": gad_params(0.475, 0.25),
    "gad-0.5": gad_params(0.475, 0.5),
    "gad-1": gad_params(0.475, 1.0),
    "mix": mix_params(0.3),
    "custom": PauliChannelParams(0.5, 0.4, 0.3, 0.3),
    "custom-l2": PauliChannelParams(0.2, 0.6, 0.1, 0.5),
    "custom-poles": PauliChannelParams(0.3, 0.2, 0.6, 0.3),
}

EDGE_CHANNELS = {
    "identity": PauliChannelParams(1, 1, 1, 0),
    "tracing": PauliChannelParams(0, 0, 0, 0),
    "constant": PauliChannelParams(0, 0, 0, 0.5),
    "l-zero": PauliChannelParams(0, 0, 0.5, 0.3),
    "opposite": PauliChannelParams(0.6, -0.6, 0, 0),
    "lambda3-zero": PauliChannelParams(0.4, 0.3, 0, 0.3),
}


@pytest.mark.parametrize("channel", ORACLE_CHANNELS.values(), ids=ORACLE_CHANNELS.keys())
def test_chi_matches_grid_oracle(channel):
    # the oracle is exact up to its grid error, about 1e-11 here; the
    # last channel's optimum mixes the two poles, off the z = 0 plane
    got = chi_capacity_numeric(channel, ChiConfig()).value
    assert abs(got - chi_capacity_grid_oracle(channel)) <= 1e-9


@pytest.mark.parametrize("channel", [*ORACLE_CHANNELS.values(), *EDGE_CHANNELS.values()],
                         ids=[*ORACLE_CHANNELS, *EDGE_CHANNELS])
def test_family_chi_is_exact_and_attained(channel):
    # the exact solver against the dense oracle and the search; its
    # value is the Holevo quantity of its own ensemble, bit for bit
    result = chi_capacity_numeric(channel)
    assert abs(result.value - chi_capacity_grid_oracle(channel)) <= 1e-10
    assert result.value >= chi_capacity_numeric(channel, ChiConfig()).value - 1e-13
    assert result.value == holevo_quantity(channel, result.ensemble)
    assert result.ensemble.size <= 4


def _random_rotation(rng):
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    return q * np.linalg.det(q)


def _rotated_ptm(params, out, inp):
    # PTM of b -> out (M inp b + t) for the family channel b -> M b + t
    ptm = _as_ptm(params)
    rotated = np.eye(4)
    rotated[1:, 1:] = out @ ptm[1:, 1:] @ inp
    rotated[1:, 0] = out @ ptm[1:, 0]
    return rotated


ROTATED_CHANNELS = {
    **ORACLE_CHANNELS,
    **{name: EDGE_CHANNELS[name] for name in ("identity", "l-zero", "opposite", "lambda3-zero")},
    "unital": PauliChannelParams(0.5, 0.3, 0.2, 0.0),
}


@pytest.mark.parametrize("seed, params", enumerate(ROTATED_CHANNELS.values()),
                         ids=ROTATED_CHANNELS.keys())
def test_search_finds_chi_of_a_rotated_family_channel(seed, params):
    # rotations on input and output keep chi but move the optimal
    # states off the coordinate axes
    rng = np.random.default_rng(seed)
    channel = _rotated_ptm(params, _random_rotation(rng), _random_rotation(rng))
    assert abs(chi_capacity_numeric(channel).value - capacity._family_chi(params).value) <= 1e-12


def test_family_chi_runs_no_search(monkeypatch):
    # a family channel without a config never reaches the optimizer,
    # while a config still asks for the search
    def refuse(*args, **kwargs):
        raise AssertionError("bfgs_batch called")

    monkeypatch.setattr(capacity, "bfgs_batch", refuse)
    for channel in [*ORACLE_CHANNELS.values(), *EDGE_CHANNELS.values()]:
        chi_capacity_numeric(channel)
    with pytest.raises(AssertionError, match="bfgs_batch"):
        chi_capacity_numeric(gad_params(0.475, 1.0), ChiConfig())


def _complex_step(f, z):
    # f'(z) from f(z + i h): exact to rounding, with no cancellation
    return f(complex(z, 1e-30)).imag / 1e-30


def _entropy_of_radius(r):
    # h((1 - r)/2) in bits for a real or complex radius r, sharing no
    # code with qcap
    x = 0.5 * (1.0 - r)
    return -sum(p * cmath.log(p) for p in (x, 1.0 - x) if p != 0.0) / math.log(2.0)


def _reduction(channel):
    # the reduction's two curves, s(z) = S(r(z)) and S_avg(z) = S(lambda3 z + t3)
    # (h is symmetric, so S(|u|) = S(u)), written out independently of qcap
    lam = max(abs(channel.lambda1), abs(channel.lambda2))

    def least(z):
        height = channel.lambda3 * z + channel.t3
        return _entropy_of_radius(cmath.sqrt(lam * lam * (1.0 - z * z) + height * height))

    def average(z):
        return _entropy_of_radius(channel.lambda3 * z + channel.t3)

    return least, average


@pytest.mark.parametrize("eta", np.linspace(0.02, 0.98, 25))
def test_amplitude_damping_chi_matches_the_closed_form(eta):
    # amplitude damping of transmissivity eta is the family member
    # (sqrt(eta), sqrt(eta), eta; 1 - eta); Giovannetti & Fazio (PRA 71,
    # 032314, 2005) give its chi as max_q [h(eta q) - h((1 + root)/2)],
    # root = sqrt((1 - 2 eta q)^2 + 4 eta q (1 - q)), maximized here by
    # scipy's bounded scalar minimizer around the best of a grid
    optimize = pytest.importorskip("scipy.optimize")

    def gf(q):
        root = math.sqrt((1.0 - 2.0 * eta * q) ** 2 + 4.0 * eta * q * (1.0 - q))
        return (_entropy_of_radius(1.0 - 2.0 * eta * q) - _entropy_of_radius(min(root, 1.0))).real

    grid = np.linspace(0.0, 1.0, 1001)
    k = int(np.argmax([gf(q) for q in grid]))
    found = optimize.minimize_scalar(lambda q: -gf(q), method="bounded",
                                     bounds=(grid[max(k - 1, 0)], grid[min(k + 1, 1000)]),
                                     options={"xatol": 1e-12})
    expected = max(-found.fun, gf(grid[k]))
    channel = PauliChannelParams(math.sqrt(eta), math.sqrt(eta), eta, 1.0 - eta)
    assert abs(chi_capacity_numeric(channel).value - expected) <= 1e-12


def _random_cp_family(rng, kind):
    # kind 1 sets lambda3 = 0, kind 2 sets l = 0 and kind 3 sets t3 = 0
    while True:
        lam1, lam2, lam3, t3 = rng.uniform(-1.0, 1.0, 4)
        lam3 = 0.0 if kind == 1 else lam3
        lam1, lam2 = (0.0, 0.0) if kind == 2 else (lam1, lam2)
        t3 = 0.0 if kind == 3 else t3
        if 1 + lam3 >= math.hypot(t3, lam1 + lam2) and 1 - lam3 >= math.hypot(t3, lam1 - lam2):
            return PauliChannelParams(float(lam1), float(lam2), float(lam3), float(t3))


RANDOM_FAMILY = [_random_cp_family(np.random.default_rng(41), k % 4) for k in range(200)]

# optimal bitangents with one end at z = +-1 and one inside; about 1 in
# 700 random channels has one
ONE_END_PINNED = [
    PauliChannelParams(0.087, -0.14, 0.083, -0.868),
    PauliChannelParams(-0.376, -0.034, 0.322, 0.565),
    PauliChannelParams(0.009, 0.194, 0.131, -0.804),
    PauliChannelParams(-0.593, -0.475, 0.5007, -0.484),
]


def test_family_chi_meets_its_tangent_conditions():
    # the exact solver's own optimality conditions, checked by complex-step
    # derivatives: a bitangent's free ends touch s with the chord's slope m,
    # a best height inside it has S_avg' = m, and a single pair has
    # S_avg' = s'; the reported slope is m or s', and the value is its
    # ensemble's Holevo quantity
    shapes = set()
    for channel in [*ORACLE_CHANNELS.values(), *EDGE_CHANNELS.values(), *RANDOM_FAMILY,
                    *ONE_END_PINNED]:
        least, average = _reduction(channel)
        a, b, z, slope, steps, residual = capacity._family_heights(channel)
        assert -1.0 <= a <= z <= b <= 1.0 and residual <= 1e-11
        if a == b:
            shapes.add("pair")
            if abs(z) < 1.0:
                assert abs(_complex_step(least, z) - slope) <= 1e-10
                assert abs(_complex_step(average, z) - slope) <= 1e-10
        else:
            m = (least(b).real - least(a).real) / (b - a)
            assert abs(slope - m) <= 1e-12
            for end in (a, b):
                if abs(end) < 1.0:
                    assert abs(_complex_step(least, end) - m) <= 1e-10
            if a < z < b:
                assert abs(_complex_step(average, z) - m) <= 1e-10
            shapes.add("both pinned" if (a, b) == (-1.0, 1.0) else "one pinned")
        result = chi_capacity_numeric(channel)
        assert result.value == holevo_quantity(channel, result.ensemble)
        assert result.ensemble.size <= 4
        assert result.converged
    assert shapes == {"pair", "one pinned", "both pinned"}


def _rho_prime_upper(mpmath, x0, x1):
    # an upper bound on rho' over [x0, x1] by interval arithmetic, for
    # rho = F'/F'' and F(x) = S(sqrt(x)) (S in nats: the scale cancels).
    # With r = sqrt(x) and A = atanh(r), F' = -A/(2r), and
    # rho = 2xA/(r/(1 - x) - A) = P/Q for the positive-coefficient series
    # P = 2 sum x^k/(2k + 1) and Q = sum 2(k + 1) x^k/(2k + 3).  Up to
    # x = 1/2 the series, cut after 80 terms, with every tail below
    # 81 2^-77, avoid the cancellation of r/(1 - x) - A near x = 0
    iv = mpmath.iv
    x = iv.mpf([x0, x1])
    if x1 <= 0.5:
        tail = iv.mpf([0, 81 * mpmath.mpf(2) ** -77])
        p = sum(2 * x ** k / (2 * k + 1) for k in range(80)) + tail
        dp = sum(2 * k * x ** (k - 1) / (2 * k + 1) for k in range(1, 80)) + tail
        q = sum(2 * (k + 1) * x ** k / (2 * k + 3) for k in range(80)) + tail
        dq = sum(2 * k * (k + 1) * x ** (k - 1) / (2 * k + 3) for k in range(1, 80)) + tail
        return ((dp * q - p * dq) / (q * q)).b
    r = iv.sqrt(x)
    A = iv.log((1 + r) / (1 - r)) / 2
    ratio = r / (1 - x)
    n, dn = 2 * x * A, 2 * A + ratio
    d, dd = ratio - A, ratio / (1 - x)
    return ((dn * d - n * dd) / (d * d)).b


def test_rho_falls_faster_than_two():
    # the lemma behind _family_heights' case split: rho' < -2 on [0, 1).
    # Interval arithmetic on a partition of [0, 1 - 2^-60], split where a
    # piece is inconclusive; every double below 1 is at most 1 - 2^-53
    mpmath = pytest.importorskip("mpmath")
    iv, mpf = mpmath.iv, mpmath.mpf
    saved = iv.dps
    iv.dps = 30
    try:
        with mpmath.workdps(30):
            top = 1 - mpf(2) ** -60
            todo = [(mpf(k) / 16, mpf(k + 1) / 16) for k in range(8)] + [(mpf(0.5), top)]
            pieces = 0
            while todo:
                x0, x1 = todo.pop()
                if _rho_prime_upper(mpmath, x0, x1) < -2:
                    pieces += 1
                    continue
                # halve [0, 1/2] evenly, and the rest evenly in log(1 - x)
                mid = (x0 + x1) / 2 if x1 <= 0.5 else 1 - mpmath.sqrt((1 - x0) * (1 - x1))
                assert x1 - x0 > mpf(2) ** -80 * (1 - x1)
                todo += [(x0, mid), (mid, x1)]
            assert pieces < 1000
    finally:
        iv.dps = saved
    with mpmath.workdps(50):
        # pointwise, from derivatives of F itself: rho' = 1 - F' F'''/F''^2
        def entropy(r):
            return -sum(p * mpmath.log(p) for p in ((1 - r) / 2, (1 + r) / 2))

        def rho_and_slope(x):
            d1, d2, d3 = (mpmath.diff(lambda y: entropy(mpmath.sqrt(y)), x, n) for n in (1, 2, 3))
            return d1 / d2, 1 - d1 * d3 / (d2 * d2)

        for x, slope in [("0.7", "-3.02"), ("0.999999", "-14.2")]:
            rho, drho = rho_and_slope(mpf(x))
            assert mpmath.nstr(drho, 3) == slope
            r = mpmath.sqrt(mpf(x))
            atanh = mpmath.atanh(r)
            assert abs(rho - 2 * mpf(x) * atanh / (r / (1 - mpf(x)) - atanh)) < mpf(10) ** -30
        # the series limits: rho(0) = P(0)/Q(0) = 2/(2/3) = 3, and
        # rho'(0) = (P'(0) Q(0) - P(0) Q'(0))/Q(0)^2 = -13/5
        rho, drho = rho_and_slope(mpf(10) ** -12)
        assert abs(rho - 3) < mpf(10) ** -11 and abs(drho + mpf(13) / 5) < mpf(10) ** -11
        # rho -> 0 as x -> 1, falling all the way
        tops = [rho_and_slope(1 - mpf(10) ** -k)[0] for k in range(2, 14, 2)]
        assert all(later < earlier for earlier, later in zip(tops, tops[1:]))
        assert 0 < tops[-1] < mpf(10) ** -10
        # the closed form proof in _family_heights: (3 - r^2) atanh(r) - 3r
        # is the series sum_{k >= 2} 4(k - 1)/(4k^2 - 1) r^(2k + 1)
        coeffs = mpmath.taylor(lambda r: (3 - r * r) * mpmath.atanh(r) - 3 * r, 0, 25)
        for n, c in enumerate(coeffs):
            k = (n - 1) // 2
            expected = 4 * (k - 1) / mpf(4 * k * k - 1) if n % 2 and k >= 2 else 0
            assert abs(c - expected) < mpf(10) ** -30


@pytest.mark.parametrize("channel", [
    *RANDOM_FAMILY[:4],
    ONE_END_PINNED[0],
    # a best height just past the polished bitangent's end, where the
    # envelope equals s again; clipping it to the end loses 2.8e-7
    PauliChannelParams(0.2706, 0.1603, 0.1811, 0.78),
], ids=["random-0", "lambda3-zero", "l-zero", "t3-zero", "one-end-pinned", "past-the-end"])
def test_family_chi_meets_the_grid_oracle(channel):
    assert chi_capacity_numeric(channel).value >= chi_capacity_grid_oracle(channel) - 1e-13


def test_family_chi_reports_its_newton_steps(monkeypatch):
    # iterations counts the Newton steps and converged the tangent
    # residual: with no steps allowed the starting height misses it
    channel = gad_params(0.475, 1.0)
    result = chi_capacity_numeric(channel)
    assert result.converged and 0 < result.iterations <= 10
    monkeypatch.setattr(capacity, "_NEWTON_CAP", 0)
    result = chi_capacity_numeric(channel)
    assert not result.converged and result.iterations == 0


FIG_CHANNELS = ([gad_params(0.475, float(gt)) for gt in np.linspace(0.05, 3.0, 60)]
                + [mix_params(float(p)) for p in np.linspace(0.02, 0.98, 49)])


def test_family_chi_value_is_its_ensembles_holevo_quantity_bit_for_bit():
    # a single pair's value is computed on floats and two pairs' by
    # holevo_quantity; either way it is holevo_quantity's value of the
    # returned ensemble, with no tolerance.  Every figure point is a
    # single pair; seeded random interior CP channels take both branches
    stack = verify._random_family_interiors(np.random.default_rng(39), 5000)
    randoms = [PauliChannelParams(*fields) for fields in zip(
        stack.lambda1.tolist(), stack.lambda2.tolist(), stack.lambda3.tolist(),
        stack.t3.tolist())]
    sizes = {"fig": set(), "other": set()}
    for kind, channels in (("fig", FIG_CHANNELS),
                           ("other", [*randoms, *ORACLE_CHANNELS.values(),
                                      *EDGE_CHANNELS.values(), *RANDOM_FAMILY,
                                      *ONE_END_PINNED])):
        for channel in channels:
            result = capacity._family_chi(channel)
            assert type(result.value) is float
            assert result.value == holevo_quantity(channel, result.ensemble), channel
            sizes[kind].add(result.ensemble.size)
    assert sizes == {"fig": {2}, "other": {2, 4}}


def test_exact_chi_takes_no_hull_and_few_evaluations(monkeypatch):
    # a timing-free guard for the exact solver's work: no lower hull, and
    # at most 12 evaluations of s or its slopes per solve, two at the ends
    # and one per Newton step (at most 9 on the figure points, 7 on the
    # others); every evaluation goes through _entropy_slopes, and those
    # that take the entropy s itself (the ends and the bitangent's steps)
    # through _least_entropy
    def refuse(z, s):
        raise AssertionError("_lower_hull called")

    heights, entropies = [], []
    slopes, least = capacity._entropy_slopes, capacity._least_entropy

    def counting_slopes(params, z):
        heights.append(z)
        return slopes(params, z)

    def counting_least(params, z):
        entropies.append(z)
        return least(params, z)

    monkeypatch.setattr(capacity, "_lower_hull", refuse)
    monkeypatch.setattr(capacity, "_entropy_slopes", counting_slopes)
    monkeypatch.setattr(capacity, "_least_entropy", counting_least)
    for channel in [*FIG_CHANNELS, *ORACLE_CHANNELS.values(), *EDGE_CHANNELS.values(),
                    *RANDOM_FAMILY]:
        heights.clear()
        entropies.clear()
        chi_capacity_numeric(channel)
        assert 2 <= len(heights) <= 12
        assert entropies == [-1.0, 1.0, *entropies[2:]] and len(entropies) <= len(heights)


def test_figure_hulls_keep_the_whole_grid(monkeypatch):
    # a timing-free guard for the grid oracle: on every figure point the
    # profile is strictly convex, so the hull is the whole 200 001-point
    # grid and comes back as the input arrays, with no per-point Python loop
    calls = []
    hull = capacity._lower_hull

    def checking_hull(z, s):
        hx, hy = hull(z, s)
        calls.append(len(z) == 200_001 and hx is z and hy is s)
        return hx, hy

    monkeypatch.setattr(capacity, "_lower_hull", checking_hull)
    for channel in FIG_CHANNELS:
        chi_capacity_grid_oracle(channel)
    assert len(calls) == 109 and all(calls)


def _reference_hull(z, s):
    # the plain monotone chain, one point at a time
    hx, hy = [], []
    for x, y in zip(z.tolist(), s.tolist()):
        while len(hx) >= 2 and ((hx[-1] - hx[-2]) * (y - hy[-2])
                                <= (hy[-1] - hy[-2]) * (x - hx[-2])):
            hx.pop()
            hy.pop()
        hx.append(x)
        hy.append(y)
    return hx, hy


def _assert_same_hull(z, s):
    hx, hy = capacity._lower_hull(z, s)
    rx, ry = _reference_hull(z, s)
    assert hx.tolist() == rx and hy.tolist() == ry
    return hx, hy


def test_lower_hull_matches_the_monotone_chain():
    # vertex for vertex, with float ==, on the figure profiles and on
    # seeded random CP family profiles, a quarter each with lambda3 = 0,
    # l = 0 or t3 = 0
    rng = np.random.default_rng(5)
    channels = FIG_CHANNELS + [_random_cp_family(rng, k % 4) for k in range(2000)]
    grid = np.linspace(-1.0, 1.0, 257)
    looped = 0
    for channel in channels:
        s, _ = capacity._family_profile(channel, grid)
        hx, _ = _assert_same_hull(grid, s)
        looped += hx is not grid
    assert looped > 0
    # a constant profile keeps only its two ends
    s, _ = capacity._family_profile(PauliChannelParams(0.6, 0.6, 0.6, 0), grid)
    assert np.all(s == s[0])
    hx, hy = _assert_same_hull(grid, s)
    assert hx.tolist() == [-1.0, 1.0] and hy.tolist() == [s[0], s[0]]
    # a concave profile pops at the third point already
    z = np.linspace(-1.0, 1.0, 9)
    hx, _ = _assert_same_hull(z, 1.0 - z * z)
    assert hx.tolist() == [-1.0, 1.0]
    # two and three points, convex and not
    for z, s in [([0.0, 1.0], [3.0, 2.0]), ([0.0, 0.5, 1.0], [1.0, 0.0, 1.0]),
                 ([0.0, 0.5, 1.0], [0.0, 1.0, 0.0]), ([0.0, 0.5, 1.0], [0.0, 0.5, 1.0])]:
        _assert_same_hull(np.array(z), np.array(s))


def test_chi_gradient_matches_central_differences():
    func = _chi_objective(*_ptm_parts(PauliChannelParams(0.5, 0.4, 0.3, 0.3)))
    rng = np.random.default_rng(17)
    step = 1e-6
    for m in (2, 3, 4):
        x = _random_starts(rng, m, 6)
        _, gradient = func(x)
        grad = gradient(np.arange(len(x)))
        numeric = np.empty_like(x)
        for i in range(x.shape[1]):
            e = np.zeros(x.shape[1])
            e[i] = step
            numeric[:, i] = (func(x + e)[0] - func(x - e)[0]) / (2 * step)
        assert np.abs(numeric - grad).max() <= 1e-6 * np.abs(grad).max()


def test_chi_gradient_finite_at_pure_and_maximally_mixed_outputs():
    rng = np.random.default_rng(19)
    # identity: every output is pure (r = 1); tracing: the average is 0
    for channel in (PauliChannelParams(1, 1, 1, 0), PauliChannelParams(0, 0, 0, 0)):
        func = _chi_objective(*_ptm_parts(channel))
        for m in (2, 3, 4):
            value, gradient = func(_random_starts(rng, m, 4))
            assert np.all(np.isfinite(value)) and np.all(np.isfinite(gradient(np.arange(4))))
    # the slope is its r -> 0 limit exactly at and near a maximally mixed output
    tiny = np.array([0.0, 5e-324, 1e-300, 2.0 ** -31, 2.0 ** -30])
    assert np.all(capacity._entropy_slope(tiny) == -1.0 / math.log(2.0))


UNITAL_CFG = ChiConfig(sizes=(2,), starts=4, xatol=1e-7, fatol=1e-12, max_iter=200)


def _unital_channels(seed, count):
    # criterion 1's draw: diagonal unital channels, uniform on the CP part
    # of [-1, 1]^3
    rng = np.random.default_rng(seed)
    channels = []
    while len(channels) < count:
        lam = rng.uniform(-1, 1, 3)
        if 1 + lam[2] < abs(lam[0] + lam[1]) or 1 - lam[2] < abs(lam[0] - lam[1]):
            continue
        channels.append(PauliChannelParams(*lam, 0.0))
    return channels


def test_chi_converges_before_the_iteration_cap():
    for channel in _unital_channels(23, 50):
        r = chi_capacity_numeric(channel, UNITAL_CFG)
        assert r.converged
        assert 0 < r.iterations < 200
    r = chi_capacity_numeric(gad_params(0.475, 1.0), ChiConfig())
    assert r.converged
    assert r.iterations > 0


@pytest.mark.parametrize("make", [
    lambda: gad_params(math.nan, 1.0),
    lambda: gad_params(0.3, math.nan),
    lambda: ChiConfig(sizes=()),
    lambda: ChiConfig(sizes=(2, 5)),
    lambda: ChiConfig(starts=-1),
    lambda: ChiConfig(sizes=(1, 2), starts=0),
    lambda: ChiConfig(max_iter=0),
    lambda: ChiConfig(xatol=math.nan),
    lambda: ChiConfig(xatol=-1e-9),
    lambda: ChiConfig(fatol=math.nan),
    lambda: ChiConfig(fatol=-1.0),
    lambda: ChiConfig(sizes=(1,)),
    lambda: ChiConfig(starts=0),
    lambda: ChiConfig(starts=2.5),
    lambda: ChiConfig(max_iter=2.5),
    lambda: ChiConfig(seed=-1),
    lambda: ChiConfig(seed=2.5),
    lambda: ChiConfig(seed=(1, -2)),
    lambda: ChiConfig(seed="7"),
], ids=["gad-p-nan", "gad-gt-nan", "chi-no-sizes", "chi-size-5",
        "chi-negative-starts", "chi-size-1-no-start",
        "chi-max-iter-0", "chi-xatol-nan", "chi-xatol-negative", "chi-fatol-nan",
        "chi-fatol-negative", "chi-size-1", "chi-no-starts", "chi-fractional-starts",
        "chi-fractional-max-iter", "chi-negative-seed", "chi-fractional-seed",
        "chi-negative-seed-entry", "chi-string-seed"])
def test_bad_settings_raise_value_error(make):
    with pytest.raises(ValueError):
        make()


@pytest.mark.parametrize("name", ["starts", "max_iter", "seed"])
def test_chi_config_names_a_non_integer_field(name):
    with pytest.raises(ValueError, match=f"chi {name} = 2.5 must be an integer"):
        ChiConfig(**{name: 2.5})
    assert ChiConfig(**{name: np.int64(3)}) == ChiConfig(**{name: 3})


def _ptm_parts(channel):
    ptm = _as_ptm(channel)
    return np.ascontiguousarray(ptm[1:, 1:]), ptm[1:, 0]


def _chi_per_size(channel, cfg):
    # the reference search: one bfgs_batch call per ensemble size on that
    # size's starts, the same draws, the best value kept strictly
    M, t = _ptm_parts(channel)
    rng = np.random.default_rng(cfg.seed)
    best, iterations = None, 0
    for m in cfg.sizes:
        res = bfgs_batch(_chi_objective(M, t), _random_starts(rng, m, cfg.starts),
                         xatol=cfg.xatol, fatol=cfg.fatol, max_iter=cfg.max_iter)
        iterations += res.iterations
        k = int(np.argmin(res.fun))
        if best is None or -res.fun[k] > best[0]:
            best = (float(-res.fun[k]), m, bool(res.converged[k]))
    return (*best, iterations)


@pytest.mark.parametrize("channel", [
    gad_params(0.475, 1.0),
    mix_params(0.3),
    PauliChannelParams(0.6, -0.4, 0.3, 0.0),
    PauliChannelParams(0.5, 0.4, 0.3, 0.3),
], ids=["gad", "mix", "unital", "custom"])
@pytest.mark.parametrize("sizes", [(2, 3, 4), (2,), (4, 2), (3, 4)])
def test_lockstep_chi_matches_one_batch_per_size(channel, sizes):
    cfg = ChiConfig(sizes=sizes, seed=(7, len(sizes)))
    value, m, converged, iterations = _chi_per_size(channel, cfg)
    got = chi_capacity_numeric(channel, cfg)
    assert got.value == value
    assert got.iterations == iterations
    assert got.ensemble.size == m
    assert got.converged == converged


# a random Kraus channel (random_cptp_channel at seed 61), written out so
# that its bits do not depend on the eigensolver
KRAUS_PTM = np.array([float.fromhex(v) for v in (
    "0x1.0000000000000p+0", "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
    "-0x1.07aba99f948eep-2", "0x1.f5e340a2ed867p-4", "0x1.22778f4afee28p-1", "0x1.864184c65f2d0p-5",
    "0x1.800e51a7be588p-2", "0x1.2fc4a56cf5aa7p-2", "0x1.39912dae5e6b3p-2", "-0x1.bf7bedb33932ep-3",
    "-0x1.d25700a417a88p-6", "-0x1.721951a4aa71ep-4", "0x1.03a54c1398fb4p-1", "-0x1.57706bf249b89p-2",
)]).reshape(4, 4)


@pytest.mark.parametrize("make, config, expected", [
    *[(lambda k=k: _unital_channels(8101, 5)[k], UNITAL_CFG, pin) for k, pin in enumerate([
        ("0x1.376d3aee43304p-2", 15, True, 2),
        ("0x1.f67934a7f90d2p-2", 16, True, 2),
        ("0x1.27a003f196e94p-3", 14, True, 2),
        ("0x1.dac70459c75eap-2", 12, True, 2),
        ("0x1.9ab65a65ba100p-2", 9, True, 2),
    ])],
    (lambda: gad_params(0.475, 1.0), ChiConfig(), ("0x1.99afd6f57e7e0p-4", 124, True, 3)),
    (lambda: mix_params(0.3), ChiConfig(), ("0x1.6d0ea5b22ee70p-2", 222, True, 2)),
    (lambda: KRAUS_PTM, ChiConfig(), ("0x1.9f8aa5d40c344p-1", 270, True, 2)),
], ids=[f"unital-{k}" for k in range(5)] + ["gad", "mix", "kraus"])
def test_chi_search_is_pinned(make, config, expected):
    # the search's bits: value, iterations, converged and ensemble size
    result = chi_capacity_numeric(make(), config)
    assert (result.value.hex(), result.iterations, result.converged,
            result.ensemble.size) == expected


@pytest.mark.parametrize("channel, message", [
    ((math.nan, 0.4, 0.3, 0.0), "lambda1 = nan is not finite"),
    ((0.5, math.inf, 0.3, 0.0), "lambda2 = inf is not finite"),
    ((0.5, 0.4, -math.inf, 0.0), "lambda3 = -inf is not finite"),
    ((0.5, 0.4, 0.3, math.inf), "t3 = inf is not finite"),
    (np.where(np.arange(16).reshape(4, 4) == 9, math.nan, np.eye(4)),
     "PTM entry (2, 1) = nan is not finite"),
    (np.where(np.arange(16).reshape(4, 4) >= 14, math.inf, np.eye(4)),
     "PTM entry (3, 2) = inf is not finite"),
], ids=["lambda1-nan", "lambda2-inf", "lambda3-neg-inf", "t3-inf", "ptm-nan", "ptm-inf"])
def test_chi_refuses_a_non_finite_channel(monkeypatch, channel, message):
    # refused before any start is drawn, by the exact solver and the
    # search; a family channel (given here as its fields, and built in
    # each call) also by the Holevo quantity and the oracle
    def no_starts(*args):
        raise AssertionError("a start was drawn")

    monkeypatch.setattr(capacity, "_random_starts", no_starts)
    family = isinstance(channel, tuple)

    def build():
        return PauliChannelParams(*channel) if family else channel

    calls = [lambda config=config: chi_capacity_numeric(build(), config)
             for config in (ChiConfig(sizes=(2,), starts=4), ChiConfig())]
    if family:
        antipodal = Ensemble(np.array([0.5, 0.5]), np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]]))
        calls += [lambda: chi_capacity_numeric(build(), None),
                  lambda: holevo_quantity(build(), antipodal),
                  lambda: chi_capacity_grid_oracle(build())]
    for call in calls:
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == message


def test_gradient_from_the_trial_pass_matches_a_fresh_evaluation():
    M, t = _ptm_parts(gad_params(0.3, 0.7))
    rng = np.random.default_rng(31)
    func = _chi_objective(M, t)
    for m in (2, 3, 4):
        x0 = _random_starts(rng, m, 4)
        grad = func(x0)[1](np.arange(len(x0)))
        trial = (x0[:, None, :] - _LADDER[:, None] * grad[:, None, :]).reshape(-1, x0.shape[1])
        values, gradient = func(trial)
        rows = np.array([3, 20, 41, 57, len(trial) - 1])
        fresh_values, fresh_gradient = func(trial[rows])
        assert np.array_equal(values[rows], fresh_values)
        assert np.array_equal(gradient(rows), fresh_gradient(np.arange(len(rows))))


def test_default_chi_solve_makes_one_forward_pass_per_iteration(monkeypatch):
    # a timing-free guard for the per-size solve: one batch per ensemble
    # size, one objective pass per iteration over that size's starts and
    # no separate gradient pass
    passes, batches = [], []
    forward, solve = capacity._chi_forward, capacity.bfgs_batch

    def counting_forward(M, t, params):
        passes.append(len(params))
        return forward(M, t, params)

    def recording_solve(*args, **kwargs):
        batches.append(solve(*args, **kwargs))
        return batches[-1]

    monkeypatch.setattr(capacity, "_chi_forward", counting_forward)
    monkeypatch.setattr(capacity, "bfgs_batch", recording_solve)
    cfg = ChiConfig()
    result = chi_capacity_numeric(gad_params(0.475, 1.0), cfg)
    assert len(batches) == len(cfg.sizes)
    assert len(passes) == sum(batch.iterations + 1 for batch in batches)
    assert passes[0] == cfg.starts
    assert result.iterations == sum(batch.iterations for batch in batches)
