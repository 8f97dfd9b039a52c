import math

import numpy as np
import pytest

from qcap import core, verify
from qcap.core import (
    PauliChannelParams,
    QubitChannel,
    apply_channel,
    apply_channel_matrix,
    apply_scaling,
    binary_entropy,
    bloch_to_density,
    choi_from_channel,
    compose,
    density_to_bloch,
    entropy_kernel,
    image_radius,
    is_completely_positive,
    is_interior,
    is_trace_preserving,
    is_unital,
    kraus_from_choi,
    kraus_ptm,
    operator_norm,
    ptm_from_params,
    von_neumann_entropy,
)

# h(1/4) = 2 - (3/4) log2(3)
H_QUARTER = 0.8112781244591328


def test_bloch_to_density_trivials():
    np.testing.assert_allclose(bloch_to_density((0, 0, 0)), np.eye(2) / 2, atol=0)
    np.testing.assert_allclose(bloch_to_density((0, 0, 1)), np.diag([1.0, 0.0]), atol=0)
    np.testing.assert_allclose(bloch_to_density((1, 0, 0)),
                               0.5 * np.ones((2, 2)), atol=0)


def test_bloch_density_roundtrip_random():
    rng = np.random.default_rng(0)
    for _ in range(1000):
        b = core.random_blochs(rng, 1)[0]
        back = density_to_bloch(bloch_to_density(b))
        assert back.shape == (3,)
        assert np.abs(back - b).max() <= 1e-14


def test_apply_channel_identity_and_constant():
    ident = PauliChannelParams(1, 1, 1, 0)
    out = apply_channel(ident, [0.3, 0.4, 0.5])
    assert out.tolist() == [0.3, 0.4, 0.5]

    collapse = PauliChannelParams(0, 0, 0, 0.2)
    out = apply_channel(collapse, [-0.7, 0.1, 0.9])
    assert out.tolist() == [0.0, 0.0, 0.2]


def test_apply_channel_gad_point():
    # p = 0.25, gt = 0.5: lambda = (e^-0.5, e^-0.5, e^-1), t3 = -0.5(1 - e^-1)
    lam = math.exp(-0.5)
    t3 = (2 * 0.25 - 1) * (1 - math.exp(-1))
    ch = PauliChannelParams(lam, lam, math.exp(-1), t3)
    x, y, z = apply_channel(ch, [1, 0, 0])
    assert x == pytest.approx(math.exp(-0.5), abs=1e-15)
    assert y == 0.0
    assert z == pytest.approx(-0.5 * (1 - math.exp(-1)), abs=1e-15)


def test_ptm_from_params_trivials_and_roundtrip():
    assert np.array_equal(ptm_from_params(PauliChannelParams(1, 1, 1, 0)).ptm, np.eye(4))
    tracing = ptm_from_params(PauliChannelParams(0, 0, 0, 0))
    assert np.array_equal(tracing.ptm, np.diag([1.0, 0, 0, 0]))

    rng = np.random.default_rng(3)
    for _ in range(20):
        params = PauliChannelParams(*rng.uniform(-1, 1, 4))
        ch = ptm_from_params(params)
        for x, y, z in ((1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 0, 0)):
            via_ptm = apply_channel(ch, [x, y, z])
            direct = [params.lambda1 * x, params.lambda2 * y,
                      params.lambda3 * z + params.t3]
            assert via_ptm == pytest.approx(direct, abs=1e-15)


def test_ptm_first_row_canonical():
    raw = np.eye(4)
    raw[0, :] = [1.0 + 1e-13, 1e-13, 0, 0]
    ch = QubitChannel(raw)
    assert np.array_equal(ch.ptm[0], [1.0, 0.0, 0.0, 0.0])
    assert not ch.ptm.flags.writeable


def test_choi_identity_and_tracing():
    bell2 = np.zeros((4, 4), dtype=complex)  # 2 |Omega><Omega|
    for i in (0, 3):
        for j in (0, 3):
            bell2[i, j] = 1.0
    np.testing.assert_allclose(choi_from_channel(QubitChannel.identity()), bell2,
                               atol=1e-15)
    tracing = ptm_from_params(PauliChannelParams(0, 0, 0, 0))
    np.testing.assert_allclose(choi_from_channel(tracing), np.eye(4) / 2, atol=1e-15)


def test_choi_depolarizing_eigenvalues():
    # dense eigensolve against {(1+3q)/2, (1-q)/2 x3}
    for q in (0.1, 0.5, 0.9):
        choi = choi_from_channel(PauliChannelParams(q, q, q, 0))
        got = np.sort(np.linalg.eigvalsh(choi))
        expected = np.sort([(1 + 3 * q) / 2] + 3 * [(1 - q) / 2])
        np.testing.assert_allclose(got, expected, atol=1e-12)
        assert abs(np.trace(choi).real - 2.0) <= 1e-12


def test_choi_matches_its_definition_on_random_channels():
    units = np.eye(4, dtype=complex).reshape(4, 2, 2)  # E_00, E_01, E_10, E_11
    rng = np.random.default_rng(43)
    for _ in range(100):
        ch = core.random_cptp_channel(rng, kraus_rank=int(rng.integers(1, 5)))
        by_definition = sum(np.kron(apply_channel_matrix(ch, E), E) for E in units)
        np.testing.assert_allclose(choi_from_channel(ch), by_definition, rtol=0, atol=1e-15)


def test_cp_verdicts_on_the_unital_grid():
    # every point of the 50^3 grid through the production path, against
    # 1 +- l3 >= |l1 +- l2| with the same tolerance
    axis = np.linspace(-1.0, 1.0, 50)
    for l1 in axis:
        for l2 in axis:
            by_inequality = ((1.0 + axis - abs(l1 + l2) >= -1e-10)
                             & (1.0 - axis - abs(l1 - l2) >= -1e-10))
            verdicts = [is_completely_positive(PauliChannelParams(l1, l2, l3, 0.0)).is_cp
                        for l3 in axis]
            assert verdicts == by_inequality.tolist(), (l1, l2)


def test_cp_check_against_unital_inequality():
    # 1 +- l3 >= |l1 +- l2| evaluated directly as the oracle
    assert not is_completely_positive(PauliChannelParams(1, 1, -1, 0)).is_cp
    assert is_completely_positive(PauliChannelParams(0.5, 0.5, 0.5, 0)).is_cp

    rng = np.random.default_rng(7)
    for _ in range(300):
        l1, l2, l3 = rng.uniform(-1, 1, 3)
        by_inequality = (1 + l3 >= abs(l1 + l2) - 1e-12
                         and 1 - l3 >= abs(l1 - l2) - 1e-12)
        margin = min(1 + l3 - abs(l1 + l2), 1 - l3 - abs(l1 - l2))
        if abs(margin) < 1e-9:
            continue  # too close to the CP boundary to classify either way
        assert is_completely_positive(PauliChannelParams(l1, l2, l3, 0)).is_cp \
            == by_inequality


def test_cp_gad_grid():
    from qcap.capacity import gad_params
    for p in np.linspace(0.05, 0.5, 6):
        for gt in np.linspace(0.0, 4.0, 6):
            report = is_completely_positive(gad_params(p, gt))
            assert report.is_cp, (p, gt, report)


def test_family_cp_closed_form_matches_the_eigensolver():
    # the family's closed-form smallest Choi eigenvalue against the
    # eigensolver on its PTM, nonunital channels on both sides of CP
    rng = np.random.default_rng(29)
    verdicts = set()
    for _ in range(500):
        l1, l2, l3 = rng.uniform(-1, 1, 3)
        t3 = rng.uniform(0.01, 1) * rng.choice([-1, 1])
        params = PauliChannelParams(l1, l2, l3, t3)
        report = is_completely_positive(params)
        mineig = float(np.linalg.eigvalsh(choi_from_channel(ptm_from_params(params)))[0])
        assert abs(report.min_eigenvalue - mineig) <= 1e-15, params
        assert report.is_cp == (mineig >= -core.PSD_TOL), params
        verdicts.add(report.is_cp)
    assert verdicts == {True, False}


def test_unital_and_trace_preserving_flags():
    assert is_unital(PauliChannelParams(0.3, -0.2, 0.5, 0.0))
    from qcap.capacity import gad_params
    assert not is_unital(gad_params(0.3, 1.0))
    assert is_trace_preserving(ptm_from_params(PauliChannelParams(0.3, 0.2, 0.1, 0.4)))


def test_is_interior():
    assert not is_interior(PauliChannelParams(1, 1, 1, 0))      # identity: boundary
    assert not is_interior(QubitChannel.identity())             # image touches sphere
    # amplitude damping: |t3| + |lambda3| = gamma + (1 - gamma) = 1
    gamma = 0.3
    ad = PauliChannelParams(math.sqrt(1 - gamma), math.sqrt(1 - gamma),
                            1 - gamma, gamma)
    assert not is_interior(ad)
    assert not is_interior(ptm_from_params(ad))
    from qcap.capacity import gad_params
    gad = gad_params(0.475, 1.0)
    assert is_interior(gad)
    assert is_interior(ptm_from_params(gad))


def _family_radius_oracle(l1, l2, l3, t3):
    # max over the unit sphere of |(l1 x, l2 y, l3 z + t3)|: either at a
    # pole or at the interior stationary point of the z cross-section
    best_sq = (abs(t3) + abs(l3)) ** 2
    top_sq = max(l1 * l1, l2 * l2)
    if top_sq > l3 * l3:
        z_star = l3 * t3 / (top_sq - l3 * l3)
        if abs(z_star) <= 1.0:
            best_sq = max(best_sq, top_sq * (1.0 + t3 * t3 / (top_sq - l3 * l3)))
    return math.sqrt(best_sq)


def test_image_radius_matches_family_geometry():
    rng = np.random.default_rng(31)
    cases = [(0.5, 0.2, 0.3, 0.4), (0.9, 0.2, 0.1, 0.05), (0.3, 0.7, 0.5, -0.2)]
    cases += [tuple(rng.uniform(-0.9, 0.9, 4)) for _ in range(10)]
    for l1, l2, l3, t3 in cases:
        ch = ptm_from_params(PauliChannelParams(l1, l2, l3, t3))
        expected = _family_radius_oracle(l1, l2, l3, t3)
        assert image_radius(ch) == pytest.approx(expected, abs=1e-9)


def _rotated(params, rng):
    # the same image geometry in a random orthonormal frame, so that the
    # eigenbasis of M'M is no longer the coordinate axes
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    ch = ptm_from_params(params)
    return QubitChannel.from_affine(q @ ch.linear_part @ q.T, q @ ch.translation)


def test_image_radius_is_exact_at_a_pole_of_the_boundary():
    # |t3| + |lambda3| = 1 is reached at the pole, where a (theta, phi)
    # search over the sphere stalls below 1
    for params in (PauliChannelParams(0.3, 0.3, 0.7, 0.3),
                   PauliChannelParams(0.0, 0.0, 0.5, 0.5)):
        ch = ptm_from_params(params)
        assert abs(image_radius(ch) - 1.0) <= 1e-15
        assert not is_interior(ch)
    assert is_interior(ptm_from_params(PauliChannelParams(0.3, 0.3, 0.7, 0.2999)))


def test_image_radius_hard_and_degenerate_cases():
    rng = np.random.default_rng(37)
    cases = [
        (1.0, 1.0, 1.0, 0.0),    # identity
        (0.0, 0.0, 0.0, 0.0),    # tracing channel
        (0.8, 0.8, 0.1, 0.0),    # unital, degenerate top eigenvalue
        (0.8, 0.5, 0.3, 0.05),   # t orthogonal to the top eigenvector
        (0.8, 0.8, 0.3, 0.05),   # the same with a degenerate top
        (0.8, 0.5, 0.3, 1e-9),
    ]
    for l1, l2, l3, t3 in cases:
        expected = _family_radius_oracle(l1, l2, l3, t3)
        params = PauliChannelParams(l1, l2, l3, t3)
        assert abs(image_radius(ptm_from_params(params)) - expected) <= 1e-12
        assert abs(image_radius(_rotated(params, rng)) - expected) <= 1e-12


def fibonacci_sphere(n: int) -> np.ndarray:
    """n near-uniform points on the unit sphere (deterministic)."""
    i = np.arange(n)
    z = 1.0 - (2.0 * i + 1.0) / n
    r = np.sqrt(np.clip(1.0 - z * z, 0.0, None))
    phi = math.pi * (3.0 - math.sqrt(5.0)) * i
    return np.column_stack([r * np.cos(phi), r * np.sin(phi), z])


def test_image_radius_bounds_a_fine_grid_on_random_channels():
    pts = fibonacci_sphere(200_000)
    rng = np.random.default_rng(41)
    for _ in range(200):
        ch = core.random_cptp_channel(rng, kraus_rank=int(rng.integers(1, 5)))
        grid_max = np.linalg.norm(pts @ ch.linear_part.T + ch.translation, axis=1).max()
        radius = image_radius(ch)
        assert grid_max - 1e-15 <= radius <= grid_max + 1e-4


def test_fibonacci_sphere_is_unit_and_spread():
    pts = fibonacci_sphere(10_000)
    assert pts.shape == (10_000, 3)
    np.testing.assert_allclose(np.linalg.norm(pts, axis=1), 1.0, atol=1e-12)
    assert np.abs(pts.mean(axis=0)).max() < 1e-3


def test_binary_entropy_values():
    assert binary_entropy(0.5) == 1.0
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert binary_entropy(0.25) == pytest.approx(H_QUARTER, abs=1e-15)
    for x in (0.1, 0.3, 0.42):
        assert binary_entropy(x) == pytest.approx(binary_entropy(1 - x), abs=1e-15)
    with pytest.raises(ValueError):
        binary_entropy(1.1)
    with pytest.raises(ValueError):
        binary_entropy(-0.1)


def test_binary_entropy_rejects_nan():
    with pytest.raises(ValueError):
        binary_entropy(math.nan)
    with pytest.raises(ValueError):
        binary_entropy(np.array([0.2, math.nan]))


def test_binary_entropy_float_path_matches_the_kernel_bit_for_bit():
    rng = np.random.default_rng(19)
    tiny = np.finfo(float).tiny
    band = 1e-12
    xs = [0.0, 1.0, 0.5, -0.0, 5e-324, tiny / 2, tiny, 1.0 - 2.0**-53,
          -band, np.nextafter(-band, 0.0), 1.0 + band, np.nextafter(1.0 + band, 1.0),
          *rng.uniform(0.0, 1.0, 2000), *10.0 ** rng.uniform(-300, 0, 500)]
    for x in map(float, xs):
        got = binary_entropy(x)
        assert type(got) is float
        assert got == float(entropy_kernel(np.array(min(max(x, 0.0), 1.0))))
        assert got == binary_entropy(np.array([x]))[0]
    for x in (np.nextafter(-band, -1.0), np.nextafter(1.0 + band, 2.0)):
        with pytest.raises(ValueError):
            binary_entropy(float(x))
        with pytest.raises(ValueError):
            binary_entropy(np.array([x]))


def test_von_neumann_entropy():
    assert von_neumann_entropy(np.eye(2) / 2) == pytest.approx(1.0, abs=1e-14)
    assert von_neumann_entropy(np.diag([1.0, 0.0])) == pytest.approx(0.0, abs=1e-14)
    rho = bloch_to_density((0.5, 0, 0))
    assert von_neumann_entropy(rho) == pytest.approx(H_QUARTER, abs=1e-12)

    rng = np.random.default_rng(11)
    for _ in range(200):
        b = core.random_blochs(rng, 1)[0]
        s = von_neumann_entropy(bloch_to_density(b))
        assert isinstance(s, float)
        assert s == pytest.approx(binary_entropy((1 - np.linalg.norm(b)) / 2), abs=1e-12)


def test_operator_norm():
    assert operator_norm(np.eye(2)) == pytest.approx(1.0, abs=1e-15)
    assert operator_norm(np.diag([0.3, 1.7])) == pytest.approx(1.7, abs=1e-15)
    rng = np.random.default_rng(13)
    for _ in range(200):
        K = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        via_svd = np.linalg.svd(K, compute_uv=False)[0]
        assert operator_norm(K) == pytest.approx(via_svd, rel=1e-12)


def test_norm_inverse_product_at_least_one():
    rng = np.random.default_rng(17)
    for _ in range(300):
        K = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        if abs(np.linalg.det(K)) < 1e-6:
            continue
        assert operator_norm(K) * operator_norm(core.inverse_2x2(K)) >= 1.0 - 1e-12


def test_apply_scaling_and_compose():
    K = np.array([[1.0, 0.5], [0.0, 2.0]], dtype=complex)
    X = np.array([[1.0, 1j], [-1j, 2.0]], dtype=complex)
    np.testing.assert_allclose(apply_scaling(K, X), K @ X @ K.conj().T)

    inner = PauliChannelParams(0.5, 0.4, 0.3, 0.2)
    outer = PauliChannelParams(0.9, 0.8, 0.7, -0.1)
    chained = compose(outer, inner)
    b = np.array([0.2, -0.3, 0.6])
    two_step = apply_channel(outer, apply_channel(inner, b))
    np.testing.assert_allclose(apply_channel(chained, b), two_step, atol=1e-14)
    # a (..., 3) stack of vectors maps row by row
    stack = np.stack([b, -b, np.zeros(3)]).reshape(3, 1, 3)
    mapped = apply_channel(chained, stack)
    assert mapped.shape == (3, 1, 3)
    for k in range(3):
        np.testing.assert_allclose(mapped[k, 0], apply_channel(chained, stack[k, 0]),
                                   atol=1e-15)


def test_kraus_ptm_matches_matrix_action():
    rng = np.random.default_rng(19)
    for _ in range(50):
        K = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        ptm = kraus_ptm(K)
        X = core.random_densities(rng, 1)[0]
        np.testing.assert_allclose(apply_channel_matrix(ptm, X),
                                   apply_scaling(K, X), atol=1e-12)


def test_ptm_path_matches_kraus_path():
    rng = np.random.default_rng(23)
    for _ in range(300):
        ch = core.random_cptp_channel(rng, kraus_rank=int(rng.integers(1, 5)))
        rho = bloch_to_density(core.random_blochs(rng, 1)[0])
        via_ptm = apply_channel_matrix(ch, rho)
        ops = kraus_from_choi(choi_from_channel(ch))
        via_kraus = sum(apply_scaling(K, rho) for K in ops)
        np.testing.assert_allclose(via_ptm, via_kraus, atol=1e-10)


def _sequential_ptm_vs_kraus_draws(rng, count):
    # the draw loop of the PTM-vs-Kraus check before it was stacked
    channels, rhos = [], []
    for _ in range(count):
        channels.append(core.random_cptp_channel(rng, kraus_rank=int(rng.integers(1, 5))))
        rhos.append(bloch_to_density(core.random_blochs(rng, 1)[0]))
    return channels, rhos


def test_ptm_vs_kraus_draws_match_the_sequential_draws():
    fast, slow = np.random.default_rng(24), np.random.default_rng(24)
    ops, blochs = verify._ptm_vs_kraus_draws(fast, count=300)
    channels, rhos = _sequential_ptm_vs_kraus_draws(slow, 300)
    assert fast.bit_generator.state["state"] == slow.bit_generator.state["state"]
    ptms = core.normalized_kraus_ptm(ops)
    assert ptms.tobytes() == np.array([ch.ptm for ch in channels]).tobytes()
    assert bloch_to_density(blochs).tobytes() == np.array(rhos).tobytes()


def test_stacked_core_functions_match_the_single_calls():
    rng = np.random.default_rng(25)
    ops, blochs = verify._ptm_vs_kraus_draws(rng, count=200)
    ptms = core.normalized_kraus_ptm(ops)
    rhos = bloch_to_density(blochs)
    chois = choi_from_channel(ptms)
    stacked_kraus = kraus_from_choi(chois)
    via_ptm = apply_channel_matrix(ptms, rhos)
    scaled = apply_scaling(ops, rhos[:, None])
    raw_ptms = kraus_ptm(ops)
    for k in range(len(ptms)):
        assert rhos[k].tobytes() == bloch_to_density(blochs[k]).tobytes()
        assert via_ptm[k].tobytes() == apply_channel_matrix(ptms[k], rhos[k]).tobytes()
        assert chois[k].tobytes() == choi_from_channel(ptms[k]).tobytes()
        single = kraus_from_choi(chois[k])
        assert stacked_kraus[k, :len(single)].tobytes() == np.array(single).tobytes()
        assert not stacked_kraus[k, len(single):].any()
        for r in range(4):
            assert scaled[k, r].tobytes() == apply_scaling(ops[k, r], rhos[k]).tobytes()
            assert raw_ptms[k, r].tobytes() == kraus_ptm(ops[k, r]).tobytes()
    with pytest.raises(ValueError, match="4x4 PTM"):
        core.is_unital(ptms)


def _sequential_blochs(rng, count, pure=False):
    # the Bloch draw, one vector at a time, before the draws were stacked
    out = []
    for _ in range(count):
        v = rng.normal(size=3)
        v /= np.linalg.norm(v)
        if not pure:
            v *= rng.uniform() ** (1.0 / 3.0)
        out.append(v)
    return np.array(out)


@pytest.mark.parametrize("pure", [False, True])
def test_bloch_draws_match_the_sequential_draws(pure):
    fast, slow = np.random.default_rng(26), np.random.default_rng(26)
    blochs = core.random_blochs(fast, 400, pure=pure)
    assert blochs.tobytes() == _sequential_blochs(slow, 400, pure=pure).tobytes()
    assert fast.bit_generator.state == slow.bit_generator.state
    assert core.random_blochs(fast, 1, pure)[0].tobytes() == \
        _sequential_blochs(slow, 1, pure)[0].tobytes()


def test_operator_draws_match_the_sequential_draws():
    # the norm-inverse check takes its operators from one random_ginibre call
    fast, slow = np.random.default_rng(27), np.random.default_rng(27)
    ops = core.random_ginibre(fast, 500)
    ref = np.array([slow.normal(size=(2, 2)) + 1j * slow.normal(size=(2, 2))
                    for _ in range(500)])
    assert ops.tobytes() == ref.tobytes()
    assert fast.bit_generator.state == slow.bit_generator.state


def test_stacked_state_and_operator_functions_match_the_single_calls():
    rng = np.random.default_rng(28)
    mixed = bloch_to_density(core.random_blochs(rng, 300))
    pure = bloch_to_density(core.random_blochs(rng, 100, pure=True))  # a zero eigenvalue
    wide = core.densities_from_ginibre(core.random_ginibre(rng, 100, 4))
    for rhos in (mixed, pure, wide):
        entropies = von_neumann_entropy(rhos)
        for k in range(len(rhos)):
            assert entropies[k].tobytes() == np.float64(von_neumann_entropy(rhos[k])).tobytes()
    back = density_to_bloch(mixed.reshape(3, 100, 2, 2))
    assert back.shape == (3, 100, 3)
    for k, rho in enumerate(mixed):
        assert back.reshape(-1, 3)[k].tobytes() == density_to_bloch(rho).tobytes()

    ginibre = core.random_ginibre(rng, 600).reshape(3, 200, 2, 2)
    norms, inverses = operator_norm(ginibre), core.inverse_2x2(ginibre)
    wishart = core.densities_from_ginibre(ginibre)
    for k, K in enumerate(ginibre.reshape(-1, 2, 2)):
        assert norms.reshape(-1)[k].tobytes() == np.float64(operator_norm(K)).tobytes()
        assert inverses.reshape(-1, 2, 2)[k].tobytes() == core.inverse_2x2(K).tobytes()
        assert wishart.reshape(-1, 2, 2)[k].tobytes() == \
            core.densities_from_ginibre(K[None])[0].tobytes()
    with pytest.raises(ValueError, match="singular"):
        core.inverse_2x2(np.stack([np.eye(2), np.zeros((2, 2))]))


def test_choi_trace_and_hermiticity_random():
    rng = np.random.default_rng(29)
    for _ in range(100):
        ch = core.random_cptp_channel(rng)
        choi = choi_from_channel(ch)
        assert abs(np.trace(choi).real - 2.0) <= 1e-12
        np.testing.assert_allclose(choi, choi.conj().T, atol=1e-14)
