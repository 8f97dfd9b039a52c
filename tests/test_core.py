import math
import warnings

import numpy as np
import pytest

from qcap import capacity, core, sinkhorn, verify
from qcap.capacity import (
    ChiConfig,
    Ensemble,
    chi_capacity_grid_oracle,
    chi_capacity_numeric,
    gad_params,
    holevo_quantity,
    mix_params,
)
from qcap.core import (
    PauliChannelParams,
    apply_channel,
    apply_channel_matrix,
    apply_scaling,
    binary_entropy,
    bloch_to_density,
    choi_from_channel,
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
    assert np.array_equal(ptm_from_params(PauliChannelParams(1, 1, 1, 0)), np.eye(4))
    tracing = ptm_from_params(PauliChannelParams(0, 0, 0, 0))
    assert np.array_equal(tracing, np.diag([1.0, 0, 0, 0]))

    rng = np.random.default_rng(3)
    for _ in range(20):
        params = PauliChannelParams(*rng.uniform(-1, 1, 4))
        ch = ptm_from_params(params)
        for x, y, z in ((1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 0, 0)):
            via_ptm = apply_channel(ch, [x, y, z])
            direct = [params.lambda1 * x, params.lambda2 * y,
                      params.lambda3 * z + params.t3]
            assert via_ptm == pytest.approx(direct, abs=1e-15)


def test_choi_identity_and_tracing():
    bell2 = np.zeros((4, 4), dtype=complex)  # 2 |Omega><Omega|
    for i in (0, 3):
        for j in (0, 3):
            bell2[i, j] = 1.0
    np.testing.assert_allclose(choi_from_channel(np.eye(4)), bell2,
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


def test_stacked_cp_check_matches_the_single_calls():
    rng = np.random.default_rng(43)
    ops, _ = verify._ptm_vs_kraus_draws(rng, count=1000)
    ptms = core.normalized_kraus_ptm(ops)
    # flipping the sign of the linear part leaves many channels non-CP
    flipped = ptms * np.array([1.0, -1.0, -1.0, -1.0])
    stack = np.concatenate([ptms, flipped]).reshape(4, 500, 4, 4)
    report = is_completely_positive(stack)
    assert report.is_cp.shape == report.min_eigenvalue.shape == (4, 500)
    assert 0 < report.is_cp.sum() < report.is_cp.size
    for k, ptm in enumerate(stack.reshape(-1, 4, 4)):
        single = is_completely_positive(ptm)
        assert type(single.is_cp) is bool and type(single.min_eigenvalue) is float
        assert report.is_cp.reshape(-1)[k] == single.is_cp
        assert report.min_eigenvalue.reshape(-1)[k].tobytes() == \
            np.float64(single.min_eigenvalue).tobytes()


def test_unital_and_trace_preserving_flags():
    assert is_unital(PauliChannelParams(0.3, -0.2, 0.5, 0.0))
    from qcap.capacity import gad_params
    assert not is_unital(gad_params(0.3, 1.0))
    assert is_trace_preserving(ptm_from_params(PauliChannelParams(0.3, 0.2, 0.1, 0.4)))


FAMILY_STACK = PauliChannelParams.stack([PauliChannelParams(0.5, 0.4, 0.3, 0.0),
                                         PauliChannelParams(0.2, 0.1, 0.0, 0.0)])
ONE_PTM_ONLY = r"expected a 4x4 PTM, got shape \(2, 4, 4\)"


def test_is_unital_refuses_a_family_stack():
    # both channels are unital, so a silent answer for the stack misleads
    with pytest.raises(ValueError, match=ONE_PTM_ONLY):
        is_unital(FAMILY_STACK)


def test_is_trace_preserving_refuses_a_family_stack():
    with pytest.raises(ValueError, match=ONE_PTM_ONLY):
        is_trace_preserving(FAMILY_STACK)


def test_apply_channel_refuses_a_family_stack():
    with pytest.raises(ValueError, match=ONE_PTM_ONLY):
        apply_channel(FAMILY_STACK, [0.1, 0.2, 0.3])


def test_image_radius_refuses_a_family_stack():
    with pytest.raises(ValueError, match=ONE_PTM_ONLY):
        image_radius(FAMILY_STACK)


def test_is_completely_positive_refuses_a_family_stack():
    with pytest.raises(ValueError, match=ONE_PTM_ONLY):
        is_completely_positive(FAMILY_STACK)
    # its PTM stack takes the stacked eigensolve
    assert is_completely_positive(ptm_from_params(FAMILY_STACK)).is_cp.tolist() == [True, True]


def test_holevo_quantity_refuses_a_family_stack():
    # a three-state ensemble on a stack of three once returned a number
    # that is none of the channels' values, and a two-state one failed
    # inside numpy
    stack = PauliChannelParams.stack([gad_params(0.475, g) for g in (0.5, 1.0, 2.0)])
    with pytest.raises(ValueError, match=r"expected a 4x4 PTM, got shape \(3, 4, 4\)"):
        holevo_quantity(stack, Ensemble(np.full(3, 1 / 3), np.eye(3)))
    with pytest.raises(ValueError, match=ONE_PTM_ONLY):
        holevo_quantity(FAMILY_STACK, Ensemble(np.full(2, 0.5), np.eye(3)[:2]))


def test_chi_capacity_grid_oracle_refuses_a_family_stack():
    # a stack of one once returned a value as if it were one channel, and
    # a stack of two failed inside numpy
    one = PauliChannelParams.stack([PauliChannelParams(*_INTERIOR_FIELDS)])
    with pytest.raises(ValueError, match=r"expected a 4x4 PTM, got shape \(1, 4, 4\)"):
        chi_capacity_grid_oracle(one)
    with pytest.raises(ValueError, match=ONE_PTM_ONLY):
        chi_capacity_grid_oracle(FAMILY_STACK)


def test_a_stack_of_built_channels_is_not_checked_again(monkeypatch):
    # every member passed the finiteness check when it was built, so the
    # stack runs no __post_init__; one built from raw arrays still does
    channels = [PauliChannelParams(0.5, 0.4, 0.3, 0.2), gad_params(0.475, 1.0),
                PauliChannelParams(0.2, -0.1, 0.0, 0.0)]
    checks = []
    monkeypatch.setattr(PauliChannelParams, "__post_init__",
                        lambda self: checks.append(self))
    stack = PauliChannelParams.stack(channels)
    assert checks == []
    for name in ("lambda1", "lambda2", "lambda3", "t3"):
        column = getattr(stack, name)
        assert column.dtype == float and column.shape == (3,)
        assert column.tolist() == [float(getattr(c, name)) for c in channels]
    assert list(vars(stack)) == ["lambda1", "lambda2", "lambda3", "t3"]
    PauliChannelParams(*vars(stack).values())
    assert len(checks) == 1
    monkeypatch.undo()
    fields = np.array([_INTERIOR_FIELDS] * 5).T
    fields[1, 3] = math.inf
    with pytest.raises(ValueError) as info:
        PauliChannelParams(*fields)
    assert str(info.value) == "lambda2 = inf is not finite at channel 3 of the stack"


def test_chi_capacity_numeric_refuses_a_family_stack():
    # the exact family solver and the search refuse it alike
    for config in (None, ChiConfig()):
        with pytest.raises(ValueError, match=ONE_PTM_ONLY):
            chi_capacity_numeric(FAMILY_STACK, config)


_INTERIOR_FIELDS = (0.5, 0.4, 0.3, 0.2)
_ANTIPODAL = Ensemble(np.array([0.5, 0.5]), np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]]))
_PAIR = sinkhorn.family_scaling_pair(PauliChannelParams(*_INTERIOR_FIELDS))
# every public function that takes a channel, by name, and whether it
# takes a (..., 4, 4) stack of PTMs; "construction" is the channel itself
_ENTRY_POINTS = {
    "construction": (lambda channel: channel, False),
    "is_interior": (is_interior, True),
    "is_completely_positive": (is_completely_positive, True),
    "image_radius": (image_radius, False),
    "apply_channel": (lambda channel: apply_channel(channel, [0.1, 0.2, 0.3]), False),
    "choi_from_channel": (choi_from_channel, True),
    "sinkhorn_iterate": (sinkhorn.sinkhorn_iterate, True),
    "unital_diagonalize": (sinkhorn.unital_diagonalize, True),
    "upsilon_ptm": (lambda channel: sinkhorn.upsilon_ptm(channel, _PAIR), True),
    "holevo_quantity": (lambda channel: holevo_quantity(channel, _ANTIPODAL), False),
    "chi_capacity_numeric": (chi_capacity_numeric, False),
}


@pytest.mark.parametrize("stacked", [False, True], ids=["one", "stack"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("field", ["lambda1", "lambda2", "lambda3", "t3", "ptm"])
def test_every_entry_point_refuses_a_non_finite_channel_alike(field, value, stacked):
    # one ValueError text from every function, raised where the channel
    # enters (when a family channel is built, or by the PTM intake) and
    # with no floating-point warning on the way.  A stack holds a
    # boundary member before the bad one, which must not be reported
    if field == "ptm":
        interior = ptm_from_params(PauliChannelParams(*_INTERIOR_FIELDS))
        ptm = interior.copy()
        ptm[2, 1] = value
        channel = np.stack([interior, np.eye(4), interior, ptm]) if stacked else ptm
        message = f"PTM entry (2, 1) = {value} is not finite"
    else:
        fields = dict(zip(("lambda1", "lambda2", "lambda3", "t3"), _INTERIOR_FIELDS))
        fields[field] = value
        if stacked:
            table = np.array([_INTERIOR_FIELDS, (1.0, 1.0, 1.0, 0.0), _INTERIOR_FIELDS,
                              tuple(fields.values()), _INTERIOR_FIELDS])
            fields = dict(zip(fields, table.T))
        channel = None
        message = f"{field} = {value} is not finite"
    if stacked:
        message += " at channel 3 of the stack"
    # a family channel is refused when built, so by every entry point; a
    # PTM stack only by those that take one
    names = [name for name, (_, takes_stack) in _ENTRY_POINTS.items()
             if channel is None or (name != "construction" and (takes_stack or not stacked))]
    for name in names:
        call = _ENTRY_POINTS[name][0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as info:
                call(PauliChannelParams(**fields) if channel is None else channel)
        assert (name, type(info.value), str(info.value)) == (name, ValueError, message)


def test_finiteness_is_decided_only_where_a_channel_enters():
    # PauliChannelParams and core._as_ptm decide it; the layers below them
    # take a channel as it enters and do not test it again
    assert not hasattr(core, "_check_finite")
    for module in (capacity, sinkhorn):
        with open(module.__file__) as fh:
            assert "isfinite" not in fh.read(), module.__name__


def test_is_interior():
    assert not is_interior(PauliChannelParams(1, 1, 1, 0))      # identity: boundary
    assert not is_interior(np.eye(4))                           # image touches sphere
    # amplitude damping: |t3| + |lambda3| = gamma + (1 - gamma) = 1
    gamma = 0.3
    ad = PauliChannelParams(math.sqrt(1 - gamma), math.sqrt(1 - gamma),
                            1 - gamma, gamma)
    assert not is_interior(ad)
    assert not is_interior(ptm_from_params(ad))
    # 0.7 + 0.3 rounds to 1, although 1 - 0.7 - 0.3 does not round to 0
    assert not is_interior(PauliChannelParams(0, 0, 0.3, 0.7))
    from qcap.capacity import gad_params
    gad = gad_params(0.475, 1.0)
    assert is_interior(gad)
    assert is_interior(ptm_from_params(gad))


def test_is_interior_answers_per_member_of_a_ptm_stack():
    rng = np.random.default_rng(43)
    members = [core.random_cptp_channel(rng, kraus_rank=int(rng.integers(1, 5)))
               for _ in range(12)]
    members[4] = np.eye(4)
    members[7] = ptm_from_params(PauliChannelParams(0.3, 0.3, 0.7, 0.3))  # pole
    verdicts = is_interior(np.array(members).reshape(3, 4, 4, 4))
    assert verdicts.shape == (3, 4) and verdicts.dtype == bool
    assert verdicts.ravel().tolist() == [is_interior(m) for m in members]
    assert 0 < verdicts.sum() < 12 and not verdicts[1, 0] and not verdicts[1, 3]


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


def _affine_ptm(linear, translation):
    # PTM of the trace preserving map b -> linear b + translation
    ptm = np.eye(4)
    ptm[1:, 1:] = linear
    ptm[1:, 0] = translation
    return ptm


def _rotated(params, rng):
    # the same image geometry in a random orthonormal frame, so that the
    # eigenbasis of M'M is no longer the coordinate axes
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    ptm = ptm_from_params(params)
    return _affine_ptm(q @ ptm[1:, 1:] @ q.T, q @ ptm[1:, 0])


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
        grid_max = np.linalg.norm(pts @ ch[1:, 1:].T + ch[1:, 0], axis=1).max()
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


def test_binary_entropy_array_edges():
    band = 1e-12
    # within the band both ends clamp; one step beyond it, or NaN, raises
    assert np.array_equal(binary_entropy(np.array([-band, 0.5, 1.0 + band])), [0.0, 1.0, 0.0])
    for bad in (np.nextafter(-band, -1.0), np.nextafter(1.0 + band, 2.0), math.nan):
        for arr in (np.array([0.25, bad]), np.array([[bad, 0.5], [0.5, 0.5]]), np.array(bad)):
            with pytest.raises(ValueError, match="outside"):
                binary_entropy(arr)
    for empty in (np.array([]), np.zeros((0, 3)), []):
        out = binary_entropy(empty)
        assert out.dtype == float and out.shape == np.shape(empty)
    grid = np.linspace(0.0, 1.0, 12).reshape(3, 4)
    assert binary_entropy(grid).tobytes() == entropy_kernel(grid).tobytes()
    assert type(binary_entropy(np.array(0.25))) is float


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


def _top_singular_value_50_digits(mpmath, K):
    # the larger Gram eigenvalue's root, in 50-digit arithmetic on the
    # exact values of K's entries
    with mpmath.workdps(50):
        M = mpmath.matrix([[mpmath.mpc(complex(x)) for x in row] for row in K])
        G = M.H * M
        half_gap = (G[0, 0].real - G[1, 1].real) / 2
        top = (G[0, 0].real + G[1, 1].real) / 2 + mpmath.sqrt(half_gap**2 + abs(G[0, 1])**2)
        return mpmath.sqrt(top)


@pytest.mark.parametrize("gap", [1e-3, 1e-7, 1e-11, 0.0])
def test_operator_norm_is_exact_at_any_singular_value_gap(gap):
    # no cancellation as the two singular values meet: a few eps of
    # relative error, and a stack gives the single calls' bits
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(31)
    ops = []
    for k in range(120):  # real and complex in turn
        g = rng.normal(size=(2, 2, 2))
        u, _ = np.linalg.qr(g[0] + 1j * g[1] * (k % 2))
        v, _ = np.linalg.qr(rng.normal(size=(2, 2)))
        s = rng.uniform(0.5, 2.0)
        ops.append(u @ np.diag([s, s * (1.0 - gap)]) @ v.T)
    eps = np.finfo(float).eps
    stacked = operator_norm(np.array(ops))
    for K, norm in zip(ops, stacked.tolist()):
        single = operator_norm(K)
        assert single == norm
        exact = _top_singular_value_50_digits(mpmath, K)
        with mpmath.workdps(50):
            assert abs(mpmath.mpf(single) / exact - 1) <= 2 * eps


def test_operator_norm_of_a_positive_diagonal_is_its_largest_entry():
    rng = np.random.default_rng(32)
    d = 10.0 ** rng.uniform(-3, 3, size=(500, 2))
    d[:50, 1] = d[:50, 0]  # equal entries: h = g01 = 0
    ops = np.zeros((500, 2, 2))
    ops[:, 0, 0], ops[:, 1, 1] = d[:, 0], d[:, 1]
    expected = d.max(axis=1)
    assert np.array_equal(operator_norm(ops), expected)
    assert np.array_equal(operator_norm(ops.reshape(25, 20, 2, 2)), expected.reshape(25, 20))
    for K, top in zip(ops, expected.tolist()):
        assert operator_norm(K) == top


@pytest.mark.parametrize("shape", [(3, 3), (2,), (4,), (2, 3), (5, 2, 3), ()],
                         ids=["3x3", "2", "4", "2x3", "5x2x3", "0-d"])
def test_operator_norm_rejects_other_shapes(shape):
    with pytest.raises(ValueError, match="2x2"):
        operator_norm(np.ones(shape))


def test_norm_inverse_product_at_least_one():
    rng = np.random.default_rng(17)
    for _ in range(300):
        K = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        if abs(np.linalg.det(K)) < 1e-6:
            continue
        assert operator_norm(K) * operator_norm(core.inverse_2x2(K)) >= 1.0 - 1e-12


def test_apply_scaling_and_apply_channel_rows():
    K = np.array([[1.0, 0.5], [0.0, 2.0]], dtype=complex)
    X = np.array([[1.0, 1j], [-1j, 2.0]], dtype=complex)
    np.testing.assert_allclose(apply_scaling(K, X), K @ X @ K.conj().T)

    inner = PauliChannelParams(0.5, 0.4, 0.3, 0.2)
    b = np.array([0.2, -0.3, 0.6])
    # a (..., 3) stack of vectors maps row by row
    stack = np.stack([b, -b, np.zeros(3)]).reshape(3, 1, 3)
    mapped = apply_channel(inner, stack)
    assert mapped.shape == (3, 1, 3)
    for k in range(3):
        np.testing.assert_allclose(mapped[k, 0], apply_channel(inner, stack[k, 0]),
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


def _matmul_kraus_ptm(K):
    # kraus_ptm before its closed form, verbatim: two broadcast matmuls
    K = np.asarray(K, dtype=complex)
    conj = core.PAULI @ core._dagger(K)[..., None, :, :]
    out = K[..., None, :, :] @ conj  # K sigma_b K'
    ptm = 0.5 * np.einsum("aij,...bji->...ab", core.PAULI, out)
    return np.ascontiguousarray(ptm.real)


def _channels(stack):
    values = (stack.lambda1, stack.lambda2, stack.lambda3, stack.t3)
    return [PauliChannelParams(*row) for row in np.array(values).T.tolist()]


def _family_operators(params):
    pair = sinkhorn.family_scaling_pair(params)
    return [pair.a, pair.b, core.inverse_2x2(pair.a), core.inverse_2x2(pair.b)]


def test_kraus_ptm_keeps_the_matmul_values_on_real_diagonal_operators():
    # every cross term of a real diagonal K is an exact zero, so only the
    # sign of a zero entry may differ from the matmul form
    channels = ([gad_params(0.475, g) for g in np.linspace(0.05, 3.0, 60).tolist()]
                + [mix_params(p) for p in np.linspace(0.02, 0.98, 49).tolist()]
                + _channels(verify._random_family_interiors(np.random.default_rng(40), 1000)))
    ops = np.array([K for params in channels for K in _family_operators(params)])
    assert np.array_equal(kraus_ptm(ops), _matmul_kraus_ptm(ops))
    for K in ops[::97]:
        assert np.array_equal(kraus_ptm(K), _matmul_kraus_ptm(K))


def test_kraus_ptm_matches_the_matmul_form_on_random_operators():
    ops = core.random_ginibre(np.random.default_rng(41), 10_000)
    scale = 8.0 * np.finfo(float).eps * operator_norm(ops) ** 2
    ptms = kraus_ptm(ops)
    assert ptms.shape == (10_000, 4, 4) and ptms.flags.c_contiguous
    assert np.all(np.abs(ptms - _matmul_kraus_ptm(ops)) <= scale[:, None, None])


def test_mul_2x2_matches_matmul():
    rng = np.random.default_rng(42)
    X = core.random_ginibre(rng, 600).reshape(3, 200, 2, 2)
    Y = core.random_ginibre(rng, 200)
    products = core._mul_2x2(X, Y)
    assert products.shape == (3, 200, 2, 2) and products.dtype == complex
    scale = 4.0 * np.finfo(float).eps * operator_norm(X) * operator_norm(Y)
    assert np.all(np.abs(products - X @ Y) <= scale[..., None, None])
    for k in range(200):
        assert products[1, k].tobytes() == core._mul_2x2(X[1, k], Y[k]).tobytes()
    real = rng.normal(size=(2, 2))
    np.testing.assert_array_equal(core._mul_2x2(real, np.eye(2)), real)


def _two_call_ptm_vs_kraus_draws(rng, count):
    # the ranks, then one random_ginibre call for four operators per set
    # and one random_blochs call
    ranks = rng.integers(1, 5, count).tolist()
    ops = core.random_ginibre(rng, 4 * count).reshape(count, 4, 2, 2)
    for k, rank in enumerate(ranks):
        ops[k, rank:] = 0.0
    return ops, core.random_blochs(rng, count)


@pytest.mark.parametrize("seed", range(20))
def test_ptm_vs_kraus_draws_match_the_two_call_draws(seed):
    fast, slow = np.random.default_rng(seed), np.random.default_rng(seed)
    ops, blochs = verify._ptm_vs_kraus_draws(fast, count=100)
    ref_ops, ref_blochs = _two_call_ptm_vs_kraus_draws(slow, 100)
    assert fast.bit_generator.state == slow.bit_generator.state
    assert ops.tobytes() == ref_ops.tobytes()
    assert blochs.tobytes() == ref_blochs.tobytes()


def test_singular_kraus_set_is_refused():
    # S = sum K'K singular: no normalization exists, so no PTM (once a
    # PTM with NaN rows 1-3 that passed is_trace_preserving) and no warning
    stack = core.random_ginibre(np.random.default_rng(26), 6).reshape(3, 2, 1, 2, 2)
    stack[1, 1, 0] = [[1, 0], [0, 0]]
    cases = [([[[1, 0], [0, 0]]], "S = sum K'K is singular;"),
             (np.zeros((2, 2, 2)), "S = sum K'K is singular;"),
             (stack, r"S = sum K'K is singular for set \(1, 1\);")]
    for ops, message in cases:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=message):
                core.normalized_kraus_ptm(ops)
    assert core.normalized_kraus_ptm(stack[0]).shape == (2, 4, 4)


def test_ill_conditioned_kraus_set_gives_a_cp_ptm():
    # the rank-1 set, singular values 2.33 and 9.7e-4, that verify --seed
    # 100602 draws: S^(-1/2) alone left sum K'K off the identity by about
    # 1e-9, setting the first row then gave a Choi eigenvalue of -3.6e-10,
    # and the PTM and Kraus paths differed by 1.21e-10 (tol 1e-10)
    K = np.array([[-0.6507272912734995 - 0.09085154497187768j,
                   -0.41796864777864107 - 0.26387132433418986j],
                  [-1.052881771526504 + 1.3820426670337087j,
                   -1.1500651224008862 + 0.6247452608013669j]])
    ptm = core.normalized_kraus_ptm(K[None])
    choi = choi_from_channel(ptm)
    assert np.linalg.eigvalsh(choi)[0] >= -1e-14
    rhos = bloch_to_density(core.random_blochs(np.random.default_rng(7), 50))
    via_kraus = sum(apply_scaling(k, rhos) for k in kraus_from_choi(choi))
    assert np.abs(apply_channel_matrix(ptm, rhos) - via_kraus).max() <= 1e-14


def test_stacked_core_functions_match_the_single_calls():
    rng = np.random.default_rng(25)
    ops, blochs = verify._ptm_vs_kraus_draws(rng, count=200)
    ptms = core.normalized_kraus_ptm(ops)
    rhos = bloch_to_density(blochs)
    chois = choi_from_channel(ptms)
    stacked_kraus = kraus_from_choi(chois)
    via_ptm = apply_channel_matrix(ptms, rhos)
    scaled = apply_scaling(ops, rhos[:, None])
    products = core._mul_2x2(ops, rhos[:, None])
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
            assert products[k, r].tobytes() == core._mul_2x2(ops[k, r], rhos[k]).tobytes()
            assert raw_ptms[k, r].tobytes() == kraus_ptm(ops[k, r]).tobytes()
    with pytest.raises(ValueError, match="4x4 PTM"):
        core.is_unital(ptms)


# the einsum definitions that the closed forms of choi_from_channel and
# apply_channel_matrix replaced, verbatim; _CHOI_BASIS[a, b] is
# sigma_a (x) sigma_b^T / 2, so the Choi matrix of a PTM T is
# sum_ab T_ab _CHOI_BASIS[a, b]
_CHOI_BASIS = 0.5 * np.einsum("aij,blk->abikjl", core.PAULI, core.PAULI).reshape(4, 4, 4, 4)


def _einsum_choi(channel):
    C = np.einsum("...ab,abij->...ij", core._as_ptm(channel, stacked=True), _CHOI_BASIS)
    return 0.5 * (C + core._dagger(C))


def _einsum_channel_matrix(channel, X):
    ptm = core._as_ptm(channel, stacked=True)
    X = np.asarray(X, dtype=complex)
    coeff = np.einsum("aij,...ji->...a", core.PAULI, X)
    out = (ptm @ coeff[..., None])[..., 0]
    return 0.5 * np.einsum("...a,aij->...ij", out, core.PAULI)


def _closed_form_cases():
    """PTM stacks with rounding in every entry, exact zeros of both signs
    and integers, each with (1000, 2, 2) matrices to act on."""
    rng = np.random.default_rng(31)
    ops, blochs = verify._ptm_vs_kraus_draws(rng, count=1000)
    ptms = core.normalized_kraus_ptm(ops)
    rhos = bloch_to_density(blochs)
    ginibre = core.random_ginibre(rng, 1000)
    family = core._family_ptms(*rng.uniform(-1.0, 1.0, (3, 1000)), 0.0)
    return [(ptms, rhos), (ptms * np.array([1.0, -1.0, -1.0, -1.0]), ginibre),
            (rng.normal(size=(1000, 4, 4)), rhos), (np.round(rng.normal(size=(1000, 4, 4))), ginibre),
            (family, rhos), (-np.zeros((1000, 4, 4)), ginibre)]


@pytest.mark.parametrize("case", range(6))
def test_closed_form_choi_and_action_have_the_einsum_bits(case):
    ptms, X = _closed_form_cases()[case]
    assert choi_from_channel(ptms).tobytes() == _einsum_choi(ptms).tobytes()
    assert apply_channel_matrix(ptms, X).tobytes() == _einsum_channel_matrix(ptms, X).tobytes()
    # as verify_decomposition calls it: a stack on one identity
    assert (apply_channel_matrix(ptms, np.eye(2)).tobytes()
            == _einsum_channel_matrix(ptms, np.eye(2)).tobytes())
    # as outcome_probabilities calls it: (..., 1, 1, 4, 4) PTMs on
    # (..., s, n, 2, 2) codeword factors
    factors = X[:480].reshape(40, 4, 3, 2, 2)
    broadcast = ptms[:40, None, None]
    assert (apply_channel_matrix(broadcast, factors).tobytes()
            == _einsum_channel_matrix(broadcast, factors).tobytes())
    for k in range(0, 1000, 37):
        assert choi_from_channel(ptms[k]).tobytes() == _einsum_choi(ptms[k]).tobytes()
        assert (apply_channel_matrix(ptms[k], X[k]).tobytes()
                == _einsum_channel_matrix(ptms[k], X[k]).tobytes())


def test_closed_form_choi_and_action_take_no_einsum(monkeypatch):
    # a timing-free guard: the two kernels stay closed forms
    def refuse(*args, **kwargs):
        raise AssertionError("np.einsum called")

    ptms, rhos = _closed_form_cases()[0]
    monkeypatch.setattr(np, "einsum", refuse)
    choi_from_channel(ptms)
    choi_from_channel(ptms[0])
    apply_channel_matrix(ptms, rhos)
    apply_channel_matrix(ptms[0], np.eye(2))


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
def test_bloch_draws_are_one_normal_and_one_uniform_call(pure):
    # each row has the bits of the one-vector formula on the stack's draws
    fast, slow = np.random.default_rng(26), np.random.default_rng(26)
    blochs = core.random_blochs(fast, 400, pure=pure)
    directions = slow.normal(size=(400, 3))
    radii = [1.0] * 400 if pure else slow.uniform(size=400).tolist()
    ref = [v / np.linalg.norm(v) * (1.0 if pure else r ** (1.0 / 3.0))
           for v, r in zip(directions, radii)]
    assert blochs.tobytes() == np.array(ref).tobytes()
    assert fast.bit_generator.state == slow.bit_generator.state


@pytest.mark.parametrize("pure", [False, True])
def test_bloch_draws_match_the_sequential_draws(pure):
    # property tests draw one vector at a time; those draws keep their bits
    fast, slow = np.random.default_rng(27), np.random.default_rng(27)
    for _ in range(200):
        assert core.random_blochs(fast, 1, pure)[0].tobytes() == \
            _sequential_blochs(slow, 1, pure)[0].tobytes()
    assert fast.bit_generator.state == slow.bit_generator.state


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
    wide = core.random_densities(rng, 100, 4)
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
    wishart = core.random_densities(np.random.default_rng(30), 600).reshape(3, 200, 2, 2)
    single = np.random.default_rng(30)
    for k, K in enumerate(ginibre.reshape(-1, 2, 2)):
        assert norms.reshape(-1)[k].tobytes() == np.float64(operator_norm(K)).tobytes()
        assert inverses.reshape(-1, 2, 2)[k].tobytes() == core.inverse_2x2(K).tobytes()
        # _det_2x2 keeps the bits of numpy's scalar formula
        scalar = np.array([[K[1, 1], -K[0, 1]], [-K[1, 0], K[0, 0]]]) / \
            (K[0, 0] * K[1, 1] - K[0, 1] * K[1, 0])
        assert core.inverse_2x2(K).tobytes() == scalar.tobytes()
        assert wishart.reshape(-1, 2, 2)[k].tobytes() == \
            core.random_densities(single, 1)[0].tobytes()
    with pytest.raises(ValueError, match="singular"):
        core.inverse_2x2(np.stack([np.eye(2), np.zeros((2, 2))]))


def test_choi_trace_and_hermiticity_random():
    rng = np.random.default_rng(29)
    for _ in range(100):
        ch = core.random_cptp_channel(rng)
        choi = choi_from_channel(ch)
        assert abs(np.trace(choi).real - 2.0) <= 1e-12
        np.testing.assert_allclose(choi, choi.conj().T, atol=1e-14)
