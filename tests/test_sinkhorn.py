import dataclasses
import hashlib
import itertools
import math

import numpy as np
import pytest

from qcap.capacity import analyze, gad_f, gad_params, mix_params
from qcap.core import (
    NoConvergence,
    NotInterior,
    NotUnital,
    PauliChannelParams,
    apply_channel_matrix,
    inverse_2x2,
    is_completely_positive,
    is_interior,
    is_trace_preserving,
    is_unital,
    kraus_ptm,
    ptm_from_params,
    random_cptp_channel,
    random_unitary,
)
from qcap import sinkhorn
from qcap.sinkhorn import (
    ScalingPair,
    family_scaling_pair,
    sinkhorn_iterate,
    unital_diagonalize,
    upsilon_ptm,
    verify_decomposition,
)


def _random_interior_params(rng):
    while True:
        l1, l2, l3 = rng.uniform(-1, 1, 3)
        t3 = rng.uniform(-1, 1)
        if abs(t3) + abs(l3) >= 0.98:
            continue
        if 1 + l3 < np.hypot(t3, l1 + l2) + 1e-6:
            continue
        if 1 - l3 < np.hypot(t3, l1 - l2) + 1e-6:
            continue
        return PauliChannelParams(l1, l2, l3, t3)


def test_family_pair_already_unital():
    pair = family_scaling_pair(PauliChannelParams(0.5, 0.4, 0.0, 0.0))
    np.testing.assert_allclose(pair.a, np.eye(2), atol=1e-15)
    np.testing.assert_allclose(pair.b, np.eye(2), atol=1e-15)
    assert pair.norm_ab == pytest.approx(1.0, abs=1e-15)


def test_family_pair_rejects_boundary():
    with pytest.raises(NotInterior):
        family_scaling_pair(PauliChannelParams(1, 1, 1, 0))
    with pytest.raises(NotInterior):
        family_scaling_pair(PauliChannelParams(0.5, 0.5, 0.6, 0.4))


@pytest.mark.parametrize("padding", [0, 20], ids=["one-at-a-time", "one-pass"])
def test_a_boundary_channel_in_a_stack_is_named(padding):
    interior = PauliChannelParams(0.5, 0.4, 0.3, 0.2)
    channels = [interior] * 3 + [PauliChannelParams(0.5, 0.5, 0.6, 0.4),
                                 PauliChannelParams(1, 1, 1, 0)] + [interior] * padding
    stack = PauliChannelParams.stack(channels)
    for closed_form in (family_scaling_pair, analyze):
        with pytest.raises(NotInterior) as info:
            closed_form(stack)
        assert str(info.value) == ("|t3| + |lambda3| = 1 >= 1 at channel 3 of the stack; "
                                   "no scaling pair for boundary channels")
        with pytest.raises(NotInterior) as info:
            closed_form(channels[3])
        assert str(info.value) == ("|t3| + |lambda3| = 1 >= 1; "
                                   "no scaling pair for boundary channels")


@pytest.mark.parametrize("padding", [0, 20], ids=["one-at-a-time", "one-pass"])
def test_a_non_finite_channel_is_bad_input_not_boundary(padding):
    # NaN fails |t3| + |lambda3| < 1 without being a boundary value, and
    # passes it in lambda1 or lambda2: a plain ValueError that names the
    # field, raised when the channel is built, so before any boundary
    # member of a stack is looked at
    interior, boundary = (0.5, 0.4, 0.3, 0.2), (1, 1, 1, 0)
    cases = [((0.5, 0.4, 0.3, math.nan), "t3 = nan is not finite"),
             ((math.nan, 0.4, 0.3, 0.2), "lambda1 = nan is not finite")]
    for bad, message in (((0.5, 0.4, math.nan, 0.2), "lambda3 = nan"),
                         ((0.5, math.inf, 0.3, 0.2), "lambda2 = inf"),
                         ((math.nan, 0.4, 0.3, 0.2), "lambda1 = nan")):
        rows = [interior, boundary, interior, bad] + [interior] * padding
        cases.append((np.array(rows).T, f"{message} is not finite at channel 3 of the stack"))
        # with no boundary member the interior pass must refuse it too
        rows[1] = interior
        cases.append((np.array(rows).T, f"{message} is not finite at channel 3 of the stack"))
    for closed_form in (family_scaling_pair, analyze):
        for fields, message in cases:
            with pytest.raises(ValueError) as info:
                closed_form(PauliChannelParams(*fields))
            assert type(info.value) is ValueError
            assert str(info.value) == message


def test_closed_forms_refuse_exactly_what_is_interior_refuses():
    # every decimal boundary pair +-(k/10^d, 1 - k/10^d) for d <= 3 (none
    # of them interior) and the same pairs with t3 one and two ulps nearer
    # 0 (about 40% interior): the closed forms raise NotInterior exactly
    # where is_interior says False
    cases = []
    for scale in (10, 100, 1000):
        for k, sl, st in itertools.product(range(1, scale), (1, -1), (1, -1)):
            t3 = st * (scale - k) / scale
            for _ in range(3):
                cases.append(PauliChannelParams(0.0, 0.0, sl * k / scale, t3))
                t3 = math.nextafter(t3, 0.0)
    for params in cases:
        for closed_form in (analyze, family_scaling_pair):
            try:
                closed_form(params)
                refused = False
            except NotInterior:
                refused = True
            assert refused is not is_interior(params), (closed_form.__name__, params)
    # 0.3 + 0.7 rounds to 1: refused before the first Newton step
    with pytest.raises(NotInterior):
        sinkhorn_iterate(PauliChannelParams(0.2, 0.2, 0.3, 0.7))


def test_gad_norm_product_is_one_at_half():
    # paper closed form gives |A||B| = ((1-p)/p)^(1/4)/sqrt(f) = 1 at p = 1/2
    for gt in (0.1, 0.7, 2.5):
        pair = family_scaling_pair(gad_params(0.5, gt))
        assert pair.norm_ab == pytest.approx(1.0, abs=1e-12)


def test_gad_norm_products_match_closed_form():
    for p, gt in [(0.475, 1.0), (0.1, 0.3), (0.3, 2.0), (0.05, 0.05)]:
        pair = family_scaling_pair(gad_params(p, gt))
        f = gad_f(p, gt)
        quarter = ((1 - p) / p) ** 0.25
        assert pair.norm_ab == pytest.approx(quarter / math.sqrt(f), abs=1e-10)
        assert pair.norm_ab_inv == pytest.approx(quarter * math.sqrt(f), abs=1e-10)


def test_family_unital_params_reduce_at_t3_zero():
    form = analyze(PauliChannelParams(0.5, -0.4, 0.3, 0.0)).form
    assert form.lt1 == pytest.approx(0.5, abs=1e-15)
    assert form.lt2 == pytest.approx(-0.4, abs=1e-15)
    assert form.lt3 == pytest.approx(0.3, abs=1e-15)
    assert form.singular_values == pytest.approx((0.5, 0.4, 0.3), abs=1e-15)


def test_gad_unital_params_structure():
    # lt1 = lt2 = e^{-gt}/f and lt3 = lt1^2
    for p, gt in [(0.475, 1.0), (0.2, 0.5), (0.1, 2.0)]:
        form = analyze(gad_params(p, gt)).form
        f = gad_f(p, gt)
        assert form.lt1 == pytest.approx(math.exp(-gt) / f, abs=1e-12)
        assert form.lt2 == form.lt1
        assert form.lt3 == pytest.approx(form.lt1 ** 2, abs=1e-12)


def test_unital_form_satisfies_cp_inequality():
    rng = np.random.default_rng(5)
    for _ in range(200):
        form = analyze(_random_interior_params(rng)).form
        assert 1 + form.lt3 >= abs(form.lt1 + form.lt2) - 1e-9
        assert 1 - form.lt3 >= abs(form.lt1 - form.lt2) - 1e-9


def test_scaling_pair_invariants():
    rng = np.random.default_rng(37)
    for _ in range(100):
        params = _random_interior_params(rng)
        pair = family_scaling_pair(params)
        assert np.linalg.eigvalsh(pair.a)[0] > 0
        assert np.linalg.eigvalsh(pair.b)[0] > 0
        assert pair.norm_ab * pair.norm_ab_inv >= 1.0 - 1e-12
        ups = upsilon_ptm(params, pair)
        assert is_unital(ups, 1e-9)
        assert is_trace_preserving(ups, 1e-9)
        assert is_completely_positive(ups).is_cp


def test_closed_form_matches_iteration():
    params = PauliChannelParams(0.5, 0.4, 0.3, 0.3)
    closed = analyze(params).form
    pair = sinkhorn_iterate(ptm_from_params(params))
    iterated = unital_diagonalize(upsilon_ptm(params, pair), tol=1e-7)
    assert iterated.lt1 == pytest.approx(closed.lt1, abs=1e-8)
    assert iterated.lt2 == pytest.approx(closed.lt2, abs=1e-8)
    assert iterated.lt3 == pytest.approx(closed.lt3, abs=1e-8)
    assert np.asarray(iterated.singular_values) == pytest.approx(
        np.asarray(closed.singular_values), abs=1e-8)
    # gauge-invariant norm products agree between the two constructions
    direct = family_scaling_pair(params)
    assert pair.norm_ab == pytest.approx(direct.norm_ab, abs=1e-10)
    assert pair.norm_ab_inv == pytest.approx(direct.norm_ab_inv, abs=1e-10)


def test_iteration_on_unital_channel_gives_scalars():
    ch = ptm_from_params(PauliChannelParams(0.5, -0.3, 0.2, 0.0))
    pair = sinkhorn_iterate(ch)
    assert np.abs(pair.a - pair.a[0, 0] * np.eye(2)).max() < 1e-10
    assert np.abs(pair.b - pair.b[0, 0] * np.eye(2)).max() < 1e-10
    form = unital_diagonalize(upsilon_ptm(ch, pair))
    assert form.lt1 == pytest.approx(0.5, abs=1e-10)
    assert form.lt2 == pytest.approx(-0.3, abs=1e-10)
    assert form.lt3 == pytest.approx(0.2, abs=1e-10)


def test_iteration_on_random_interior_channels():
    rng = np.random.default_rng(41)
    found = 0
    while found < 30:
        ch = random_cptp_channel(rng, kraus_rank=int(rng.integers(2, 5)))
        if not is_interior(ch):
            continue
        found += 1
        pair = sinkhorn_iterate(ch, tol=1e-12)
        res = verify_decomposition(ch, pair)
        assert res.max_residual < 1e-10
        # scalar gauge change leaves the sandwiched map untouched
        scaled = ScalingPair.from_operators(pair.a / 1.7, 1.7 * pair.b)
        np.testing.assert_allclose(upsilon_ptm(ch, scaled), upsilon_ptm(ch, pair),
                                   atol=1e-12)
        assert scaled.norm_ab * scaled.norm_ab_inv == pytest.approx(
            pair.norm_ab * pair.norm_ab_inv, rel=1e-12)


def test_iteration_deterministic():
    params = PauliChannelParams(0.4, 0.3, 0.25, 0.35)
    first = sinkhorn_iterate(ptm_from_params(params))
    second = sinkhorn_iterate(ptm_from_params(params))
    assert np.array_equal(first.a, second.a)
    assert np.array_equal(first.b, second.b)
    # gauge rule det A = det B
    assert np.linalg.det(first.a).real == pytest.approx(
        np.linalg.det(first.b).real, rel=1e-12)


def test_iteration_rejects_non_interior():
    with pytest.raises(NotInterior):
        sinkhorn_iterate(np.eye(4))
    with pytest.raises(NotInterior):
        sinkhorn_iterate(PauliChannelParams(0.5, 0.5, 0.6, 0.4))


def test_iteration_raises_no_convergence():
    params = PauliChannelParams(0.5, 0.4, 0.3, 0.3)
    with pytest.raises(NoConvergence):
        sinkhorn_iterate(ptm_from_params(params), tol=1e-12, max_iter=2)


def test_from_operators_copies_the_callers_arrays():
    a = np.eye(2, dtype=complex)
    pair = ScalingPair.from_operators(a, a)
    a[0, 0] = 2.0
    assert pair.a[0, 0] == 1.0 and pair.b[0, 0] == 1.0
    for frozen in (pair.a, pair.b):
        with pytest.raises(ValueError):
            frozen[0, 0] = 3.0


def test_family_pair_matches_the_generic_pair_bit_for_bit():
    rng = np.random.default_rng(29)
    params = [gad_params(float(p), float(gt)) for p, gt in
              zip(10.0 ** rng.uniform(-10, math.log10(0.5), 300), rng.uniform(0, 5, 300))]
    params += [gad_params(0.5, 5.0), gad_params(1e-10, 1e-6)]
    params += [mix_params(float(p)) for p in rng.uniform(1e-6, 1 - 1e-6, 200)]
    params += [_random_interior_params(rng) for _ in range(200)]
    for prm in params:
        pair = family_scaling_pair(prm)
        generic = ScalingPair.from_operators(pair.a, pair.b)
        for field in dataclasses.fields(ScalingPair):
            got, expected = getattr(pair, field.name), getattr(generic, field.name)
            if isinstance(got, np.ndarray):
                assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes()
                assert not got.flags.writeable
            else:
                assert type(got) is type(expected) and got == expected, field.name


def test_iteration_near_boundary():
    params = PauliChannelParams(0.3, 0.3, 0.499, 0.5)  # |t3| + |l3| = 0.999
    pair = sinkhorn_iterate(ptm_from_params(params))
    assert verify_decomposition(params, pair).max_residual < 1e-10
    direct = family_scaling_pair(params)
    assert pair.norm_ab == pytest.approx(direct.norm_ab, rel=1e-9)


def test_verify_decomposition_trivial_and_scaled():
    identity_pair = ScalingPair.from_operators(np.eye(2), np.eye(2))
    res = verify_decomposition(np.eye(4), identity_pair)
    assert res.max_residual == 0.0

    rng = np.random.default_rng(43)
    for _ in range(50):
        params = _random_interior_params(rng)
        res = verify_decomposition(params, family_scaling_pair(params))
        assert res.max_residual <= 1e-10


def test_verify_decomposition_detects_corruption():
    params = PauliChannelParams(0.5, 0.4, 0.3, 0.2)
    pair = family_scaling_pair(params)
    corrupted = ScalingPair.from_operators(pair.a + np.diag([1e-3, 0.0]), pair.b)
    res = verify_decomposition(params, corrupted)
    assert 1e-4 < res.max_residual < 1e-2


def test_stacked_pairs_match_the_single_calls():
    # family pairs, gauge-rescaled ones, and generic pairs with complex
    # off-diagonal entries, each stacked over random channels
    rng = np.random.default_rng(44)
    params = [_random_interior_params(rng) for _ in range(60)]
    ptms = np.array([ptm_from_params(p) for p in params])
    family = [family_scaling_pair(p) for p in params]
    c = rng.uniform(0.2, 5.0, size=(60, 1, 1))
    a = rng.normal(size=(60, 2, 2)) + 1j * rng.normal(size=(60, 2, 2)) + 2 * np.eye(2)
    b = rng.normal(size=(60, 2, 2)) + 1j * rng.normal(size=(60, 2, 2)) + 2 * np.eye(2)
    stacked = ScalingPair(*(np.stack([getattr(p, name) for p in family])
                            for name in ("a", "b", "norm_a", "norm_b", "norm_a_inv",
                                         "norm_b_inv")))
    cases = [
        (stacked, family),
        (ScalingPair.from_operators(stacked.a / c, c * stacked.b),
         [ScalingPair.from_operators(p.a / ck, ck * p.b) for p, ck in zip(family, c[:, 0, 0])]),
        (ScalingPair.from_operators(a, b),
         [ScalingPair.from_operators(ak, bk) for ak, bk in zip(a, b)]),
    ]
    names = ("a", "b", "norm_a", "norm_b", "norm_a_inv", "norm_b_inv")
    for pair, singles in cases:
        ups = upsilon_ptm(ptms, pair)
        res = verify_decomposition(ptms, pair)
        for k, (p, single) in enumerate(zip(params, singles)):
            for name in names:
                assert getattr(pair, name)[k].tobytes() == \
                    np.asarray(getattr(single, name)).tobytes()
            assert ups[k].tobytes() == upsilon_ptm(p, single).tobytes()
            one = verify_decomposition(p, single)
            assert [res.unitality[k], res.trace_preservation[k], res.reconstruction[k],
                    res.max_residual[k]] == [one.unitality, one.trace_preservation,
                                             one.reconstruction, one.max_residual]
            assert isinstance(one.max_residual, float)


def test_non_trace_preserving_ptm_is_refused():
    # trace preservation is checked on the raw first row, never imposed
    ptm = ptm_from_params(PauliChannelParams(0.5, -0.4, 0.3, 0.0))
    ptm[0, 0] += 1e-3
    assert not is_trace_preserving(ptm)
    with pytest.raises(NotUnital, match="not trace preserving"):
        unital_diagonalize(ptm)


def test_unital_diagonalize_diagonal_and_rotated():
    ch = ptm_from_params(PauliChannelParams(0.5, -0.4, 0.3, 0.0))
    form = unital_diagonalize(ch)
    assert form.singular_values == pytest.approx((0.5, 0.4, 0.3), abs=1e-15)
    assert (form.lt1, form.lt2, form.lt3) == (0.5, -0.4, 0.3)

    rng = np.random.default_rng(47)
    for _ in range(20):
        u = random_unitary(rng)
        w = random_unitary(rng)
        rotated = kraus_ptm(u) @ ch @ kraus_ptm(w)
        got = unital_diagonalize(rotated)
        assert np.asarray(got.singular_values) == pytest.approx(
            np.asarray(form.singular_values), abs=1e-12)

    tracing = ptm_from_params(PauliChannelParams(0, 0, 0, 0))
    assert unital_diagonalize(tracing).singular_values == (0.0, 0.0, 0.0)


def test_unital_diagonalize_rejects_nonunital():
    with pytest.raises(NotUnital):
        unital_diagonalize(ptm_from_params(gad_params(0.3, 1.0)))


def test_norm_products_diverge_towards_amplitude_damping():
    products = [family_scaling_pair(gad_params(p, 1.0)).norm_ab
                for p in (1e-2, 1e-4, 1e-6, 1e-8, 1e-10, 1e-12)]
    assert all(b > a for a, b in zip(products, products[1:]))
    assert products[-1] > 1e3


# ---------------------------------------------------------------------------
# the Newton pair against the alternating loop it replaced, kept here in
# matrix form as the reference


def _matrix_sqrt(M):
    w, V = np.linalg.eigh(M)
    return (V * np.sqrt(np.clip(w, 0.0, None))) @ V.conj().T


def _matrix_form_iterate(ptm, tol=1e-12, max_iter=10_000):
    """The pair and the residual after every sweep."""
    eye = np.eye(2, dtype=complex)
    P = eye.copy()
    residuals = []
    for sweep in range(1, max_iter + 1):
        Q = inverse_2x2(apply_channel_matrix(ptm, P))
        P = inverse_2x2(apply_channel_matrix(ptm.T, Q))
        root_q, root_p = _matrix_sqrt(Q), _matrix_sqrt(P)
        res_unital = np.abs(root_q @ apply_channel_matrix(ptm, P) @ root_q - eye).max()
        res_tp = np.abs(root_p @ apply_channel_matrix(ptm.T, Q) @ root_p - eye).max()
        residuals.append(max(res_unital, res_tp))
        if residuals[-1] < tol:
            gauge = (np.linalg.det(root_q).real / np.linalg.det(root_p).real) ** 0.25
            return ScalingPair.from_operators(root_q / gauge, gauge * root_p), residuals
    raise AssertionError("reference loop did not converge")


def _matrix_form_residual(ptm, pair):
    """The stopping residual of ``pair`` in matrix form: the largest entry
    of |A Phi[B^2] A - I| and |B Phi'[A^2] B - I|."""
    eye = np.eye(2)
    a, b = pair.a, pair.b
    unital = a @ apply_channel_matrix(ptm, b @ b) @ a - eye
    tp = b @ apply_channel_matrix(ptm.T, a @ a) @ b - eye
    return max(np.abs(unital).max(), np.abs(tp).max())


def _reference_params(rng=None):
    rng = np.random.default_rng(53) if rng is None else rng
    return [_random_interior_params(rng) for _ in range(100)]


def _reference_ptms():
    """100 family PTMs, 100 random Kraus interiors, and GAD(p, 1) at
    p = 0.3, 1e-3 and 1e-4."""
    rng = np.random.default_rng(53)
    ptms = [ptm_from_params(params) for params in _reference_params(rng)]
    while len(ptms) < 200:
        ch = random_cptp_channel(rng, kraus_rank=int(rng.integers(1, 5)))
        if is_interior(ch):
            ptms.append(ch)
    return ptms + [ptm_from_params(gad_params(p, 1.0)) for p in (0.3, 1e-3, 1e-4)]


def test_iteration_matches_the_matrix_form_loop():
    for ptm in _reference_ptms():
        pair = sinkhorn_iterate(ptm)
        assert _matrix_form_residual(ptm, pair) < 1e-12
        ref, _ = _matrix_form_iterate(ptm, tol=1e-14)
        for got, expected in ((pair.a, ref.a), (pair.b, ref.b)):
            np.testing.assert_allclose(got, expected, rtol=0,
                                       atol=1e-10 * np.abs(expected).max())


def test_iteration_residual_is_below_the_tolerance_in_matrix_form():
    ptms = _reference_ptms()
    for tol in (1e-8, 1e-10, 1e-12):
        for ptm, pair in zip(ptms, (sinkhorn_iterate(ptm, tol=tol) for ptm in ptms)):
            assert _matrix_form_residual(ptm, pair) < tol


def test_stacked_iteration_matches_the_single_calls():
    ptms = np.array(_reference_ptms()[:200])
    stacked = sinkhorn_iterate(ptms)
    assert type(stacked.iterations) is int
    singles = [sinkhorn_iterate(ptm) for ptm in ptms]
    assert stacked.iterations == max(p.iterations for p in singles)
    for name in ("a", "b", "norm_a", "norm_b", "norm_a_inv", "norm_b_inv"):
        assert getattr(stacked, name).tobytes() == \
            np.array([getattr(p, name) for p in singles]).tobytes(), name
    # a (2, 100, 4, 4) stack gives the same slices, and the family stack
    # of the first 100 the same pairs as their PTMs
    square = sinkhorn_iterate(ptms.reshape(2, 100, 4, 4))
    assert square.a.shape == (2, 100, 2, 2) and square.norm_ab.shape == (2, 100)
    assert square.a.tobytes() == stacked.a.tobytes()
    family = sinkhorn_iterate(PauliChannelParams.stack(_reference_params()))
    assert family.a.tobytes() == stacked.a[:100].tobytes()
    assert family.b.tobytes() == stacked.b[:100].tobytes()
    forms = unital_diagonalize(upsilon_ptm(ptms, stacked), tol=1e-7)
    for k, (ptm, pair) in enumerate(zip(ptms, singles)):
        one = unital_diagonalize(upsilon_ptm(ptm, pair), tol=1e-7)
        assert [forms.lt1[k], forms.lt2[k], forms.lt3[k], *(sv[k] for sv in forms.singular_values)] \
            == [one.lt1, one.lt2, one.lt3, *one.singular_values]
        assert isinstance(one.lt1, float)


def test_single_calls_are_pinned():
    # A, B, the four norms and the steps of single calls, byte for byte:
    # one channel runs as a stack of one and keeps these bits
    digest = hashlib.sha256()
    for ptm in _reference_ptms():
        pair = sinkhorn_iterate(ptm)
        norms = [pair.norm_a, pair.norm_b, pair.norm_a_inv, pair.norm_b_inv]
        assert pair.a.shape == pair.b.shape == (2, 2)
        assert all(type(x) is float for x in norms) and type(pair.iterations) is int
        for part in (pair.a.tobytes(), pair.b.tobytes(), np.array(norms).tobytes(),
                     str(pair.iterations).encode()):
            digest.update(part)
    assert digest.hexdigest() == "cd92fc0ab18cb8d03cc25d39946c3733a72600203c7e512ebe8e9ec9a9748b62"


def test_single_channel_errors_name_no_stack_position():
    channel = ptm_from_params(PauliChannelParams(0.5, 0.4, 0.3, 0.3))
    for call, error, message in [
            (lambda: sinkhorn_iterate(np.eye(4)), NotInterior,
             "channel image touches the Bloch sphere"),
            (lambda: sinkhorn_iterate(PauliChannelParams(0.5, 0.5, 0.6, 0.4)), NotInterior,
             "channel image touches the Bloch sphere"),
            (lambda: sinkhorn_iterate(channel, max_iter=0), NoConvergence,
             "residual inf > 1.0e-12 after 0 Newton steps"),
            (lambda: sinkhorn_iterate(channel, max_iter=2), NoConvergence,
             "residual 3.658e-03 > 1.0e-12 after 2 Newton steps")]:
        with pytest.raises(error) as info:
            call()
        assert str(info.value) == message


def test_stacked_iteration_names_the_first_failing_channel():
    good = ptm_from_params(PauliChannelParams(0.5, 0.4, 0.3, 0.3))
    pole = ptm_from_params(PauliChannelParams(0.3, 0.3, 0.7, 0.3))
    with pytest.raises(NotInterior, match="at channel 2 of the stack"):
        sinkhorn_iterate(np.array([good, good, pole, pole]))
    family = [PauliChannelParams(0.5, 0.4, 0.3, 0.3), PauliChannelParams(0.5, 0.5, 0.6, 0.4)]
    with pytest.raises(NotInterior, match="at channel 1 of the stack"):
        sinkhorn_iterate(PauliChannelParams.stack(family))
    slow = ptm_from_params(gad_params(1e-4, 1.0))
    with pytest.raises(NoConvergence, match="after 5 Newton steps at channel 1 of the stack"):
        sinkhorn_iterate(np.array([good, slow, slow]), max_iter=5)
    with pytest.raises(NotUnital, match="at channel 1 of the stack"):
        unital_diagonalize(np.array([np.eye(4), good]))


def test_stacked_pre_flight_is_one_interior_call(monkeypatch):
    calls = []
    original = sinkhorn.is_interior
    monkeypatch.setattr(sinkhorn, "is_interior",
                        lambda channel: calls.append(channel) or original(channel))
    good = ptm_from_params(PauliChannelParams(0.5, 0.4, 0.3, 0.3))
    with pytest.raises(NotInterior, match="at channel 3 of the stack"):
        sinkhorn_iterate(np.array([good, good, good, np.eye(4), good]))
    assert len(calls) == 1
    assert sinkhorn_iterate(np.array([good, good])).a.shape == (2, 2, 2)
    assert len(calls) == 2


def test_iteration_steps_near_amplitude_damping():
    steps = [sinkhorn_iterate(ptm_from_params(gad_params(p, 1.0))).iterations
             for p in (0.3, 1e-3, 1e-4, 1e-6)]
    assert all(s <= bound for s, bound in zip(steps, [4, 7, 9, 13])), steps


def test_iteration_sweeps_near_amplitude_damping():
    # the alternating loop converges only linearly as p -> 0
    sweeps = [len(_matrix_form_iterate(ptm_from_params(gad_params(p, 1.0)))[1])
              for p in (0.3, 1e-3, 1e-4)]
    assert sweeps == [8, 89, 269]


def test_iteration_with_no_sweeps_reports_an_infinite_residual():
    with pytest.raises(NoConvergence, match="residual inf"):
        sinkhorn_iterate(ptm_from_params(PauliChannelParams(0.5, 0.4, 0.3, 0.3)), max_iter=0)


def test_iteration_preflight_rejects_a_pole_boundary_channel():
    # |t3| + |lambda3| = 1 with the farthest output at the pole
    with pytest.raises(NotInterior, match="touches the Bloch sphere"):
        sinkhorn_iterate(ptm_from_params(PauliChannelParams(0.3, 0.3, 0.7, 0.3)))


def test_pauli_coefficient_helpers_match_the_matrices():
    rng = np.random.default_rng(59)
    for _ in range(200):
        c = (rng.uniform(1.0, 3.0), *rng.uniform(-0.5, 0.5, 3))
        f = (rng.uniform(1.0, 3.0), *rng.uniform(-0.5, 0.5, 3))
        X, F = sinkhorn._pauli_matrix(c), sinkhorn._pauli_matrix(f)
        np.testing.assert_allclose(sinkhorn._pauli_matrix(sinkhorn._pauli_inverse(c)),
                                   np.linalg.inv(X), atol=1e-14)
        root = sinkhorn._pauli_sqrt(c)
        np.testing.assert_allclose(sinkhorn._pauli_matrix(root), _matrix_sqrt(X), atol=1e-14)
        np.testing.assert_allclose(sinkhorn._pauli_matrix(sinkhorn._pauli_sandwich(c, f)),
                                   X @ F @ X, atol=1e-13)
        assert sinkhorn._pauli_det(c) == pytest.approx(np.linalg.det(X).real, rel=1e-13)
        assert sinkhorn._identity_residual(f) == pytest.approx(
            np.abs(F - np.eye(2)).max(), rel=1e-13, abs=1e-16)
