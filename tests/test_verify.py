"""The verify checks that draw their instances first and then run the
production functions on stacks, against the one-instance-at-a-time loops
they replaced: same draws, same generator state, same results.  The CP
grid check is held against the eigensolve of every Choi matrix that its
LDL' decision replaced."""

import math

import numpy as np
import pytest

from qcap import core, protocol, sinkhorn, verify

# ---------------------------------------------------------------------------
# sequential references: the checks as they ran before the instance stacks


def _sequential_family_interior(rng):
    while True:
        l1, l2, l3 = rng.uniform(-1.0, 1.0, 3)
        t3 = rng.uniform(-1.0, 1.0)
        if abs(t3) + abs(l3) >= 0.98:
            continue
        if 1.0 + l3 < np.hypot(t3, l1 + l2) + 1e-6:
            continue
        if 1.0 - l3 < np.hypot(t3, l1 - l2) + 1e-6:
            continue
        return core.PauliChannelParams(l1, l2, l3, t3)


def _sequential_protocol_instance(rng, n):
    params = _sequential_family_interior(rng)
    pair = sinkhorn.family_scaling_pair(params)
    phi = core.ptm_from_params(params)
    psi = sinkhorn.upsilon_ptm(params, pair)
    code = protocol.Code.random(rng, size=int(rng.integers(2, 5)), n=n)
    povm = protocol.Povm.random(rng, size=int(rng.integers(2, 5)), dim=2**n)
    return phi, psi, pair, code, povm


def _sequential_bloch_roundtrip(rng):
    worst = 0.0
    for _ in range(1000):
        b = core.random_blochs(rng, 1)[0]
        back = core.density_to_bloch(core.bloch_to_density(b))
        worst = max(worst, *np.abs(back - b).tolist())
    return verify._result("bloch_density_roundtrip", worst <= 1e-14,
                          f"max deviation {worst:.2e} over 1000 states (tol 1e-14)")


def _unital_family_choi_min_eig(l1, l2, l3):
    """Smallest Choi eigenvalue for diagonal unital channels, computed
    by a batched dense eigensolve of the explicitly assembled Chois."""
    n = l1.size
    chois = np.zeros((n, 4, 4))
    chois[:, 0, 0] = chois[:, 3, 3] = (1.0 + l3) / 2.0
    chois[:, 1, 1] = chois[:, 2, 2] = (1.0 - l3) / 2.0
    chois[:, 0, 3] = chois[:, 3, 0] = (l1 + l2) / 2.0
    chois[:, 1, 2] = chois[:, 2, 1] = (l1 - l2) / 2.0
    return np.linalg.eigvalsh(chois)[:, 0]


def _sequential_cp_grid(rng):
    # the grid check as it ran through one eigensolve per Choi matrix
    axis = np.linspace(-1.0, 1.0, 50)
    l1, l2, l3 = (g.ravel() for g in np.meshgrid(axis, axis, axis, indexing="ij"))
    min_eigs = _unital_family_choi_min_eig(l1, l2, l3)
    by_choi = min_eigs >= -1e-10
    by_inequality = ((1.0 + l3 - np.abs(l1 + l2) >= -1e-10)
                     & (1.0 - l3 - np.abs(l1 - l2) >= -1e-10))
    grid_ok = bool(np.array_equal(by_choi, by_inequality))

    idx = rng.choice(l1.size, size=400, replace=False)
    sample_ok = True
    for k in idx:
        params = core.PauliChannelParams(l1[k], l2[k], l3[k], 0.0)
        report = core.is_completely_positive(core.ptm_from_params(params))
        if report.is_cp != bool(by_inequality[k]):
            sample_ok = False
            break
    return verify._result("cp_check_matches_unital_inequality", grid_ok and sample_ok,
                          f"50^3 grid agreement={grid_ok}, production-path subsample "
                          f"agreement={sample_ok} (tol 1e-10)")


def _sequential_entropy_consistency(rng):
    worst = 0.0
    for _ in range(500):
        x, y, z = b = core.random_blochs(rng, 1)[0]
        s = core.von_neumann_entropy(core.bloch_to_density(b))
        via_bloch = core.binary_entropy((1.0 - math.sqrt(x * x + y * y + z * z)) / 2.0)
        worst = max(worst, abs(s - via_bloch))
    return verify._result("entropy_matches_bloch_formula", worst <= 1e-12,
                          f"max deviation {worst:.2e} over 500 states (tol 1e-12)")


def _sequential_norm_inverse_product(rng):
    ok = True
    low = np.inf
    for _ in range(500):
        K = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        if abs(np.linalg.det(K)) < 1e-6:
            continue
        prod = core.operator_norm(K) * core.operator_norm(core.inverse_2x2(K))
        low = min(low, prod)
        ok = ok and prod >= 1.0 - 1e-12
    return verify._result("norm_times_inverse_norm_at_least_one", ok,
                          f"min product {low:.6f} over random invertible operators")


def _sequential_gauge_invariance(rng):
    worst = 0.0
    for _ in range(50):
        params = _sequential_family_interior(rng)
        pair = sinkhorn.family_scaling_pair(params)
        c = rng.uniform(0.2, 5.0)
        scaled = sinkhorn.ScalingPair.from_operators(pair.a / c, c * pair.b)
        ups = sinkhorn.upsilon_ptm(params, pair)
        ups_scaled = sinkhorn.upsilon_ptm(params, scaled)
        worst = max(worst, float(np.abs(ups - ups_scaled).max()),
                    abs(pair.norm_ab * pair.norm_ab_inv
                        - scaled.norm_ab * scaled.norm_ab_inv))
    return verify._result("gauge_rescaling_invariance", worst <= 1e-9,
                          f"max drift {worst:.2e} under scalar gauge changes (tol 1e-9)")


def _sequential_two_path_agreement(rng):
    worst = 0.0
    for _ in range(100):
        params = _sequential_family_interior(rng)
        closed = sinkhorn.family_unital_params(params)
        pair = sinkhorn.sinkhorn_iterate(core.ptm_from_params(params))
        iterated = sinkhorn.unital_diagonalize(
            sinkhorn.upsilon_ptm(params, pair), tol=1e-7)
        worst = max(worst,
                    abs(closed.lt1 - iterated.lt1),
                    abs(closed.lt2 - iterated.lt2),
                    abs(closed.lt3 - iterated.lt3))
    return verify._result("closed_form_matches_iteration", worst <= 1e-8,
                          f"max lt deviation {worst:.2e} over 100 channels (tol 1e-8)")


def _sequential_decomposition_residuals(rng):
    worst = 0.0
    for _ in range(200):
        params = _sequential_family_interior(rng)
        res = sinkhorn.verify_decomposition(params, sinkhorn.family_scaling_pair(params))
        worst = max(worst, res.max_residual)
    return verify._result("decomposition_residuals", worst <= 1e-9,
                          f"max residual {worst:.2e} over 200 channels (tol 1e-9)")


def _sequential_upsilon_is_channel(rng):
    ok = True
    for _ in range(50):
        params = _sequential_family_interior(rng)
        ups = sinkhorn.upsilon_ptm(params, sinkhorn.family_scaling_pair(params))
        report = core.is_completely_positive(ups)
        ok = ok and report.is_cp and core.is_unital(ups, 1e-10) \
            and core.is_trace_preserving(ups, 1e-10)
    return verify._result("unitalized_channel_is_cptp_unital", ok,
                          "CP/TP/unitality of the sandwiched map on 50 channels")


def _sequential_rescaling_identity(rng, instances=100):
    name = "probability_rescaling_identity"
    worst = 0.0
    error = None
    for n in (1, 2, 3):
        for _ in range(instances):
            phi, psi, pair, code, povm = _sequential_protocol_instance(rng, n)
            try:
                dev = protocol.verify_rescaling_identity(phi, psi, pair.a, pair.b,
                                                         code, povm)
            except ValueError as exc:
                error = error or f"n={n}: {exc}"
                continue
            worst = max(worst, dev)
    if error:
        return verify._result(name, False, error)
    return verify._result(name, worst <= 1e-11,
                          f"max deviation {worst:.2e} over {3 * instances} instances "
                          "(tol 1e-11)")


def _sequential_modified_povm(rng):
    name = "modified_povm_complete_and_psd"
    ok = True
    low = np.inf
    error = None
    for n in (1, 2, 3):
        for _ in range(30):
            _, _, pair, _, povm = _sequential_protocol_instance(rng, n)
            try:
                modified = protocol.modify_povm(povm, pair.a)
            except ValueError as exc:
                error = error or f"n={n}: {exc}"
                continue
            total = modified.elements.sum(axis=0) + modified.completion
            ok = ok and np.abs(total - np.eye(2**n)).max() <= 1e-12
            eig = modified.min_eigenvalue()
            low = min(low, eig)
            ok = ok and eig >= -protocol.completion_tolerance(pair.a, n)
    if error:
        return verify._result(name, False, error)
    return verify._result(name, ok, f"elements resolve identity; min eigenvalue {low:.2e}")


def _sequential_rate_penalty(rng):
    name = "per_use_rate_penalty"
    ok = True
    slack = np.inf
    error = None
    for n in (1, 2, 3):
        for _ in range(50):
            _, _, pair, code, _ = _sequential_protocol_instance(rng, n)
            try:
                probs, _ = protocol.success_probabilities(code, pair.a, pair.b)
            except AssertionError as exc:
                error = error or f"n={n}, {exc}"
                continue
            rhs = -2.0 * np.log2(pair.norm_ab)
            for prob in probs:
                lhs = np.log2(prob) / n
                slack = min(slack, lhs - rhs)
                ok = ok and lhs >= rhs - 1e-9
    if error:
        return verify._result(name, False, error)
    return verify._result(name, ok,
                          f"min slack {slack:.2e} of log2(P)/n over the penalty bound")


CHECKS = [
    (verify._check_bloch_roundtrip, _sequential_bloch_roundtrip),
    (verify._check_cp_grid, _sequential_cp_grid),
    (verify._check_entropy_consistency, _sequential_entropy_consistency),
    (verify._check_norm_inverse_product, _sequential_norm_inverse_product),
    (verify._check_gauge_invariance, _sequential_gauge_invariance),
    (verify._check_two_path_agreement, _sequential_two_path_agreement),
    (verify._check_decomposition_residuals, _sequential_decomposition_residuals),
    (verify._check_upsilon_is_channel, _sequential_upsilon_is_channel),
    (verify._check_rescaling_identity, _sequential_rescaling_identity),
    (verify._check_modified_povm, _sequential_modified_povm),
    (verify._check_rate_penalty, _sequential_rate_penalty),
]


def _run_both(stacked, sequential, seed):
    fast, slow = np.random.default_rng(seed), np.random.default_rng(seed)
    result, reference = stacked(fast), sequential(slow)
    assert fast.bit_generator.state == slow.bit_generator.state
    return result, reference


@pytest.mark.parametrize("stacked, sequential", CHECKS,
                         ids=[c.__name__ for c, _ in CHECKS])
@pytest.mark.parametrize("seed", [3, 7])
def test_stacked_check_matches_the_sequential_check(stacked, sequential, seed):
    result, reference = _run_both(stacked, sequential, seed)
    assert result == reference


def test_non_trace_preserving_sandwich_fails_the_channel_check(monkeypatch):
    # the check tests the raw sandwiched PTMs, so a first row off by 1e-3
    # fails trace preservation instead of being overwritten
    original = sinkhorn.upsilon_ptm

    def off_trace(channel, pair):
        ups = original(channel, pair)
        ups[..., 0, 0] += 1e-3
        return ups

    monkeypatch.setattr(sinkhorn, "upsilon_ptm", off_trace)
    for check in (verify._check_upsilon_is_channel, _sequential_upsilon_is_channel):
        assert not check(np.random.default_rng(7)).passed


# ---------------------------------------------------------------------------
# the LDL' decision of the CP grid against the eigensolver


def _eigensolver_decision(mats):
    return np.linalg.eigvalsh(mats)[:, 0] >= -1e-10


def test_ldl_decision_matches_the_eigensolver_on_the_grid():
    axis = np.linspace(-1.0, 1.0, 50)
    chois = verify._unital_family_chois(
        *(g.ravel() for g in np.meshgrid(axis, axis, axis, indexing="ij")))
    assert chois.shape == (125_000, 4, 4)
    decision = verify._shifted_is_positive_definite(chois)
    assert np.array_equal(decision, _eigensolver_decision(chois))
    assert 0 < decision.sum() < decision.size


def test_ldl_decision_matches_the_eigensolver_near_the_threshold():
    # random symmetric matrices shifted so that lambda_min lies uniformly
    # within 1e-9 of the threshold -1e-10, on either side
    rng = np.random.default_rng(2024)
    count = 200_000
    g = rng.normal(size=(count, 4, 4))
    mats = (g + g.transpose(0, 2, 1)) / 2.0
    target = -1e-10 + rng.uniform(-1e-9, 1e-9, count)
    mats -= (np.linalg.eigvalsh(mats)[:, 0] - target)[:, None, None] * np.eye(4)
    expected = _eigensolver_decision(mats)
    assert 0.45 < expected.mean() < 0.55
    assert np.array_equal(verify._shifted_is_positive_definite(mats), expected)


@pytest.mark.parametrize("lambdas, psd", [((1.0, 1.0, 1.0), True),
                                          ((1.0, 1.0, 0.9), False)])
def test_ldl_decision_at_named_points(lambdas, psd):
    # the identity channel sits on the CP boundary (Choi rank 1)
    chois = verify._unital_family_chois(*(np.array([v]) for v in lambdas))
    assert verify._shifted_is_positive_definite(chois).tolist() == [psd]
    assert _eigensolver_decision(chois).tolist() == [psd]


def test_swapped_choi_entries_fail_the_cp_grid_check(monkeypatch):
    # exchanging the (l1 + l2) and (l1 - l2) entries tests the Chois of
    # (l1, -l2, l3), which the inequality does not describe
    original = verify._shifted_is_positive_definite

    def swapped(mats):
        mats = mats.copy()
        outer = mats[:, 0, 3].copy()
        mats[:, 0, 3] = mats[:, 3, 0] = mats[:, 1, 2]
        mats[:, 1, 2] = mats[:, 2, 1] = outer
        return original(mats)

    assert verify._check_cp_grid(np.random.default_rng(7)).passed
    monkeypatch.setattr(verify, "_shifted_is_positive_definite", swapped)
    result = verify._check_cp_grid(np.random.default_rng(7))
    assert not result.passed
    assert "50^3 grid agreement=False" in result.detail


# ---------------------------------------------------------------------------
# the pre-drawn instances, bit for bit


def _params_bits(params):
    values = (params.lambda1, params.lambda2, params.lambda3, params.t3)
    return [type(v) for v in values], np.array(values).tobytes()


@pytest.mark.parametrize("count", [1, 2, 50, 200])
def test_family_draws_match_the_sequential_draws(count):
    for seed in range(20):
        fast, slow = np.random.default_rng(seed), np.random.default_rng(seed)
        drawn = verify._random_family_interiors(fast, count)
        reference = [_sequential_family_interior(slow) for _ in range(count)]
        assert [_params_bits(p) for p in drawn] == [_params_bits(p) for p in reference]
        assert fast.bit_generator.state == slow.bit_generator.state


def test_one_family_draw_matches_the_sequential_draw():
    for seed in range(40):
        fast, slow = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(5):
            assert _params_bits(verify._random_family_interior(fast)) == \
                _params_bits(_sequential_family_interior(slow))
        assert fast.bit_generator.state == slow.bit_generator.state


def test_family_draws_after_a_buffered_half_match_the_sequential_draws():
    # rng.integers(2, 5) leaves half of a 64-bit draw buffered; rewinding
    # over unused attempts must keep that half for the next integers call
    for seed in range(40):
        fast, slow = np.random.default_rng(seed), np.random.default_rng(seed)
        for rng in (fast, slow):
            rng.integers(2, 5)
        assert fast.bit_generator.state["has_uint32"] == 1
        assert _params_bits(verify._random_family_interior(fast)) == \
            _params_bits(_sequential_family_interior(slow))
        assert fast.bit_generator.state == slow.bit_generator.state
        for rng in (fast, slow):
            rng.integers(2, 5)
        drawn = verify._random_family_interiors(fast, 3)
        assert [_params_bits(p) for p in drawn] == \
            [_params_bits(_sequential_family_interior(slow)) for _ in range(3)]
        assert fast.bit_generator.state == slow.bit_generator.state
        assert fast.integers(0, 2**32) == slow.integers(0, 2**32)


class _CountingGenerator:
    """A generator that counts the calls of each of its methods."""

    def __init__(self, rng):
        self._rng = rng
        self.calls = {}

    def __getattr__(self, name):
        attr = getattr(self._rng, name)
        if not callable(attr):
            return attr

        def counted(*args, **kwargs):
            self.calls[name] = self.calls.get(name, 0) + 1
            return attr(*args, **kwargs)
        return counted


def test_protocol_draws_take_one_uniform_block_per_instance():
    # about one attempt in seven is kept; a block holds 24 attempts, so a
    # second block is needed for about one instance in 40
    rng = _CountingGenerator(np.random.default_rng(5))
    verify._protocol_draws(rng, 2, 200)
    assert rng.calls["integers"] == 400 and rng.calls["normal"] == 400
    assert 200 <= rng.calls["uniform"] <= 215


def test_gauge_draws_match_the_sequential_draws():
    fast, slow = np.random.default_rng(31), np.random.default_rng(31)
    params, factors = verify._gauge_draws(fast)
    ptms, pair = verify._family_stack(params)
    for k in range(50):
        ref_params = _sequential_family_interior(slow)
        ref_pair = sinkhorn.family_scaling_pair(ref_params)
        assert _params_bits(params[k]) == _params_bits(ref_params)
        assert factors[k] == slow.uniform(0.2, 5.0)
        assert ptms[k].tobytes() == core.ptm_from_params(ref_params).tobytes()
        assert pair.a[k].tobytes() == ref_pair.a.tobytes()
        assert pair.b[k].tobytes() == ref_pair.b.tobytes()
    assert fast.bit_generator.state == slow.bit_generator.state


def test_family_stack_matches_the_stacked_single_pairs():
    params = verify._random_family_interiors(np.random.default_rng(36), 840)
    ptms, pair = verify._family_stack(params)
    singles = [sinkhorn.family_scaling_pair(p) for p in params]
    ref = sinkhorn.ScalingPair(*(np.stack([getattr(p, name) for p in singles])
                                 for name in ("a", "b", "norm_a", "norm_b",
                                              "norm_a_inv", "norm_b_inv")))
    assert ptms.tobytes() == np.array([core.ptm_from_params(p) for p in params]).tobytes()
    for name in ("a", "b", "norm_a", "norm_b", "norm_a_inv", "norm_b_inv"):
        got, want = getattr(pair, name), getattr(ref, name)
        assert (got.shape, got.dtype) == (want.shape, want.dtype)
        assert got.tobytes() == want.tobytes()
    assert not pair.a.flags.writeable and not pair.b.flags.writeable
    assert sinkhorn.upsilon_ptm(ptms, pair).tobytes() == \
        sinkhorn.upsilon_ptm(ptms, ref).tobytes()


@pytest.mark.parametrize("n", [1, 2, 3])
def test_protocol_draws_match_the_sequential_draws(n):
    # each shape group's stacks hold the instances, in draw order, that the
    # sequential loop builds one at a time
    fast, slow = np.random.default_rng(32 + n), np.random.default_rng(32 + n)
    draws = verify._protocol_draws(fast, n, 60)
    reference = [_sequential_protocol_instance(slow, n) for _ in range(60)]
    assert fast.bit_generator.state == slow.bit_generator.state
    groups = verify._shape_groups((len(c), len(m)) for _, c, m in draws)
    assert sorted(k for idx in groups for k in idx) == list(range(60))
    for idx in groups:
        phi, pair = verify._family_stack([draws[k][0] for k in idx])
        psi = sinkhorn.upsilon_ptm(phi, pair)
        code, povm = verify._code_stack(draws, idx), verify._povm_stack(draws, idx)
        for j, k in enumerate(idx):
            ref_phi, ref_psi, ref_pair, ref_code, ref_povm = reference[k]
            assert phi[j].tobytes() == ref_phi.tobytes()
            assert psi[j].tobytes() == ref_psi.tobytes()
            assert pair.a[j].tobytes() == ref_pair.a.tobytes()
            assert pair.b[j].tobytes() == ref_pair.b.tobytes()
            assert pair.norm_ab[j] == ref_pair.norm_ab
            assert code.factors[j].tobytes() == ref_code.factors.tobytes()
            assert povm.elements[j].tobytes() == ref_povm.elements.tobytes()


# ---------------------------------------------------------------------------
# a failure is reported for the first failing instance in draw order


def _out_of_group_order(draws, key):
    """Two instances k1 < k2 whose shape groups run in the other order: k1
    opens a later group, and k2 joins the group of instance 0."""
    keys = [key(d) for d in draws]
    k1 = next(k for k, kk in enumerate(keys) if kk != keys[0])
    k2 = next(k for k in range(k1 + 1, len(keys)) if keys[k] == keys[0])
    return k1, k2


def _tolerance_failing_at(original, entries):
    # a tolerance of -1 fails every completion; keyed on A's (0, 0) entry
    def patched(scaling, n):
        hit = np.isin(np.asarray(scaling)[..., 0, 0].real, entries)
        return np.where(hit, -1.0, original(scaling, n))
    return patched


def _traces_inflated_at(original, entries):
    # tenfold traces push success probabilities below their bound; keyed on
    # B's (0, 0) entry, one row of traces per instance
    def patched(code, scaling):
        hit = np.isin(np.asarray(scaling)[..., 0, 0].real, entries)
        return np.where(hit[..., None], 10.0, 1.0) * original(code, scaling)
    return patched


PROTOCOL_CHECKS = ["rescaling_identity", "modified_povm", "rate_penalty"]
FAILURES = [
    # (patched function, its patch, scaling it keys on, check, draws per n, shape key)
    ("completion_tolerance", _tolerance_failing_at, "a", "rescaling_identity", 100,
     lambda d: (len(d[1]), len(d[2]))),
    ("completion_tolerance", _tolerance_failing_at, "a", "modified_povm", 30,
     lambda d: len(d[2])),
    ("code_scaling_traces", _traces_inflated_at, "b", "rate_penalty", 50,
     lambda d: len(d[1])),
]


@pytest.mark.parametrize("function, patch, operator, check, count, key", FAILURES,
                         ids=[f"{f}-{c}" for f, _, _, c, *_ in FAILURES])
def test_failures_are_reported_in_draw_order(monkeypatch, function, patch, operator,
                                             check, count, key):
    # two instances fail at n = 1, and the later one's shape group runs
    # first; every protocol check must report what the sequential loop
    # reports, and the chosen check must name the earlier instance
    seed = 5
    draws = verify._protocol_draws(np.random.default_rng(seed), 1, count)
    k1, k2 = _out_of_group_order(draws, key)
    entries = [getattr(sinkhorn.family_scaling_pair(draws[k][0]), operator)[0, 0].real
               for k in (k1, k2)]
    original = getattr(protocol, function)

    monkeypatch.setattr(protocol, function, patch(original, entries[1:]))
    _, only_k2 = _run_both(getattr(verify, f"_check_{check}"),
                           globals()[f"_sequential_{check}"], seed)
    monkeypatch.setattr(protocol, function, patch(original, entries))
    for name in PROTOCOL_CHECKS:
        result, reference = _run_both(getattr(verify, f"_check_{name}"),
                                      globals()[f"_sequential_{name}"], seed)
        assert result == reference
        if name == check:
            assert not result.passed and result.detail.startswith("n=1")
            assert result.detail != only_k2.detail
