"""The verify checks that run the production functions on stacks of
instances, against the one-instance-at-a-time loops they replaced, on the
same draws: same generator state, same results.  The draw scheme itself
is pinned by its generator calls.  The CP grid check is held against the
eigensolve of every Choi matrix that its LDL' decision replaced."""

import math
import tracemalloc

import numpy as np
import pytest

from qcap import capacity, core, protocol, sinkhorn, verify

# ---------------------------------------------------------------------------
# sequential references: the checks as they ran before the instance stacks,
# each on the instances that the check's own draw function gives


def _channels(stack):
    """The channels of a family stack, one ``PauliChannelParams`` of Python
    floats each."""
    values = (stack.lambda1, stack.lambda2, stack.lambda3, stack.t3)
    return [core.PauliChannelParams(*row) for row in np.array(values).T.tolist()]


def _family_interiors(rng, count):
    return _channels(verify._random_family_interiors(rng, count))


def _unpadded(stack, k, size):
    """Instance k of a padded code or POVM stack, cut to its own size."""
    if isinstance(stack, protocol.Code):
        return protocol.Code(stack.factors[k, :size])
    return protocol.Povm(stack.elements[k, :size])


def _protocol_instances(rng, n, count, *parts):
    """The instances of ``verify._protocol_draws``, one at a time in index
    order: the channel's PTM, its sandwiched map and scaling pair, then
    one single unpadded code or POVM per part."""
    params, stacks = verify._protocol_draws(rng, n, count, *parts)
    instances = []
    for k, channel in enumerate(_channels(params)):
        pair = sinkhorn.family_scaling_pair(channel)
        instances.append([core.ptm_from_params(channel),
                          sinkhorn.upsilon_ptm(channel, pair), pair,
                          *(_unpadded(stack, k, sizes[k]) for stack, sizes in stacks)])
    return instances


def _sequential_bloch_roundtrip(rng):
    worst = 0.0
    for b in core.random_blochs(rng, 1000):
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
    for b in core.random_blochs(rng, 500):
        x, y, z = b
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
    stack, factors = verify._gauge_draws(rng)
    for params, c in zip(_channels(stack), factors.tolist()):
        pair = sinkhorn.family_scaling_pair(params)
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
    for params in _family_interiors(rng, 100):
        closed = capacity.analyze(params).form
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
    for params in _family_interiors(rng, 200):
        res = sinkhorn.verify_decomposition(params, sinkhorn.family_scaling_pair(params))
        worst = max(worst, res.max_residual)
    return verify._result("decomposition_residuals", worst <= 1e-9,
                          f"max residual {worst:.2e} over 200 channels (tol 1e-9)")


def _sequential_upsilon_is_channel(rng):
    ok = True
    for params in _family_interiors(rng, 50):
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
        for phi, psi, pair, code, povm in _protocol_instances(
                rng, n, instances, verify._codes, verify._povms):
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
        for _, _, pair, povm in _protocol_instances(rng, n, 30, verify._povms):
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
        for _, _, pair, code in _protocol_instances(rng, n, 50, verify._codes):
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


def test_grid_slabs_are_the_meshgrid_in_order():
    axis = np.linspace(-1.0, 1.0, 50)
    slabs = list(verify._grid_slabs(axis, 10))
    assert len(slabs) == 10 and all(len(l1) == 12_500 for l1, _, _ in slabs)
    for got, grid in zip(zip(*slabs), np.meshgrid(axis, axis, axis, indexing="ij")):
        assert np.concatenate(got).tobytes() == grid.ravel().tobytes()


def test_cp_grid_check_holds_one_slab_at_a_time():
    # a timing-free guard: the grid check never holds arrays of the whole
    # grid (6.25 MB of traced peak when it did; about 3.0 MB by slabs);
    # a first call also traces about 0.75 MB of one-time module imports
    verify._check_cp_grid(np.random.default_rng(7))
    tracemalloc.start()
    try:
        verify._check_cp_grid(np.random.default_rng(7))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4_000_000


# ---------------------------------------------------------------------------
# the draw scheme: about one generator call per distribution


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


def _values(stack):
    return np.array([stack.lambda1, stack.lambda2, stack.lambda3, stack.t3])


@pytest.mark.parametrize("count", [1, 2, 50, 200])
def test_family_draws_are_the_first_kept_rows_of_uniform_blocks(count):
    for seed in range(20):
        rng = _CountingGenerator(np.random.default_rng(seed))
        values = _values(verify._random_family_interiors(rng, count))
        assert values.shape == (4, count) and values.dtype == float
        assert np.all(verify._kept(*values)) and np.all(np.abs(values) < 1.0)
        assert set(rng.calls) == {"uniform"} and rng.calls["uniform"] <= 3
        block = np.random.default_rng(seed).uniform(-1.0, 1.0, (8 * count + 8, 4))
        kept = block[verify._kept(*block.T)]
        if len(kept) >= count:
            assert values.T.tobytes() == kept[:count].tobytes()


def test_one_family_draw_is_a_stack_of_one():
    """One drawn channel is a stack of one that the stacked scaling and
    decomposition take as is."""
    params = verify._random_family_interiors(np.random.default_rng(11), 1)
    assert params.lambda1.shape == (1,) and bool(verify._kept(*_values(params)).all())
    pair = sinkhorn.family_scaling_pair(params)
    assert float(sinkhorn.verify_decomposition(params, pair).max_residual[0]) <= 1e-9


def test_gauge_draws_are_one_family_draw_and_one_uniform_call():
    fast, slow = np.random.default_rng(31), np.random.default_rng(31)
    rng = _CountingGenerator(fast)
    params, factors = verify._gauge_draws(rng)
    ref = _values(verify._random_family_interiors(slow, 50))
    assert _values(params).tobytes() == ref.tobytes()
    assert factors.tobytes() == slow.uniform(0.2, 5.0, 50).tobytes()
    assert fast.bit_generator.state == slow.bit_generator.state
    assert set(rng.calls) == {"uniform"} and rng.calls["uniform"] <= 3


def test_ptm_vs_kraus_draws_take_one_call_per_distribution():
    rng = _CountingGenerator(np.random.default_rng(24))
    ops, _ = verify._ptm_vs_kraus_draws(rng, count=300)
    assert rng.calls == {"integers": 1, "normal": 2, "uniform": 1}
    ranks = (np.abs(ops).sum(axis=(-2, -1)) > 0).sum(axis=1)
    assert sorted(set(ranks.tolist())) == [1, 2, 3, 4]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_protocol_draws_match_the_sequential_draws(n):
    # the sizes, then size group by size group, in ascending order of
    # sizes, one Code.random call per instance and one Povm.random call per
    # instance, then the channels; codes are padded with copies of their
    # codeword 0 and POVMs with zero elements
    fast, slow = np.random.default_rng(32 + n), np.random.default_rng(32 + n)
    params, [(code, code_sizes), (povm, povm_sizes)] = verify._protocol_draws(
        fast, n, 60, verify._codes, verify._povms)
    sizes = slow.integers(2, 5, (60, 2))
    assert np.array_equal(np.column_stack([code_sizes, povm_sizes]), sizes)
    assert code.factors.shape == (60, 4, n, 2, 2)
    assert povm.elements.shape == (60, 4, 2**n, 2**n)
    for key in sorted(set(map(tuple, sizes.tolist()))):
        idx = np.flatnonzero((sizes == key).all(axis=1))
        codes = [protocol.Code.random(slow, size=key[0], n=n).factors for _ in idx]
        povms = [protocol.Povm.random(slow, size=key[1], dim=2**n).elements for _ in idx]
        assert code.factors[idx, :key[0]].tobytes() == np.array(codes).tobytes()
        assert povm.elements[idx, :key[1]].tobytes() == np.array(povms).tobytes()
    for k, (size, elements) in enumerate(sizes.tolist()):
        padding = code.factors[k, size:]
        assert padding.tobytes() == np.broadcast_to(code.factors[k, :1], padding.shape).tobytes()
        assert not povm.elements[k, elements:].any()
    assert _values(params).tobytes() == \
        _values(verify._random_family_interiors(slow, 60)).tobytes()
    assert fast.bit_generator.state == slow.bit_generator.state


@pytest.mark.parametrize("parts", [(verify._codes, verify._povms), (verify._povms,),
                                   (verify._codes,)],
                         ids=["codes-povms", "povms", "codes"])
def test_protocol_draws_take_one_call_per_distribution(parts):
    # at each block length, the sizes first in one integers call, then one
    # normal call for the objects of all parts and size groups, then the
    # channels
    for n in (1, 2, 3):
        rng = _CountingGenerator(np.random.default_rng(5))
        params, stacks = verify._protocol_draws(rng, n, 200, *parts)
        assert rng.calls["integers"] == 1 and rng.calls["normal"] == 1
        assert rng.calls["uniform"] <= 2
        assert len(stacks) == len(parts)
        for stack, sizes in stacks:
            assert (stack.batch_shape, stack.size, stack.n) == ((200,), 4, n)
            assert sorted(set(sizes.tolist())) == [2, 3, 4]
        assert _values(params).shape == (4, 200)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_padded_stacks_give_each_instance_its_single_call(n):
    # the rescaling deviation, the success probabilities of the real
    # codewords and the smallest eigenvalue over the real elements and the
    # completion, each as the bytes of the instance's unpadded single call
    count = 100
    params, [(code, code_sizes), (povm, povm_sizes)] = verify._protocol_draws(
        np.random.default_rng(40 + n), n, count, verify._codes, verify._povms)
    phis, pairs = core.ptm_from_params(params), sinkhorn.family_scaling_pair(params)
    psis = sinkhorn.upsilon_ptm(phis, pairs)
    devs = protocol.verify_rescaling_identity(phis, psis, pairs.a, pairs.b, code, povm)
    probs, bounds = protocol.success_probabilities(code, pairs.a, pairs.b)
    eigs = np.linalg.eigvalsh(protocol.modify_povm(povm, pairs.a).with_completion())[..., 0]
    for k, size, elements in zip(range(count), code_sizes, povm_sizes):
        one_code, one_povm = _unpadded(code, k, size), _unpadded(povm, k, elements)
        dev = protocol.verify_rescaling_identity(phis[k], psis[k], pairs.a[k], pairs.b[k],
                                                 one_code, one_povm)
        assert np.float64(dev).tobytes() == devs[k].tobytes()
        prob, bound = protocol.success_probabilities(one_code, pairs.a[k], pairs.b[k])
        assert prob.tobytes() == probs[k, :size].tobytes()
        assert np.float64(bound).tobytes() == bounds[k].tobytes()
        assert np.all(probs[k, size:] == probs[k, 0])
        low = protocol.modify_povm(one_povm, pairs.a[k]).min_eigenvalue()
        assert np.float64(low).tobytes() == eigs[k, :elements + 1].min().tobytes()
        assert np.all(eigs[k, elements + 1:] == 0.0)


def test_padded_povm_elements_stay_out_of_the_minimum_eigenvalue(monkeypatch):
    # POVMs halved to resolve half the identity: every real element and
    # every modified completion has only positive eigenvalues, so a zero
    # padding element would be the reported minimum if it were not masked
    draws = verify._protocol_draws

    def halved(rng, n, count, *parts):
        params, [(povm, sizes)] = draws(rng, n, count, *parts)
        return params, [(protocol.Povm(povm.elements / 2.0), sizes)]

    rng = np.random.default_rng(8)
    low, padded_low = np.inf, np.inf
    for n in (1, 2, 3):
        params, [(povm, sizes)] = halved(rng, n, 30, verify._povms)
        assert np.any(sizes < 4)
        a = sinkhorn.family_scaling_pair(params).a
        padded_low = min(padded_low, protocol.modify_povm(povm, a).min_eigenvalue().min())
        for k, size in enumerate(sizes):
            one = protocol.modify_povm(_unpadded(povm, k, size), a[k])
            low = min(low, one.min_eigenvalue())
    assert padded_low <= 0.0 < low
    monkeypatch.setattr(verify, "_protocol_draws", halved)
    result = verify._check_modified_povm(np.random.default_rng(8))
    assert result == verify._result("modified_povm_complete_and_psd", True,
                                    f"elements resolve identity; min eigenvalue {low:.2e}")


@pytest.mark.parametrize("check, function", [
    ("rescaling_identity", "verify_rescaling_identity"),
    ("modified_povm", "modify_povm"),
    ("rate_penalty", "success_probabilities"),
])
def test_each_protocol_check_makes_one_stacked_call_per_block_length(monkeypatch, check,
                                                                     function):
    calls = []
    original = getattr(protocol, function)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(protocol, function, counted)
    assert getattr(verify, f"_check_{check}")(np.random.default_rng(7)).passed
    assert len(calls) == 3
    for n, args in zip((1, 2, 3), calls):
        stacks = [a for a in args if isinstance(a, (protocol.Code, protocol.Povm))]
        assert stacks and all((s.size, s.n) == (4, n) and len(s.batch_shape) == 1
                              for s in stacks)


def test_family_stack_matches_the_stacked_single_pairs():
    stack = verify._random_family_interiors(np.random.default_rng(36), 840)
    params = _channels(stack)
    ptms, pair = core.ptm_from_params(stack), sinkhorn.family_scaling_pair(stack)
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


# ---------------------------------------------------------------------------
# a failure is reported for the failing instance with the lowest index


def _out_of_group_order(stacks):
    """Two instances k1 < k2 whose objects are drawn in the other order: k1
    is the first instance outside the first size group, and k2 the next
    one in it."""
    sizes = np.column_stack([s for _, s in stacks])
    first = np.flatnonzero((sizes == min(map(tuple, sizes.tolist()))).all(axis=1))
    k1 = next(k for k in range(first.size + 1) if k not in first)
    return k1, int(first[first > k1][0])


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
    # (patched function, its patch, scaling it keys on, check, draws per n, parts)
    ("completion_tolerance", _tolerance_failing_at, "a", "rescaling_identity", 100,
     (verify._codes, verify._povms)),
    ("completion_tolerance", _tolerance_failing_at, "a", "modified_povm", 30,
     (verify._povms,)),
    ("code_scaling_traces", _traces_inflated_at, "b", "rate_penalty", 50,
     (verify._codes,)),
]


@pytest.mark.parametrize("function, patch, operator, check, count, parts", FAILURES,
                         ids=[f"{f}-{c}" for f, _, _, c, *_ in FAILURES])
def test_failures_are_reported_in_draw_order(monkeypatch, function, patch, operator,
                                             check, count, parts):
    # two instances fail at n = 1, and the later one's group runs first;
    # every protocol check must report what the sequential loop reports,
    # and the chosen check must name the earlier instance
    seed = 5
    params, groups = verify._protocol_draws(np.random.default_rng(seed), 1, count, *parts)
    k1, k2 = _out_of_group_order(groups)
    scaling = getattr(sinkhorn.family_scaling_pair(params), operator)
    entries = [scaling[k, 0, 0].real for k in (k1, k2)]
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


# ---------------------------------------------------------------------------
# instances that once failed a check, by their parameters


def test_gauge_check_passes_where_b_has_nearly_equal_singular_values(monkeypatch):
    # the 34th gauge channel and factor that verify --seed 216046928 drew
    # before its draws were stacked: norms from tr^2 - 4 det moved 3.44e-9
    # under this gauge change, past the 1e-9 tolerance
    params = core.PauliChannelParams(0.4142611594972083, 0.38927262695280906,
                                     0.004823898941261229, -9.036425638431211e-06)
    singular = np.linalg.svd(sinkhorn.family_scaling_pair(params).b, compute_uv=False)
    assert np.allclose(singular, [1.00000584, 1.0000058], rtol=0, atol=5e-9)
    stack = core.PauliChannelParams.stack([params])
    monkeypatch.setattr(verify, "_gauge_draws",
                        lambda rng: (stack, np.array([3.6890576478002064])))
    result = verify._check_gauge_invariance(np.random.default_rng(0))
    assert result.passed, result.detail


def test_rescaling_identity_holds_where_a_has_nearly_equal_singular_values():
    # the channel that verify --suite protocol --seed 1704011245 drew as
    # instance 47 at n = 2 before its draws were stacked: |A| from
    # tr^2 - 4 det was off by 1.6e-10 relatively, and modify_povm raised on
    # a completion eigenvalue of -6.5e-10
    params = core.PauliChannelParams(-0.3990747296728958, 0.12471242495166757,
                                     -0.36135063840898063, -2.073024969462267e-07)
    pair = sinkhorn.family_scaling_pair(params)
    singular = np.linalg.svd(pair.a, compute_uv=False)
    assert np.allclose(singular, [0.96562427, 0.96562404], rtol=0, atol=5e-9)
    phi, psi = core.ptm_from_params(params), sinkhorn.upsilon_ptm(params, pair)
    rng = np.random.default_rng(1704)
    for size in (2, 2, 3, 4):
        code = protocol.Code.random(rng, size=size, n=2)
        povm = protocol.Povm.random(rng, size=size, dim=4)
        protocol.modify_povm(povm, pair.a)
        assert protocol.verify_rescaling_identity(phi, psi, pair.a, pair.b,
                                                  code, povm) <= 1e-11


# ---------------------------------------------------------------------------
# every check passes on seeds that no other test uses


@pytest.mark.parametrize("seed", range(70001, 70025))
def test_every_check_passes_across_seeds(seed):
    for suite in verify.run_suites(["core", "sinkhorn", "protocol"], seed=seed):
        assert suite.passed, [c for c in suite.checks if not c.passed]
