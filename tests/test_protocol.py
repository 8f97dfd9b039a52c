from decimal import Decimal, localcontext
from fractions import Fraction
from functools import reduce

import numpy as np
import pytest

from qcap import protocol, verify
from qcap.capacity import gad_params
from qcap.core import (
    PauliChannelParams,
    _as_ptm,
    apply_channel_matrix,
    apply_scaling,
    operator_norm,
    ptm_from_params,
    random_densities,
    random_ginibre,
)
from qcap.protocol import (
    POVM_PSD_TOL,
    Code,
    Povm,
    code_scaling_traces,
    completion_tolerance,
    modify_code,
    modify_povm,
    outcome_probabilities,
    success_probabilities,
    success_probability,
    verify_rescaling_identity,
)
from qcap.sinkhorn import family_scaling_pair, upsilon_ptm


def _instance(rng, n, params=None):
    params = params or PauliChannelParams(0.5, 0.4, 0.3, 0.2)
    pair = family_scaling_pair(params)
    phi = ptm_from_params(params)
    psi = upsilon_ptm(params, pair)
    code = Code.random(rng, size=3, n=n)
    povm = Povm.random(rng, size=4, dim=2**n)
    return phi, psi, pair, code, povm


def test_code_shapes_and_codewords():
    rng = np.random.default_rng(0)
    code = Code.random(rng, size=3, n=2)
    assert code.size == 3 and code.n == 2
    word = code.codeword(0)
    assert word.shape == (4, 4)
    assert np.trace(word).real == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.eigvalsh(word)[0] >= -1e-12
    with pytest.raises(ValueError):
        Code(np.zeros((2, 4, 2, 2)))  # block length above the cap


def test_modify_code_identity_leaves_code():
    rng = np.random.default_rng(1)
    code = Code.random(rng, size=2, n=2)
    same = modify_code(code, np.eye(2))
    np.testing.assert_allclose(same.factors, code.factors, atol=1e-14)


def test_modify_code_eigenvector_fixed_point():
    excited = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)
    code = Code(np.array([[excited, excited]]))
    modified = modify_code(code, np.diag([1.0, 0.5]))
    np.testing.assert_allclose(modified.factors, code.factors, atol=1e-14)


def test_modify_code_normalizes_and_rejects_degenerate():
    rng = np.random.default_rng(2)
    code = Code.random(rng, size=4, n=2)
    scaled = modify_code(code, np.array([[1.0, 0.3], [0.0, 0.7]]))
    for i in range(scaled.size):
        word = scaled.codeword(i)
        assert np.trace(word).real == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.eigvalsh(word)[0] >= -1e-12
    with pytest.raises(ValueError):
        modify_code(code, np.array([[1.0, 0.0], [1.0, 0.0]]))


def test_povm_random_resolves_identity():
    rng = np.random.default_rng(3)
    povm = Povm.random(rng, size=5, dim=4)
    np.testing.assert_allclose(povm.elements.sum(axis=0), np.eye(4), atol=1e-12)
    np.testing.assert_allclose(povm.completion, np.zeros((4, 4)), atol=1e-12)
    assert povm.min_eigenvalue() >= -1e-12


def test_modify_povm_identity_scaling():
    rng = np.random.default_rng(4)
    povm = Povm.random(rng, size=3, dim=2)
    same = modify_povm(povm, np.eye(2))
    np.testing.assert_allclose(same.elements, povm.elements, atol=1e-14)
    np.testing.assert_allclose(same.completion, povm.completion, atol=1e-14)


def test_modify_povm_projective_explicit():
    # A = diag(a1, a2) on the computational projectors: elements become
    # diag(a1^2, 0)/max^2 and diag(0, a2^2)/max^2
    a1, a2 = 0.8, 1.3
    povm = Povm(np.array([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])],
                         dtype=complex))
    modified = modify_povm(povm, np.diag([a1, a2]))
    scale = max(a1, a2) ** 2
    np.testing.assert_allclose(modified.elements[0],
                               np.diag([a1**2 / scale, 0.0]), atol=1e-14)
    np.testing.assert_allclose(modified.elements[1],
                               np.diag([0.0, a2**2 / scale]), atol=1e-14)
    assert np.linalg.eigvalsh(modified.completion)[0] >= -1e-14


def test_modify_povm_random_completion_psd():
    rng = np.random.default_rng(5)
    for n in (1, 2, 3):
        _, _, pair, _, povm = _instance(rng, n)
        modified = modify_povm(povm, pair.a)
        assert modified.min_eigenvalue() >= -1e-10
        total = modified.elements.sum(axis=0) + modified.completion
        np.testing.assert_allclose(total, np.eye(2**n), atol=1e-12)


def _top_singular_value_squared(A):
    # exact for the real 2x2 A up to the 50-digit root of the discriminant
    a, b, c, d = (Fraction(float(x)) for x in A.ravel())
    tr = a * a + b * b + c * c + d * d
    disc = tr * tr - 4 * (a * d - b * c) ** 2
    with localcontext() as ctx:
        ctx.prec = 50
        dec = [Decimal(q.numerator) / Decimal(q.denominator) for q in (tr, disc)]
        return (dec[0] + dec[1].sqrt()) / 2


def test_completion_tolerance_covers_the_norm_rounding():
    # |A|^2 from the Gram discriminant loses digits as the two singular
    # values of A meet; the tolerance above POVM_PSD_TOL bounds that loss
    rng = np.random.default_rng(8)
    for gap in (1e-3, 1e-7, 1e-11, 0.0):
        for _ in range(50):
            u, _ = np.linalg.qr(rng.normal(size=(2, 2)))
            v, _ = np.linalg.qr(rng.normal(size=(2, 2)))
            s = rng.uniform(0.5, 2.0)
            A = u @ np.diag([s, s * (1.0 - gap)]) @ v.T
            with localcontext() as ctx:
                ctx.prec = 50
                rel = abs(Decimal(operator_norm(A)) ** 2 / _top_singular_value_squared(A) - 1)
            assert rel <= completion_tolerance(A, 1) - POVM_PSD_TOL
    # well-separated singular values leave the tolerance at its floor
    assert completion_tolerance(np.diag([0.8, 1.3]), 3) <= POVM_PSD_TOL * (1 + 1e-4)


def test_outcome_probability_kronecker_delta():
    basis = [np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)]
    code = Code(np.array([[basis[0]], [basis[1]]]))
    povm = Povm(np.array(basis))
    ident = ptm_from_params(PauliChannelParams(1, 1, 1, 0))
    probs = outcome_probabilities(ident, code, povm)
    for i in range(2):
        for j in (1, 2):
            expected = 1.0 if j - 1 == i else 0.0
            assert probs[i, j] == pytest.approx(expected, abs=1e-14)


def test_outcome_probability_tracing_channel_uniform():
    rng = np.random.default_rng(6)
    tracing = ptm_from_params(PauliChannelParams(0, 0, 0, 0))
    code = Code.random(rng, size=2, n=2)
    povm = Povm.random(rng, size=3, dim=4)
    probs = outcome_probabilities(tracing, code, povm)
    for i in range(code.size):
        for j in range(1, povm.size + 1):
            expected = np.trace(povm.elements[j - 1]).real / 4.0
            assert probs[i, j] == pytest.approx(expected, abs=1e-12)


def test_outcome_probabilities_sum_to_one():
    rng = np.random.default_rng(7)
    for n in (1, 2, 3):
        phi, _, _, code, povm = _instance(rng, n)
        probs = outcome_probabilities(phi, code, povm)
        assert probs.shape == (code.size, povm.size + 1)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)
        assert probs.min() >= -1e-12


def test_rescaling_identity_trivial_scalings():
    rng = np.random.default_rng(8)
    phi, _, _, code, povm = _instance(rng, 2)
    dev = verify_rescaling_identity(phi, phi, np.eye(2), np.eye(2), code, povm)
    assert dev <= 1e-14


def test_rescaling_identity_blocks():
    rng = np.random.default_rng(9)
    for n in (1, 2, 3):
        for _ in range(10):
            phi, psi, pair, code, povm = _instance(rng, n)
            dev = verify_rescaling_identity(phi, psi, pair.a, pair.b, code, povm)
            assert dev <= 1e-11


def test_rescaling_identity_gad():
    rng = np.random.default_rng(10)
    params = gad_params(0.3, 1.0)
    for n in (1, 2):
        phi, psi, pair, code, povm = _instance(rng, n, params=params)
        assert verify_rescaling_identity(phi, psi, pair.a, pair.b, code, povm) <= 1e-11


def test_success_probability_trivial_and_scalar():
    rng = np.random.default_rng(11)
    code = Code.random(rng, size=2, n=2)
    prob, bound = success_probability(code, 0, np.eye(2), np.eye(2))
    assert prob == pytest.approx(1.0, abs=1e-14)
    assert bound == pytest.approx(1.0, abs=1e-14)
    # scalar operators saturate the bound exactly
    prob, bound = success_probability(code, 0, 1.3 * np.eye(2), 0.6 * np.eye(2))
    assert prob == pytest.approx(bound, rel=1e-12)


def test_success_probability_gad_worst_codeword():
    rng = np.random.default_rng(12)
    pair = family_scaling_pair(gad_params(0.3, 1.0))
    code = Code.random(rng, size=6, n=2)
    for i in range(code.size):
        prob, bound = success_probability(code, i, pair.a, pair.b)
        assert prob >= bound - 1e-12


def test_success_probabilities_are_the_per_codeword_formula():
    # one stacked call gives each codeword's 1/(tr[B^n rho_i B'^n] |A|^2n)
    # and the bound (|A||B|)^(-2n), bit for bit
    rng = np.random.default_rng(14)
    for n in (1, 2, 3):
        _, _, pair, code, _ = _instance(rng, n)
        probs, bound = success_probabilities(code, pair.a, pair.b)
        traces = code_scaling_traces(code, pair.b)
        assert bound == (operator_norm(pair.a) * operator_norm(pair.b)) ** (-2 * n)
        for i in range(code.size):
            assert probs[i] == 1.0 / (traces[i] * operator_norm(pair.a) ** (2 * n))
            assert success_probability(code, i, pair.a, pair.b) == (probs[i], bound)


def test_success_probabilities_name_the_codeword_below_the_bound():
    # a factor of trace 2, not a state, halves its codeword's probability
    # below the bound 1 of identity scalings
    factors = np.array(Code.random(np.random.default_rng(15), size=3, n=2).factors)
    factors[1, 1] = np.diag([2.0, 0.0])
    with pytest.raises(AssertionError, match="^codeword 1: success probability 0.5 "
                                             "fell below bound 1$"):
        success_probabilities(Code(factors), np.eye(2), np.eye(2))


def test_rate_penalty_takes_one_stacked_call_per_shape_group(monkeypatch):
    # the per-use rate penalty check computes the codeword traces once and
    # the two operator norms once for each group of its 50 instances per n
    # that share a code size
    rng = np.random.default_rng(7)
    groups = sum(len({len(code) for _, code, _ in verify._protocol_draws(rng, n, 50)})
                 for n in (1, 2, 3))
    assert groups == 9
    calls = []
    traces, norm = protocol.code_scaling_traces, protocol.operator_norm

    def counted(name, func):
        def wrapper(*args):
            calls.append(name)
            return func(*args)
        return wrapper

    monkeypatch.setattr(protocol, "code_scaling_traces", counted("traces", traces))
    monkeypatch.setattr(protocol, "operator_norm", counted("norm", norm))
    result = verify._check_rate_penalty(np.random.default_rng(7))
    assert result.passed
    assert calls.count("traces") == groups and calls.count("norm") == 2 * groups


def test_rate_penalty_consistency():
    rng = np.random.default_rng(13)
    for n in (1, 2, 3):
        for _ in range(10):
            _, _, pair, code, _ = _instance(rng, n)
            for i in range(code.size):
                prob, _ = success_probability(code, i, pair.a, pair.b)
                assert np.log2(prob) / n >= -2 * np.log2(pair.norm_ab) - 1e-9


# ---------------------------------------------------------------------------
# the stacked kernels against the per-element loops they replaced


def _ref_codeword_output(ptm, factors):
    return reduce(np.kron, [apply_channel_matrix(ptm, f) for f in factors])


def _ref_outcome_probabilities(channel, code, povm):
    ptm = _as_ptm(channel)
    probs = np.empty((code.size, povm.size + 1))
    for i in range(code.size):
        out = _ref_codeword_output(ptm, code.factors[i])
        probs[i, 0] = np.trace(out @ povm.completion).real
        for j in range(povm.size):
            probs[i, j + 1] = np.trace(out @ povm.elements[j]).real
    return probs


def _ref_code_scaling_traces(code, B):
    traces = np.empty(code.size)
    for i in range(code.size):
        traces[i] = np.prod([np.trace(apply_scaling(B, f)).real for f in code.factors[i]])
    return traces


def _ref_modify_code(code, B):
    factors = np.empty_like(code.factors)
    for i in range(code.size):
        for k in range(code.n):
            f = apply_scaling(B, code.factors[i, k])
            factors[i, k] = f / np.trace(f).real
    return factors


def _ref_modify_povm(povm, A):
    n = round(np.log2(povm.dim))
    a_n = reduce(np.kron, [A] * n)
    scale = operator_norm(A) ** (2 * n)
    return np.array([a_n.conj().T @ E @ a_n / scale for E in povm.elements])


def _ref_min_eigenvalue(povm):
    lows = [np.linalg.eigvalsh(E)[0].real for E in povm.elements]
    lows.append(np.linalg.eigvalsh(povm.completion)[0].real)
    return float(min(lows))


def _ref_code_factors(rng, size, n):
    return np.array([[random_densities(rng, 1)[0] for _ in range(n)] for _ in range(size)])


def _ref_povm_elements(rng, size, dim):
    raws = []
    for _ in range(size):
        g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        raws.append(g @ g.conj().T)
    w, V = np.linalg.eigh(sum(raws))
    inv_sqrt = (V / np.sqrt(w)) @ V.conj().T
    return np.array([inv_sqrt @ R @ inv_sqrt for R in raws])


def _generator_state(rng):
    return rng.bit_generator.state["state"]


def test_random_code_and_povm_match_the_sequential_draws():
    for n in (1, 2, 3):
        for size in (1, 2, 4):
            fast, slow = np.random.default_rng(60 + n), np.random.default_rng(60 + n)
            code = Code.random(fast, size=size, n=n)
            povm = Povm.random(fast, size=size, dim=2**n)
            factors = _ref_code_factors(slow, size, n)
            elements = _ref_povm_elements(slow, size, 2**n)
            assert code.factors.tobytes() == factors.tobytes()
            assert povm.elements.tobytes() == elements.tobytes()
            assert _generator_state(fast) == _generator_state(slow)


def _random_interior_params(rng):
    while True:
        l1, l2, l3 = rng.uniform(-1, 1, 3)
        t3 = rng.uniform(-1, 1)
        if abs(t3) + abs(l3) >= 0.98:
            continue
        if 1 + l3 < np.hypot(t3, l1 + l2) + 1e-6 or 1 - l3 < np.hypot(t3, l1 - l2) + 1e-6:
            continue
        return PauliChannelParams(l1, l2, l3, t3)


def test_stacked_kernels_match_the_per_element_loops():
    rng = np.random.default_rng(61)
    for n in (1, 2, 3):
        for _ in range(20):
            params = _random_interior_params(rng)
            phi, psi, pair, code, povm = _instance(rng, n, params=params)
            # a completion that is not zero, so column 0 is exercised
            povm = Povm(povm.elements * rng.uniform(0.5, 1.0))
            for channel in (phi, psi):
                np.testing.assert_allclose(outcome_probabilities(channel, code, povm),
                                           _ref_outcome_probabilities(channel, code, povm),
                                           rtol=0, atol=1e-14)
            np.testing.assert_allclose(code_scaling_traces(code, pair.b),
                                       _ref_code_scaling_traces(code, pair.b),
                                       rtol=1e-14, atol=0)
            np.testing.assert_allclose(modify_code(code, pair.b).factors,
                                       _ref_modify_code(code, pair.b), rtol=0, atol=1e-14)
            modified = modify_povm(povm, pair.a)
            np.testing.assert_allclose(modified.elements, _ref_modify_povm(povm, pair.a),
                                       rtol=0, atol=1e-14)
            for p in (povm, modified):
                assert abs(p.min_eigenvalue() - _ref_min_eigenvalue(p)) <= 1e-14
            for i in range(code.size):
                np.testing.assert_allclose(code.codeword(i),
                                           reduce(np.kron, code.factors[i]), rtol=0, atol=0)


def _general_scalings(rng, count):
    # invertible, with complex off-diagonal entries
    return (rng.normal(size=(count, 2, 2)) + 1j * rng.normal(size=(count, 2, 2))
            + 2 * np.eye(2))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_stacked_protocol_functions_match_the_single_calls(n):
    # every (code size, POVM size) the verify suite draws, and size-1 codes
    # and POVMs, where einsum sums a single instance in another order
    rng = np.random.default_rng(68 + n)
    for size, outcomes in [(1, 1), (1, 3), (2, 1), (2, 2), (3, 4), (4, 3)]:
        count = 6
        params = [_random_interior_params(rng) for _ in range(count)]
        pairs = [family_scaling_pair(p) for p in params]
        phis = np.array([ptm_from_params(p).ptm for p in params])
        psis = np.array([upsilon_ptm(p, pair) for p, pair in zip(params, pairs)])
        code = Code(np.array([Code.random(rng, size, n).factors for _ in range(count)]))
        ginibre = np.array([random_ginibre(rng, outcomes, 2**n) for _ in range(count)])
        povm = Povm.from_ginibre(ginibre)
        a = np.array([p.a for p in pairs])
        b = np.array([p.b for p in pairs])
        a_gen, b_gen = _general_scalings(rng, count), _general_scalings(rng, count)
        singles = [(Code(code.factors[k]), Povm.from_ginibre(ginibre[k]))
                   for k in range(count)]
        stacked = {
            "elements": povm.elements,
            "codeword": code.codeword(size - 1),
            "min_eigenvalue": povm.min_eigenvalue(),
            "with_completion": povm.with_completion(),
            "outcome_phi": outcome_probabilities(phis, code, povm),
            "outcome_psi": outcome_probabilities(psis, code, povm),
        }
        single = {
            "elements": [m.elements for _, m in singles],
            "codeword": [c.codeword(size - 1) for c, _ in singles],
            "min_eigenvalue": [m.min_eigenvalue() for _, m in singles],
            "with_completion": [m.with_completion() for _, m in singles],
            "outcome_phi": [outcome_probabilities(phis[k], c, m)
                            for k, (c, m) in enumerate(singles)],
            "outcome_psi": [outcome_probabilities(psis[k], c, m)
                            for k, (c, m) in enumerate(singles)],
        }
        for tag, A, B in (("family", a, b), ("general", a_gen, b_gen)):
            probs, bound = success_probabilities(code, A, B)
            stacked |= {
                f"modify_code_{tag}": modify_code(code, B).factors,
                f"traces_{tag}": code_scaling_traces(code, B),
                f"modify_povm_{tag}": modify_povm(povm, A).elements,
                f"tolerance_{tag}": completion_tolerance(A, n),
                f"rescaling_{tag}": verify_rescaling_identity(phis, psis, A, B, code, povm),
                f"success_{tag}": probs,
                f"bound_{tag}": bound,
                f"success_one_{tag}": success_probability(code, 0, A, B)[0],
            }
            each = list(zip(singles, phis, psis, A, B))
            single |= {
                f"modify_code_{tag}": [modify_code(c, Bk).factors
                                       for (c, _), _, _, _, Bk in each],
                f"traces_{tag}": [code_scaling_traces(c, Bk) for (c, _), _, _, _, Bk in each],
                f"modify_povm_{tag}": [modify_povm(m, Ak).elements
                                       for (_, m), _, _, Ak, _ in each],
                f"tolerance_{tag}": [completion_tolerance(Ak, n) for Ak in A],
                f"rescaling_{tag}": [verify_rescaling_identity(phi, psi, Ak, Bk, c, m)
                                     for (c, m), phi, psi, Ak, Bk in each],
                f"success_{tag}": [success_probabilities(c, Ak, Bk)[0]
                                   for (c, _), _, _, Ak, Bk in each],
                f"bound_{tag}": [success_probabilities(c, Ak, Bk)[1]
                                 for (c, _), _, _, Ak, Bk in each],
                f"success_one_{tag}": [success_probability(c, 0, Ak, Bk)[0]
                                       for (c, _), _, _, Ak, Bk in each],
            }
        for name, value in stacked.items():
            assert len(value) == count
            for k in range(count):
                assert value[k].tobytes() == np.asarray(single[name][k]).tobytes(), name


def test_stacked_calls_name_the_failing_instance():
    rng = np.random.default_rng(72)
    code = Code(np.array([Code.random(rng, size=2, n=1).factors for _ in range(3)]))
    povm = Povm(np.array([Povm.random(rng, size=2, dim=2).elements for _ in range(3)]))
    # instance 1 doubles its elements, so its completion is -I
    povm = Povm(povm.elements * np.array([1.0, 2.0, 1.0])[:, None, None, None])
    identities = np.stack([np.eye(2)] * 3)
    with pytest.raises(ValueError, match=r"^instance 1: modified completion element "
                                         r"has eigenvalue -1\.000e\+00"):
        modify_povm(povm, identities)
    factors = np.array(code.factors)
    factors[2, 1, 0] = np.diag([2.0, 0.0])
    with pytest.raises(AssertionError, match=r"^instance 2: codeword 1: success "
                                             r"probability 0.5 fell below bound 1$"):
        success_probabilities(Code(factors), identities, identities)


def test_stacks_must_pair_instance_for_instance():
    rng = np.random.default_rng(73)
    code = Code(np.array([Code.random(rng, size=2, n=1).factors for _ in range(3)]))
    povm = Povm(np.array([Povm.random(rng, size=2, dim=2).elements for _ in range(2)]))
    with pytest.raises(ValueError, match=r"\(2, 2, 2, 2\).*\(3, 2, 1, 2, 2\)"):
        outcome_probabilities(np.stack([np.eye(4)] * 3), code, povm)
    for scalings in (np.eye(2), np.stack([np.eye(2)] * 2)):
        with pytest.raises(ValueError, match=r"2x2.*\(3, 2, 2\)"):
            code_scaling_traces(code, scalings)
    for channels in (np.eye(4), np.stack([np.eye(4)] * 2)):
        with pytest.raises(ValueError, match=r"4x4.*\(3, 4, 4\)"):
            outcome_probabilities(channels, code, Povm(np.array([povm.elements[0]] * 3)))


# ---------------------------------------------------------------------------
# shape errors name the shapes instead of failing inside numpy


def test_code_rejects_an_empty_code():
    # a code of no codewords used to fail later, inside a numpy reduction
    with pytest.raises(ValueError, match=r"size >= 1, got \(0, 2, 2, 2\)"):
        Code.random(np.random.default_rng(65), 0, 2)
    with pytest.raises(ValueError, match="size >= 1"):
        Code(np.zeros((0, 1, 2, 2)))


def test_success_probability_rejects_a_codeword_out_of_range():
    rng = np.random.default_rng(67)
    code = Code.random(rng, size=2, n=1)
    for i in (-1, 2):
        with pytest.raises(ValueError, match=r"codeword index i = .* is outside 0\.\.1"):
            success_probability(code, i, np.eye(2), np.eye(2))


def test_code_rejects_block_length_zero():
    with pytest.raises(ValueError, match=r"block length.*\(2, 0, 2, 2\)"):
        Code(np.zeros((2, 0, 2, 2)))


def test_povm_rejects_a_dimension_that_is_not_a_power_of_two():
    with pytest.raises(ValueError, match=r"2\^n.*\(2, 3, 3\)"):
        Povm(np.zeros((2, 3, 3)))


def test_random_povm_rejects_size_zero():
    # the normalization would divide by the eigenvalues of an empty sum
    rng = np.random.default_rng(69)
    with pytest.raises(ValueError, match=r"N >= 1, got N = 0"):
        Povm.random(rng, 0, 2)
    with pytest.raises(ValueError, match=r"\(3, 0, 4, 4\)"):
        Povm.from_ginibre(np.zeros((3, 0, 4, 4)))


def test_povm_rejects_a_dimension_above_the_block_length_cap():
    with pytest.raises(ValueError, match=r"2\^n.*\(2, 16, 16\)"):
        Povm(np.zeros((2, 16, 16)))


def test_outcome_probabilities_reject_a_mismatched_povm():
    rng = np.random.default_rng(62)
    phi, _, _, code, _ = _instance(rng, 2)
    povm = Povm.random(rng, size=3, dim=8)
    with pytest.raises(ValueError, match=r"\(3, 8, 8\).*\(3, 2, 2, 2\)"):
        outcome_probabilities(phi, code, povm)


def test_rescaling_identity_rejects_a_mismatched_povm():
    rng = np.random.default_rng(63)
    phi, psi, pair, code, _ = _instance(rng, 3)
    povm = Povm.random(rng, size=2, dim=2)
    with pytest.raises(ValueError, match=r"\(2, 2, 2\).*\(3, 3, 2, 2\)"):
        verify_rescaling_identity(phi, psi, pair.a, pair.b, code, povm)


def test_scalings_must_be_single_2x2_operators():
    # a stack of operators would broadcast over the factors silently
    rng = np.random.default_rng(64)
    _, _, _, code, povm = _instance(rng, 2)
    stacked = np.broadcast_to(np.eye(2), (3, 1, 2, 2))
    for call in (lambda: modify_code(code, stacked),
                 lambda: code_scaling_traces(code, stacked),
                 lambda: modify_povm(povm, stacked)):
        with pytest.raises(ValueError, match=r"2x2.*\(3, 1, 2, 2\)"):
            call()
