from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest

from qcap.capacity import gad_params
from qcap.core import PauliChannelParams, operator_norm, ptm_from_params
from qcap.protocol import (
    POVM_PSD_TOL,
    Code,
    Povm,
    completion_tolerance,
    modify_code,
    modify_povm,
    outcome_probabilities,
    outcome_probability,
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
    for i in range(2):
        for j in (1, 2):
            expected = 1.0 if j - 1 == i else 0.0
            assert outcome_probability(ident, code, i, povm, j) \
                == pytest.approx(expected, abs=1e-14)


def test_outcome_probability_tracing_channel_uniform():
    rng = np.random.default_rng(6)
    tracing = ptm_from_params(PauliChannelParams(0, 0, 0, 0))
    code = Code.random(rng, size=2, n=2)
    povm = Povm.random(rng, size=3, dim=4)
    for i in range(code.size):
        for j in range(1, povm.size + 1):
            expected = np.trace(povm.elements[j - 1]).real / 4.0
            assert outcome_probability(tracing, code, i, povm, j) \
                == pytest.approx(expected, abs=1e-12)


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


def test_rate_penalty_consistency():
    rng = np.random.default_rng(13)
    for n in (1, 2, 3):
        for _ in range(10):
            _, _, pair, code, _ = _instance(rng, n)
            for i in range(code.size):
                prob, _ = success_probability(code, i, pair.a, pair.b)
                assert np.log2(prob) / n >= -2 * np.log2(pair.norm_ab) - 1e-9
