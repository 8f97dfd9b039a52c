"""Desk-scale checks of the modified coding protocol.

Given a channel Phi and a scaling pair (A, B) with Psi = A . Phi . B a
channel, an optimal code/measurement for Psi can be transported to Phi:
codewords are conjugated by B (and renormalized), measurement elements
by A' (and divided by |A|^2n, with a completion element soaking up the
slack).  The outcome probabilities of the modified protocol are then an
exact rescaling of the originals, and the success probability is at
least (|A||B|)^(-2n).  These identities are verified on explicit tensor
product instances at block lengths n <= 3 (64x64 matrices at most).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from .core import (
    ChannelLike,
    _as_ptm,
    apply_channel_matrix,
    apply_scaling,
    operator_norm,
    random_density,
)

MAX_BLOCK_LENGTH = 3
POVM_PSD_TOL = 1e-10


def _kron_all(mats) -> np.ndarray:
    return reduce(np.kron, mats)


@dataclass(frozen=True)
class Code:
    """Codewords as explicit tensor products of single-qubit states.

    ``factors`` has shape (size, n, 2, 2); codeword i is the Kronecker
    product of its n factors, each a trace-1 PSD matrix.
    """

    factors: np.ndarray

    def __post_init__(self):
        f = np.array(self.factors, dtype=complex)
        if f.ndim != 4 or f.shape[2:] != (2, 2):
            raise ValueError(f"factors must have shape (size, n, 2, 2), got {f.shape}")
        if f.shape[1] > MAX_BLOCK_LENGTH:
            raise ValueError(f"block length capped at {MAX_BLOCK_LENGTH}")
        f.flags.writeable = False
        object.__setattr__(self, "factors", f)

    @property
    def size(self) -> int:
        return self.factors.shape[0]

    @property
    def n(self) -> int:
        return self.factors.shape[1]

    def codeword(self, i: int) -> np.ndarray:
        return _kron_all(self.factors[i])

    @classmethod
    def random(cls, rng: np.random.Generator, size: int, n: int) -> "Code":
        factors = np.array([[random_density(rng) for _ in range(n)]
                            for _ in range(size)])
        return cls(factors)


@dataclass(frozen=True)
class Povm:
    """Measurement elements M_1..M_N; the completion I - sum M_j is
    element 0 and is guaranteed PSD for valid instances."""

    elements: np.ndarray  # (N, d, d)

    def __post_init__(self):
        e = np.array(self.elements, dtype=complex)
        if e.ndim != 3 or e.shape[1] != e.shape[2]:
            raise ValueError(f"elements must have shape (N, d, d), got {e.shape}")
        e.flags.writeable = False
        object.__setattr__(self, "elements", e)

    @property
    def dim(self) -> int:
        return self.elements.shape[1]

    @property
    def size(self) -> int:
        return self.elements.shape[0]

    @property
    def completion(self) -> np.ndarray:
        return np.eye(self.dim) - self.elements.sum(axis=0)

    def min_eigenvalue(self) -> float:
        """Smallest eigenvalue over all elements and the completion."""
        lows = [np.linalg.eigvalsh(E)[0].real for E in self.elements]
        lows.append(np.linalg.eigvalsh(self.completion)[0].real)
        return float(min(lows))

    @classmethod
    def random(cls, rng: np.random.Generator, size: int, dim: int) -> "Povm":
        """Random PSD matrices normalized against their sum, so the
        elements resolve the identity exactly (completion zero)."""
        raws = []
        for _ in range(size):
            g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            raws.append(g @ g.conj().T)
        total = sum(raws)
        w, V = np.linalg.eigh(total)
        inv_sqrt = (V / np.sqrt(w)) @ V.conj().T
        return cls(np.array([inv_sqrt @ R @ inv_sqrt for R in raws]))


def modify_code(code: Code, scaling: np.ndarray) -> Code:
    """Conjugate every codeword factor by ``scaling`` and renormalize.

    Normalization distributes over the tensor product, so the product
    structure is preserved exactly.
    """
    B = np.asarray(scaling, dtype=complex)
    if abs(np.linalg.det(B)) < 1e-14:
        raise ValueError("scaling operator must be invertible")
    factors = np.empty_like(code.factors)
    for i in range(code.size):
        for k in range(code.n):
            f = apply_scaling(B, code.factors[i, k])
            factors[i, k] = f / np.trace(f).real
    return Code(factors)


def code_scaling_traces(code: Code, scaling: np.ndarray) -> np.ndarray:
    """tr[B^(x)n rho_i B'^(x)n] for every codeword, via per-factor traces."""
    B = np.asarray(scaling, dtype=complex)
    traces = np.empty(code.size)
    for i in range(code.size):
        per_factor = [np.trace(apply_scaling(B, f)).real for f in code.factors[i]]
        traces[i] = np.prod(per_factor)
    return traces


def modify_povm(povm: Povm, scaling: np.ndarray) -> Povm:
    """Elements A'^(x)n M_j A^(x)n / |A|^(2n) plus PSD completion.

    The rescaling keeps the total below the identity, so the completion
    element stays PSD; a violation beyond tolerance indicates a bug and
    raises.
    """
    A = np.asarray(scaling, dtype=complex)
    n = round(np.log2(povm.dim))
    a_n = _kron_all([A] * n)
    scale = operator_norm(A) ** (2 * n)
    elements = np.array([a_n.conj().T @ E @ a_n / scale for E in povm.elements])
    modified = Povm(elements)
    low = np.linalg.eigvalsh(modified.completion)[0].real
    if low < -POVM_PSD_TOL:
        raise ValueError(
            f"modified completion element has eigenvalue {low:.3e}; "
            "the rescaled elements exceed the identity"
        )
    return modified


def apply_channel_blockwise(channel: ChannelLike, code: Code, i: int) -> np.ndarray:
    """Phi^(x)n acting on codeword i (factor by factor, since both the
    channel action and the codeword factorize)."""
    ptm = _as_ptm(channel)
    outs = [apply_channel_matrix(ptm, f) for f in code.factors[i]]
    return _kron_all(outs)


def outcome_probability(channel: ChannelLike, code: Code, i: int,
                        povm: Povm, j: int) -> float:
    """Born probability tr[Phi^(x)n[rho_i] M_j]; j = 0 addresses the
    completion element."""
    out = apply_channel_blockwise(channel, code, i)
    element = povm.completion if j == 0 else povm.elements[j - 1]
    return float(np.trace(out @ element).real)


def outcome_probabilities(channel: ChannelLike, code: Code, povm: Povm) -> np.ndarray:
    """(size, N+1) matrix of outcome probabilities, column 0 the
    completion element; each row sums to 1."""
    probs = np.empty((code.size, povm.size + 1))
    for i in range(code.size):
        out = apply_channel_blockwise(channel, code, i)
        probs[i, 0] = np.trace(out @ povm.completion).real
        for j in range(povm.size):
            probs[i, j + 1] = np.trace(out @ povm.elements[j]).real
    return probs


def verify_rescaling_identity(phi: ChannelLike, psi: ChannelLike,
                              a_op: np.ndarray, b_op: np.ndarray,
                              code: Code, povm: Povm) -> float:
    """Max deviation of p_tilde(j|i) * tr[B^n rho_i B'^n] * |A|^(2n)
    from the original-protocol probability p_psi(j|i), over all pairs
    with j != 0."""
    n = code.n
    denom = code_scaling_traces(code, b_op) * operator_norm(a_op) ** (2 * n)
    modified = outcome_probabilities(phi, modify_code(code, b_op),
                                     modify_povm(povm, a_op))[:, 1:]
    original = outcome_probabilities(psi, code, povm)[:, 1:]
    return float(np.abs(modified * denom[:, None] - original).max())


def success_probability(code: Code, i: int, a_op: np.ndarray,
                        b_op: np.ndarray) -> tuple[float, float]:
    """Probability of a nonzero outcome in the modified protocol and its
    lower bound (|A||B|)^(-2n)."""
    n = code.n
    denom = code_scaling_traces(code, b_op)[i] * operator_norm(a_op) ** (2 * n)
    prob = 1.0 / denom
    bound = (operator_norm(a_op) * operator_norm(b_op)) ** (-2 * n)
    if prob < bound - 1e-12:
        raise AssertionError(
            f"success probability {prob:.12g} fell below bound {bound:.12g}"
        )
    return prob, bound
