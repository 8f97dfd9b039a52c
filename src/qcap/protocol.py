"""Desk-scale checks of the modified coding protocol.

Given a channel Phi and a scaling pair (A, B) with Psi = A . Phi . B a
channel, an optimal code/measurement for Psi can be transported to Phi:
codewords are conjugated by B (and renormalized), measurement elements
by A' (and divided by |A|^2n, with a completion element soaking up the
slack).  The outcome probabilities of the modified protocol are then an
exact rescaling of the originals, and the success probability is at
least (|A||B|)^(-2n).  These identities are verified on explicit tensor
product instances at block lengths n <= 3 (64x64 matrices at most).

Every function works on a whole code or POVM at once: the channel acts
on all codeword factors in one contraction, the codewords are one
stacked Kronecker product, and all Born probabilities, the completion
element's included, come from one trace contraction against the
stacked elements.  Codes and POVMs check their shapes, and every
function that pairs a code with a POVM checks that their dimensions
match, so no contraction broadcasts a mismatch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    ChannelLike,
    _as_ptm,
    _dagger,
    apply_channel_matrix,
    apply_scaling,
    operator_norm,
    random_densities,
    random_ginibre,
)

MAX_BLOCK_LENGTH = 3
POVM_PSD_TOL = 1e-10


def _kron_stack(mats: np.ndarray) -> np.ndarray:
    """Kronecker product over axis -3: (..., n, 2, 2) -> (..., 2^n, 2^n),
    folded from the left like ``reduce(np.kron, ...)``."""
    out = mats[..., 0, :, :]
    for k in range(1, mats.shape[-3]):
        d = out.shape[-1]
        out = (out[..., :, None, :, None] * mats[..., None, k, :, None, :]
               ).reshape(*out.shape[:-2], 2 * d, 2 * d)
    return out


def _scaling_operator(scaling) -> np.ndarray:
    op = np.asarray(scaling, dtype=complex)
    if op.shape != (2, 2):
        raise ValueError(f"scaling operator must be 2x2, got shape {op.shape}")
    return op


@dataclass(frozen=True)
class Code:
    """Codewords as explicit tensor products of single-qubit states.

    ``factors`` has shape (size, n, 2, 2) with size >= 1 and
    1 <= n <= MAX_BLOCK_LENGTH; codeword i is the Kronecker product of its
    n factors, each a trace-1 PSD matrix.
    """

    factors: np.ndarray

    def __post_init__(self):
        f = np.array(self.factors, dtype=complex)
        if f.ndim != 4 or f.shape[2:] != (2, 2) or f.shape[0] == 0:
            raise ValueError(f"factors must have shape (size, n, 2, 2) with size >= 1, "
                             f"got {f.shape}")
        if not 1 <= f.shape[1] <= MAX_BLOCK_LENGTH:
            raise ValueError(f"block length n must be 1..{MAX_BLOCK_LENGTH}, "
                             f"got factors of shape {f.shape}")
        f.flags.writeable = False
        object.__setattr__(self, "factors", f)

    @property
    def size(self) -> int:
        return self.factors.shape[0]

    @property
    def n(self) -> int:
        return self.factors.shape[1]

    def codeword(self, i: int) -> np.ndarray:
        return _kron_stack(self.factors[i])

    @classmethod
    def random(cls, rng: np.random.Generator, size: int, n: int) -> "Code":
        """Factors drawn by ``random_density``, codeword by codeword."""
        return cls(random_densities(rng, size * n).reshape(size, n, 2, 2))


@dataclass(frozen=True)
class Povm:
    """Measurement elements M_1..M_N on 2^n dimensions, 1 <= n <=
    MAX_BLOCK_LENGTH; the completion I - sum M_j is element 0 and is
    guaranteed PSD for valid instances."""

    elements: np.ndarray  # (N, d, d)

    def __post_init__(self):
        e = np.array(self.elements, dtype=complex)
        if e.ndim != 3 or e.shape[1] != e.shape[2]:
            raise ValueError(f"elements must have shape (N, d, d), got {e.shape}")
        if e.shape[1] not in (2**n for n in range(1, MAX_BLOCK_LENGTH + 1)):
            raise ValueError(f"POVM dimension must be 2^n with 1 <= n <= "
                             f"{MAX_BLOCK_LENGTH}, got elements of shape {e.shape}")
        e.flags.writeable = False
        object.__setattr__(self, "elements", e)

    @property
    def dim(self) -> int:
        return self.elements.shape[1]

    @property
    def n(self) -> int:
        """Block length the elements act on."""
        return self.dim.bit_length() - 1

    @property
    def size(self) -> int:
        return self.elements.shape[0]

    @property
    def completion(self) -> np.ndarray:
        return np.eye(self.dim) - self.elements.sum(axis=0)

    def with_completion(self) -> np.ndarray:
        """(N+1, d, d) stack: the completion, then M_1..M_N."""
        return np.concatenate([self.completion[None], self.elements])

    def min_eigenvalue(self) -> float:
        """Smallest eigenvalue over all elements and the completion."""
        return float(np.linalg.eigvalsh(self.with_completion())[:, 0].min())

    @classmethod
    def random(cls, rng: np.random.Generator, size: int, dim: int) -> "Povm":
        """Random PSD matrices normalized against their sum, so the
        elements resolve the identity exactly (completion zero)."""
        g = random_ginibre(rng, size, dim)
        raws = g @ _dagger(g)
        w, V = np.linalg.eigh(raws.sum(axis=0))
        inv_sqrt = (V / np.sqrt(w)) @ _dagger(V)
        return cls(inv_sqrt @ raws @ inv_sqrt)


def _check_pairing(code: Code, povm: Povm) -> None:
    if povm.dim != 2**code.n:
        raise ValueError(
            f"POVM elements of shape {povm.elements.shape} do not act on codewords "
            f"from factors of shape {code.factors.shape} (need dimension {2**code.n})"
        )


def _check_index(name: str, index: int, stop: int) -> None:
    if not 0 <= index < stop:  # a negative index would count from the end
        raise ValueError(f"{name} = {index} is outside 0..{stop - 1}")


def modify_code(code: Code, scaling: np.ndarray) -> Code:
    """Conjugate every codeword factor by ``scaling`` and renormalize.

    Normalization distributes over the tensor product, so the product
    structure is preserved exactly.
    """
    B = _scaling_operator(scaling)
    if abs(np.linalg.det(B)) < 1e-14:
        raise ValueError("scaling operator must be invertible")
    factors = apply_scaling(B, code.factors)
    return Code(factors / np.trace(factors, axis1=-2, axis2=-1).real[..., None, None])


def code_scaling_traces(code: Code, scaling: np.ndarray) -> np.ndarray:
    """tr[B^(x)n rho_i B'^(x)n] for every codeword, as the product of the
    per-factor traces tr[f B'B]."""
    B = _scaling_operator(scaling)
    per_factor = np.einsum("snij,ji->sn", code.factors, _dagger(B) @ B).real
    return per_factor.prod(axis=1)


def completion_tolerance(scaling: np.ndarray, n: int) -> float:
    """How far below 0 rounding may take the smallest eigenvalue of the
    completion that ``modify_povm`` builds with the 2x2 ``scaling`` at
    block length n.

    ``operator_norm`` takes |A|^2 = (tr + sqrt(tr^2 - 4 det))/2 from the
    Gram matrix A'A, and the discriminant cancels when the two singular
    values nearly coincide.  An error E = 4 eps tr^2 in it moves |A|^2,
    which is at least tr/2, by at most E / sqrt(max(disc, E)) / 2, and
    |A|^(2n) n times as much, relatively; the completion, whose
    eigenvalues lie in [0, 1], moves by as much.
    """
    A = np.asarray(scaling, dtype=complex)
    g = A.conj().T @ A
    tr = g[0, 0].real + g[1, 1].real
    disc = tr * tr - 4.0 * (g[0, 0] * g[1, 1] - g[0, 1] * g[1, 0]).real
    err = 4.0 * np.finfo(float).eps * tr * tr
    return POVM_PSD_TOL + n * err / (math.sqrt(max(disc, err)) * tr)


def modify_povm(povm: Povm, scaling: np.ndarray) -> Povm:
    """Elements A'^(x)n M_j A^(x)n / |A|^(2n) plus PSD completion.

    The rescaling keeps the total below the identity, so the completion
    element stays PSD; a violation beyond ``completion_tolerance``
    indicates a bug and raises.
    """
    A = _scaling_operator(scaling)
    n = povm.n
    a_n = _kron_stack(np.broadcast_to(A, (n, 2, 2)))
    scale = operator_norm(A) ** (2 * n)
    modified = Povm(_dagger(a_n) @ povm.elements @ a_n / scale)
    low = np.linalg.eigvalsh(modified.completion)[0].real
    if low < -completion_tolerance(A, n):
        raise ValueError(
            f"modified completion element has eigenvalue {low:.3e}; "
            "the rescaled elements exceed the identity"
        )
    return modified


def apply_channel_blockwise(channel: ChannelLike, code: Code, i: int) -> np.ndarray:
    """Phi^(x)n acting on codeword i (factor by factor, since both the
    channel action and the codeword factorize)."""
    _check_index("codeword index i", i, code.size)
    return _kron_stack(apply_channel_matrix(_as_ptm(channel), code.factors[i]))


def outcome_probability(channel: ChannelLike, code: Code, i: int,
                        povm: Povm, j: int) -> float:
    """Born probability tr[Phi^(x)n[rho_i] M_j]; j = 0 addresses the
    completion element and j = 1..N the N elements."""
    _check_pairing(code, povm)
    _check_index("outcome index j", j, povm.size + 1)
    out = apply_channel_blockwise(channel, code, i)
    element = povm.completion if j == 0 else povm.elements[j - 1]
    return float(np.trace(out @ element).real)


def outcome_probabilities(channel: ChannelLike, code: Code, povm: Povm) -> np.ndarray:
    """(size, N+1) matrix of outcome probabilities, column 0 the
    completion element; each row sums to 1."""
    _check_pairing(code, povm)
    # the channel acts on every factor of every codeword in one contraction
    outs = _kron_stack(apply_channel_matrix(_as_ptm(channel), code.factors))
    return np.einsum("sab,jba->sj", outs, povm.with_completion()).real


def verify_rescaling_identity(phi: ChannelLike, psi: ChannelLike,
                              a_op: np.ndarray, b_op: np.ndarray,
                              code: Code, povm: Povm) -> float:
    """Max deviation of p_tilde(j|i) * tr[B^n rho_i B'^n] * |A|^(2n)
    from the original-protocol probability p_psi(j|i), over all pairs
    with j != 0."""
    _check_pairing(code, povm)
    n = code.n
    denom = code_scaling_traces(code, b_op) * operator_norm(a_op) ** (2 * n)
    modified = outcome_probabilities(phi, modify_code(code, b_op),
                                     modify_povm(povm, a_op))[:, 1:]
    original = outcome_probabilities(psi, code, povm)[:, 1:]
    return float(np.abs(modified * denom[:, None] - original).max())


def success_probabilities(code: Code, a_op: np.ndarray,
                          b_op: np.ndarray) -> tuple[np.ndarray, float]:
    """Every codeword's probability 1/(tr[B^(x)n rho_i B'^(x)n] |A|^(2n)) of a
    nonzero outcome in the modified protocol, and their lower bound
    (|A||B|)^(-2n); the first codeword below it raises AssertionError."""
    n = code.n
    norm_a = operator_norm(a_op)
    probs = 1.0 / (code_scaling_traces(code, b_op) * norm_a ** (2 * n))
    bound = (norm_a * operator_norm(b_op)) ** (-2 * n)
    for i, prob in enumerate(probs):
        if prob < bound - 1e-12:
            raise AssertionError(f"codeword {i}: success probability {prob:.12g} "
                                 f"fell below bound {bound:.12g}")
    return probs, bound


def success_probability(code: Code, i: int, a_op: np.ndarray,
                        b_op: np.ndarray) -> tuple[float, float]:
    """Codeword i's entry of ``success_probabilities``, and the bound."""
    _check_index("codeword index i", i, code.size)
    probs, bound = success_probabilities(code, a_op, b_op)
    return probs[i], bound
