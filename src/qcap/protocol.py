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

Codes and POVMs may also be instance stacks: leading axes in front of
a code's (size, n, 2, 2) factors or a POVM's (N, d, d) elements index
independent instances of one shape.  Every function then takes a stack
of channel PTMs and of 2x2 scalings with the same leading axes, one per
instance, works on the whole stack in one call, and returns
per-instance arrays; each instance gets the bits of its own single call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    ChannelLike,
    _as_ptm,
    _dagger,
    _det_2x2,
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


def _scaling_operator(scaling, batch: tuple = ()) -> np.ndarray:
    """One 2x2 scaling operator per instance: shape batch + (2, 2)."""
    op = np.asarray(scaling, dtype=complex)
    if op.shape != (*batch, 2, 2):
        raise ValueError(f"scaling operator must be 2x2, one per instance, so of shape "
                         f"{(*batch, 2, 2)}, got shape {op.shape}")
    return op


def _channel_ptm(channel: ChannelLike, batch: tuple = ()) -> np.ndarray:
    """One channel PTM per instance: shape batch + (4, 4)."""
    ptm = _as_ptm(channel, stacked=True)
    if ptm.shape != (*batch, 4, 4):
        raise ValueError(f"channel must be one 4x4 PTM per instance, so of shape "
                         f"{(*batch, 4, 4)}, got shape {ptm.shape}")
    return ptm


def _power(x, k: int):
    """x ** k by Python's float power, elementwise on an array: numpy's
    ``power`` rounds some values differently, and a stacked call must
    give the bits of the single ones."""
    if np.ndim(x) == 0:
        return x ** k
    return np.array([v ** k for v in x.ravel().tolist()]).reshape(x.shape)


@dataclass(frozen=True)
class Code:
    """Codewords as explicit tensor products of single-qubit states.

    ``factors`` has shape (..., size, n, 2, 2) with size >= 1 and
    1 <= n <= MAX_BLOCK_LENGTH; codeword i is the Kronecker product of its
    n factors, each a trace-1 PSD matrix.  Leading axes, if any, index
    the instances of a stack of codes.
    """

    factors: np.ndarray

    def __post_init__(self):
        f = np.array(self.factors, dtype=complex)
        if f.ndim < 4 or f.shape[-2:] != (2, 2) or 0 in f.shape[:-3]:
            raise ValueError(f"factors must have shape (..., size, n, 2, 2) with no "
                             f"empty instance axis and size >= 1, got {f.shape}")
        if not 1 <= f.shape[-3] <= MAX_BLOCK_LENGTH:
            raise ValueError(f"block length n must be 1..{MAX_BLOCK_LENGTH}, "
                             f"got factors of shape {f.shape}")
        f.flags.writeable = False
        object.__setattr__(self, "factors", f)

    @property
    def batch_shape(self) -> tuple:
        """Shape of the instance axes; () for a single code."""
        return self.factors.shape[:-4]

    @property
    def size(self) -> int:
        return self.factors.shape[-4]

    @property
    def n(self) -> int:
        return self.factors.shape[-3]

    def codeword(self, i: int) -> np.ndarray:
        return _kron_stack(self.factors[..., i, :, :, :])

    @classmethod
    def random(cls, rng: np.random.Generator, size: int, n: int) -> "Code":
        """Factors drawn by ``random_densities``, codeword by codeword."""
        return cls(random_densities(rng, size * n).reshape(size, n, 2, 2))


@dataclass(frozen=True)
class Povm:
    """Measurement elements M_1..M_N on 2^n dimensions, 1 <= n <=
    MAX_BLOCK_LENGTH; the completion I - sum M_j is element 0 and is
    guaranteed PSD for valid instances.  Leading axes in front of the
    (N, d, d) elements, if any, index the instances of a stack of POVMs."""

    elements: np.ndarray  # (..., N, d, d)

    def __post_init__(self):
        e = np.array(self.elements, dtype=complex)
        if e.ndim < 3 or e.shape[-1] != e.shape[-2]:
            raise ValueError(f"elements must have shape (..., N, d, d), got {e.shape}")
        if e.shape[-1] not in (2**n for n in range(1, MAX_BLOCK_LENGTH + 1)):
            raise ValueError(f"POVM dimension must be 2^n with 1 <= n <= "
                             f"{MAX_BLOCK_LENGTH}, got elements of shape {e.shape}")
        e.flags.writeable = False
        object.__setattr__(self, "elements", e)

    @property
    def batch_shape(self) -> tuple:
        """Shape of the instance axes; () for a single POVM."""
        return self.elements.shape[:-3]

    @property
    def dim(self) -> int:
        return self.elements.shape[-1]

    @property
    def n(self) -> int:
        """Block length the elements act on."""
        return self.dim.bit_length() - 1

    @property
    def size(self) -> int:
        return self.elements.shape[-3]

    @property
    def completion(self) -> np.ndarray:
        return np.eye(self.dim) - self.elements.sum(axis=-3)

    def with_completion(self) -> np.ndarray:
        """(..., N+1, d, d) stack: the completion, then M_1..M_N."""
        return np.concatenate([self.completion[..., None, :, :], self.elements], axis=-3)

    def min_eigenvalue(self):
        """Smallest eigenvalue over all elements and the completion; an
        array of one per instance for a stack."""
        low = np.linalg.eigvalsh(self.with_completion())[..., 0].min(axis=-1)
        return float(low) if low.ndim == 0 else low

    @classmethod
    def random(cls, rng: np.random.Generator, size: int, dim: int) -> "Povm":
        """Random PSD matrices normalized against their sum, so the
        elements resolve the identity exactly (completion zero)."""
        return cls.from_ginibre(random_ginibre(rng, size, dim))

    @classmethod
    def from_ginibre(cls, g) -> "Povm":
        """The POVM ``random`` builds from its (N, d, d) Ginibre draw, or
        a stack of them from a (..., N, d, d) stack of draws, N >= 1."""
        g = np.asarray(g, dtype=complex)
        if g.ndim >= 3 and g.shape[-3] == 0:
            raise ValueError(f"a random POVM needs size N >= 1, got N = 0 "
                             f"(draws of shape {g.shape})")
        raws = g @ _dagger(g)
        w, V = np.linalg.eigh(raws.sum(axis=-3))
        inv_sqrt = ((V / np.sqrt(w)[..., None, :]) @ _dagger(V))[..., None, :, :]
        return cls(inv_sqrt @ raws @ inv_sqrt)


def _check_pairing(code: Code, povm: Povm) -> None:
    if povm.dim != 2**code.n or povm.batch_shape != code.batch_shape:
        raise ValueError(
            f"POVM elements of shape {povm.elements.shape} do not act on codewords "
            f"from factors of shape {code.factors.shape} (need dimension {2**code.n} "
            "and the same instance axes)"
        )


def _check_index(name: str, index: int, stop: int) -> None:
    if not 0 <= index < stop:  # a negative index would count from the end
        raise ValueError(f"{name} = {index} is outside 0..{stop - 1}")


def modify_code(code: Code, scaling: np.ndarray) -> Code:
    """Conjugate every codeword factor by ``scaling`` and renormalize.

    Normalization distributes over the tensor product, so the product
    structure is preserved exactly.
    """
    B = _scaling_operator(scaling, code.batch_shape)
    if np.any(np.abs(np.linalg.det(B)) < 1e-14):
        raise ValueError("scaling operator must be invertible")
    factors = apply_scaling(B[..., None, None, :, :], code.factors)
    return Code(factors / np.trace(factors, axis1=-2, axis2=-1).real[..., None, None])


def code_scaling_traces(code: Code, scaling: np.ndarray) -> np.ndarray:
    """tr[B^(x)n rho_i B'^(x)n] for every codeword, as the product of the
    per-factor traces tr[f B'B]."""
    B = _scaling_operator(scaling, code.batch_shape)
    f, g = code.factors, (_dagger(B) @ B)[..., None, None, :, :]

    def term(i, j):  # real part of f_ij g_ji, as numpy's scalar product rounds it
        return f[..., i, j].real * g[..., j, i].real - f[..., i, j].imag * g[..., j, i].imag

    # summed row by row, as numpy's einsum sums one 2x2 trace; unlike
    # einsum, this order does not change when instance axes are present
    per_factor = (term(0, 0) + term(0, 1)) + (term(1, 0) + term(1, 1))
    return per_factor.prod(axis=-1)


def completion_tolerance(scaling: np.ndarray, n: int):
    """How far below 0 rounding may take the smallest eigenvalue of the
    completion that ``modify_povm`` builds with the 2x2 ``scaling`` at
    block length n; an array of one per operator for a (..., 2, 2) stack.

    ``operator_norm`` takes |A|^2 = (tr + sqrt(tr^2 - 4 det))/2 from the
    Gram matrix A'A, and the discriminant cancels when the two singular
    values nearly coincide.  An error E = 4 eps tr^2 in it moves |A|^2,
    which is at least tr/2, by at most E / sqrt(max(disc, E)) / 2, and
    |A|^(2n) n times as much, relatively; the completion, whose
    eigenvalues lie in [0, 1], moves by as much.
    """
    A = np.asarray(scaling, dtype=complex)
    g = _dagger(A) @ A
    tr = g[..., 0, 0].real + g[..., 1, 1].real
    disc = tr * tr - 4.0 * _det_2x2(g).real
    err = 4.0 * np.finfo(float).eps * tr * tr
    tol = POVM_PSD_TOL + n * err / (np.sqrt(np.maximum(disc, err)) * tr)
    return float(tol) if tol.ndim == 0 else tol


def _instance(index: int, batch: tuple) -> str:
    """Prefix naming the failing instance, by its flat index, in the error
    message of a stacked call."""
    return f"instance {index}: " if batch else ""


def modify_povm(povm: Povm, scaling: np.ndarray) -> Povm:
    """Elements A'^(x)n M_j A^(x)n / |A|^(2n) plus PSD completion.

    The rescaling keeps the total below the identity, so the completion
    element stays PSD; a violation beyond ``completion_tolerance``
    indicates a bug and raises, naming the first failing instance of a
    stack.
    """
    batch = povm.batch_shape
    A = _scaling_operator(scaling, batch)
    n = povm.n
    a_n = _kron_stack(np.broadcast_to(A[..., None, :, :], (*batch, n, 2, 2)))
    a_n = a_n[..., None, :, :]
    scale = np.asarray(_power(operator_norm(A), 2 * n))[..., None, None, None]
    modified = Povm(_dagger(a_n) @ povm.elements @ a_n / scale)
    low = np.linalg.eigvalsh(modified.completion)[..., 0]
    failed = np.flatnonzero(low < -completion_tolerance(A, n))
    if failed.size:
        k = failed[0]
        raise ValueError(
            f"{_instance(k, batch)}modified completion element has eigenvalue "
            f"{low.flat[k]:.3e}; the rescaled elements exceed the identity"
        )
    return modified


def outcome_probabilities(channel: ChannelLike, code: Code, povm: Povm) -> np.ndarray:
    """(..., size, N+1) Born probabilities tr[Phi^(x)n[rho_i] M_j], row i
    the codeword and column j the outcome: column 0 the completion
    element and columns 1..N the N elements.  Each row sums to 1."""
    _check_pairing(code, povm)
    # the channel acts on every factor of every codeword in one contraction
    ptm = _channel_ptm(channel, code.batch_shape)[..., None, None, :, :]
    outs = _kron_stack(apply_channel_matrix(ptm, code.factors))
    elements = povm.with_completion()
    if code.batch_shape and 1 in (code.size, povm.size + 1):
        # einsum drops a length-1 output axis of a single instance and then
        # sums in another order than over a stack; one call per instance
        # keeps the bits of the single calls
        probs = [np.einsum("sab,jba->sj", o, e) for o, e in
                 zip(outs.reshape(-1, *outs.shape[-3:]),
                     elements.reshape(-1, *elements.shape[-3:]))]
        return np.reshape(probs, (*code.batch_shape, code.size, povm.size + 1)).real
    return np.einsum("...sab,...jba->...sj", outs, elements).real


def verify_rescaling_identity(phi: ChannelLike, psi: ChannelLike,
                              a_op: np.ndarray, b_op: np.ndarray,
                              code: Code, povm: Povm):
    """Max deviation of p_tilde(j|i) * tr[B^n rho_i B'^n] * |A|^(2n)
    from the original-protocol probability p_psi(j|i), over all pairs
    with j != 0; an array of one per instance for stacks."""
    _check_pairing(code, povm)
    a_op = _scaling_operator(a_op, code.batch_shape)
    n = code.n
    scale = np.asarray(_power(operator_norm(a_op), 2 * n))[..., None]
    denom = code_scaling_traces(code, b_op) * scale
    modified = outcome_probabilities(phi, modify_code(code, b_op),
                                     modify_povm(povm, a_op))[..., 1:]
    original = outcome_probabilities(psi, code, povm)[..., 1:]
    dev = np.abs(modified * denom[..., None] - original).max(axis=(-2, -1))
    return float(dev) if dev.ndim == 0 else dev


def success_probabilities(code: Code, a_op: np.ndarray, b_op: np.ndarray):
    """Every codeword's probability 1/(tr[B^(x)n rho_i B'^(x)n] |A|^(2n)) of a
    nonzero outcome in the modified protocol, and their lower bound
    (|A||B|)^(-2n), with (..., size) and (...) arrays for stacks; the
    first codeword below it raises AssertionError."""
    batch = code.batch_shape
    a_op = _scaling_operator(a_op, batch)
    b_op = _scaling_operator(b_op, batch)
    n = code.n
    norm_a = operator_norm(a_op)
    scale = np.asarray(_power(norm_a, 2 * n))[..., None]
    probs = 1.0 / (code_scaling_traces(code, b_op) * scale)
    bound = _power(norm_a * operator_norm(b_op), -2 * n)
    low = np.flatnonzero(probs < np.asarray(bound)[..., None] - 1e-12)
    if low.size:
        k, i = divmod(int(low[0]), code.size)
        raise AssertionError(f"{_instance(k, batch)}codeword {i}: success probability "
                             f"{probs.flat[low[0]]:.12g} fell below bound "
                             f"{np.ravel(bound)[k]:.12g}")
    return probs, bound


def success_probability(code: Code, i: int, a_op: np.ndarray,
                        b_op: np.ndarray):
    """Codeword i's entry of ``success_probabilities``, and the bound."""
    _check_index("codeword index i", i, code.size)
    probs, bound = success_probabilities(code, a_op, b_op)
    return probs[..., i][()], bound
