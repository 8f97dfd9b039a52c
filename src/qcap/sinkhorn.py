"""Scaling decomposition of interior qubit channels.

For an interior channel Phi there exist positive definite A, B such
that the sandwiched map

    Upsilon[X] = A Phi[B X B'] A'

is unital and trace preserving.  The four-parameter family admits a
closed form; arbitrary interior channels are handled by an alternating
fixed-point iteration.  The operator norms of A, B and their inverses
feed the capacity bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .core import (
    ChannelLike,
    NoConvergence,
    NotInterior,
    NotUnital,
    PauliChannelParams,
    QubitChannel,
    _as_ptm,
    apply_channel_matrix,
    gram_norm_2x2,
    inverse_2x2,
    is_interior,
    is_trace_preserving,
    is_unital,
    kraus_ptm,
    operator_norm,
    ptm_from_params,
)


@dataclass(frozen=True)
class ScalingPair:
    """Positive definite scaling operators with cached operator norms.

    A stacked pair holds (..., 2, 2) operators and (...) arrays of norms,
    one entry per instance (see ``from_operators`` and ``stack``).
    """

    a: np.ndarray
    b: np.ndarray
    norm_a: float
    norm_b: float
    norm_a_inv: float
    norm_b_inv: float
    iterations: Optional[int] = None

    @classmethod
    def from_operators(cls, a, b, iterations: Optional[int] = None) -> "ScalingPair":
        a = np.array(a, dtype=complex)
        b = np.array(b, dtype=complex)
        a.flags.writeable = False
        b.flags.writeable = False
        return cls(
            a=a,
            b=b,
            norm_a=operator_norm(a),
            norm_b=operator_norm(b),
            norm_a_inv=operator_norm(inverse_2x2(a)),
            norm_b_inv=operator_norm(inverse_2x2(b)),
            iterations=iterations,
        )

    @classmethod
    def stack(cls, pairs: Sequence["ScalingPair"]) -> "ScalingPair":
        """One stacked pair from k pairs: (k, 2, 2) operators and (k,)
        norms, each slice the bits of its pair."""
        a = np.stack([p.a for p in pairs])
        b = np.stack([p.b for p in pairs])
        a.flags.writeable = False
        b.flags.writeable = False
        norms = (np.array([getattr(p, name) for p in pairs])
                 for name in ("norm_a", "norm_b", "norm_a_inv", "norm_b_inv"))
        return cls(a, b, *norms)

    @property
    def norm_ab(self) -> float:
        return self.norm_a * self.norm_b

    @property
    def norm_ab_inv(self) -> float:
        return self.norm_a_inv * self.norm_b_inv


@dataclass(frozen=True)
class UnitalForm:
    """Diagonal parameters of the unitalized channel.

    ``lt1..lt3`` are the signed diagonal entries of the unital 3x3
    block (meaningful when the block is diagonal, as for the family);
    ``singular_values`` are its singular values sorted descending and
    are what the capacity formula consumes.
    """

    lt1: float
    lt2: float
    lt3: float
    singular_values: tuple[float, float, float]

    @property
    def s_max(self) -> float:
        return self.singular_values[0]


@dataclass(frozen=True)
class DecompositionResiduals:
    """Floats for one channel, (...) arrays for a stack of channels."""

    unitality: float
    trace_preservation: float
    reconstruction: float

    @property
    def max_residual(self) -> float:
        return np.maximum(np.maximum(self.unitality, self.trace_preservation),
                          self.reconstruction)


def _family_roots(params: PauliChannelParams) -> tuple[float, float, float, float]:
    l3, t3 = params.lambda3, params.t3
    if abs(t3) + abs(l3) >= 1.0:
        raise NotInterior(
            f"|t3| + |lambda3| = {abs(t3) + abs(l3):.6g} >= 1; "
            "no scaling pair for boundary channels"
        )
    return (
        math.sqrt(1.0 + t3 + l3),
        math.sqrt(1.0 - t3 - l3),
        math.sqrt(1.0 + t3 - l3),
        math.sqrt(1.0 - t3 + l3),
    )


def family_scaling_pair(params: PauliChannelParams) -> ScalingPair:
    """Closed-form diagonal scaling pair for the four-parameter family.

    A = diag(((1-t3)^2 - l3^2)^(1/4), ((1+t3)^2 - l3^2)^(1/4)); the
    diagonal B is fixed by requiring the sandwiched map to be exactly
    unital and trace preserving, which yields
    B = sqrt(2/(PS+MR)) diag(1/sqrt(PM), 1/sqrt(RS)) with
    P, M, R, S = sqrt(1 +- t3 +- l3).

    The four norms are computed from the diagonal entries, with the same
    bits as ``ScalingPair.from_operators(a, b)``.
    """
    p, m, r, s = _family_roots(params)
    a0, a1 = math.sqrt(m * s), math.sqrt(p * r)
    g = math.sqrt(2.0 / (p * s + m * r))
    b0, b1 = g * (1.0 / math.sqrt(p * m)), g * (1.0 / math.sqrt(r * s))
    a = np.array([[a0, 0.0], [0.0, a1]], dtype=complex)
    b = np.array([[b0, 0.0], [0.0, b1]], dtype=complex)
    a.flags.writeable = False
    b.flags.writeable = False
    return ScalingPair(a, b, _diagonal_norm(a0, a1), _diagonal_norm(b0, b1),
                       _diagonal_inverse_norm(a0, a1), _diagonal_inverse_norm(b0, b1))


def _diagonal_norm(d0: float, d1: float) -> float:
    # operator_norm(diag(d0, d1)) without the matrix products: the Gram
    # matrix is diag(d0^2, d1^2)
    g0, g1 = d0 * d0, d1 * d1
    return gram_norm_2x2(g0 + g1, g0 * g1)


def _diagonal_inverse_norm(d0: float, d1: float) -> float:
    # operator_norm(inverse_2x2(diag(d0, d1))); numpy divides by the real
    # determinant as a multiplication by its reciprocal
    scale = 1.0 / (d0 * d1)
    return _diagonal_norm(d1 * scale, d0 * scale)


def family_unital_params(params: PauliChannelParams) -> UnitalForm:
    """Closed-form diagonal parameters of the unitalized family channel."""
    p, m, r, s = _family_roots(params)
    denom = p * s + m * r  # = sqrt((1+l3)^2-t3^2) + sqrt((1-l3)^2-t3^2)
    lt1 = 2.0 * params.lambda1 / denom
    lt2 = 2.0 * params.lambda2 / denom
    lt3 = 4.0 * params.lambda3 / denom**2
    sv = tuple(sorted((abs(lt1), abs(lt2), abs(lt3)), reverse=True))
    return UnitalForm(lt1, lt2, lt3, sv)


def upsilon_ptm(channel: ChannelLike, pair: ScalingPair) -> np.ndarray:
    """Raw PTM of the sandwiched map A . Phi . B (not canonicalized).

    A (..., 4, 4) stack of PTMs and a stacked pair give the (..., 4, 4)
    stack, each slice with the bits of the single call.
    """
    return kraus_ptm(pair.a) @ _as_ptm(channel, stacked=True) @ kraus_ptm(pair.b)


def unital_channel(channel: ChannelLike, pair: ScalingPair) -> QubitChannel:
    return QubitChannel(upsilon_ptm(channel, pair))


def verify_decomposition(channel: ChannelLike, pair: ScalingPair) -> DecompositionResiduals:
    """Residuals of the decomposition (pure diagnostic, never raises).

    A (..., 4, 4) stack of PTMs and a stacked pair give (...) arrays of
    residuals, each entry the single call's.
    """
    ptm = _as_ptm(channel, stacked=True)
    ups = upsilon_ptm(ptm, pair)
    ups_of_identity = apply_channel_matrix(ups, np.eye(2))
    unitality = np.abs(ups_of_identity - np.eye(2)).max(axis=(-2, -1))
    tp = np.abs(ups[..., 0, :] - np.array([1.0, 0, 0, 0])).max(axis=-1)
    recon = kraus_ptm(inverse_2x2(pair.a)) @ ups @ kraus_ptm(inverse_2x2(pair.b))
    reconstruction = np.abs(recon - ptm).max(axis=(-2, -1))
    if ptm.ndim == 2:
        return DecompositionResiduals(float(unitality), float(tp), float(reconstruction))
    return DecompositionResiduals(unitality, tp, reconstruction)


def sinkhorn_iterate(
    channel: ChannelLike,
    tol: float = 1e-12,
    max_iter: int = 10_000,
) -> ScalingPair:
    """Scaling pair by alternating fixed point.

    With Q = A^2 and P = B^2, unitality and trace preservation of the
    sandwiched map read Q = Phi[P]^-1 and P = Phi'[Q]^-1 (Phi' the
    Hilbert-Schmidt adjoint, whose PTM is the transpose).  Plain
    alternation from P = I converges for interior channels; the result
    is gauge fixed so that det A = det B.

    The sweeps run on Pauli coefficients c_a = tr(sigma_a X) held as
    Python floats (see ``_pauli_inverse``, ``_pauli_sqrt`` and
    ``_pauli_sandwich``); matrices are built only for the returned pair.

    Raises NotInterior pre-flight and NoConvergence if the residuals do
    not reach ``tol`` within ``max_iter`` sweeps.
    """
    if not is_interior(channel):
        raise NotInterior("channel image touches the Bloch sphere")
    ptm = _as_ptm(channel)
    forward, adjoint = ptm.tolist(), ptm.T.tolist()

    phi_p = _pauli_map(forward, (2.0, 0.0, 0.0, 0.0))  # Phi[I]
    residual = math.inf  # what max_iter < 1 reports
    for sweep in range(1, max_iter + 1):
        q = _pauli_inverse(phi_p)
        adj_q = _pauli_map(adjoint, q)
        p = _pauli_inverse(adj_q)
        phi_p = _pauli_map(forward, p)
        root_q, root_p = _pauli_sqrt(q), _pauli_sqrt(p)
        residual = max(_identity_residual(_pauli_sandwich(root_q, phi_p)),
                       _identity_residual(_pauli_sandwich(root_p, adj_q)))
        if residual < tol:
            gauge = (_pauli_det(root_q) / _pauli_det(root_p)) ** 0.25
            return ScalingPair.from_operators(_pauli_matrix(root_q) / gauge,
                                              gauge * _pauli_matrix(root_p),
                                              iterations=sweep)
    raise NoConvergence(
        f"residual {residual:.3e} > {tol:.1e} after {max(max_iter, 0)} sweeps"
    )


# Hermitian 2x2 matrices X = (c0 I + c1 sx + c2 sy + c3 sz) / 2 as their
# real Pauli coefficients c = (c0, c1, c2, c3); the PTM maps c to ptm @ c.


def _pauli_map(rows, c):
    c0, c1, c2, c3 = c
    return tuple(r0 * c0 + r1 * c1 + r2 * c2 + r3 * c3 for r0, r1, r2, r3 in rows)


def _pauli_det(c):
    c0, c1, c2, c3 = c
    return 0.25 * (c0 * c0 - (c1 * c1 + c2 * c2 + c3 * c3))


def _pauli_inverse(c):
    """X^-1 = (c0 I - c.sigma) / (2 det X): coefficients (c0, -c) / det X,
    with det X = (c0^2 - |c|^2) / 4."""
    det = _pauli_det(c)
    if det == 0.0:
        raise ValueError("matrix is singular")
    s = 1.0 / det
    c0, c1, c2, c3 = c
    return c0 * s, -c1 * s, -c2 * s, -c3 * s


def _pauli_sqrt(c):
    """Principal root of a PSD X: (X + sqrt(det X) I) / sqrt(tr X + 2 sqrt(det X))."""
    c0, c1, c2, c3 = c
    shifted = c0 + 2.0 * math.sqrt(max(_pauli_det(c), 0.0))
    norm = 1.0 / math.sqrt(shifted)
    return shifted * norm, c1 * norm, c2 * norm, c3 * norm


def _pauli_sandwich(r, f):
    """R F R for Hermitian R, F by the Pauli product rule
    (r.s)(f.s) = (r.f) I + i (r x f).s, which gives
    (r0 + r.s)(f0 + f.s)(r0 + r.s) = r0^2 f0 + 2 r0 r.f + f0 |r|^2
    + (r0^2 - |r|^2) f.s + 2 (r0 f0 + r.f) r.s;
    R F R is 1/8 of that, so its coefficients are 1/4 of these."""
    r0, r1, r2, r3 = r
    f0, f1, f2, f3 = f
    rf = r1 * f1 + r2 * f2 + r3 * f3
    rr = r1 * r1 + r2 * r2 + r3 * r3
    along_f = 0.25 * (r0 * r0 - rr)
    along_r = 0.5 * (r0 * f0 + rf)
    return (0.25 * (r0 * r0 * f0 + 2.0 * r0 * rf + f0 * rr),
            along_f * f1 + along_r * r1,
            along_f * f2 + along_r * r2,
            along_f * f3 + along_r * r3)


def _identity_residual(m):
    """Largest entry of |X - I|."""
    m0, m1, m2, m3 = m
    return max(abs(0.5 * (m0 + m3) - 1.0), abs(0.5 * (m0 - m3) - 1.0),
               0.5 * math.hypot(m1, m2))


def _pauli_matrix(c) -> np.ndarray:
    c0, c1, c2, c3 = c
    return 0.5 * np.array([[c0 + c3, complex(c1, -c2)], [complex(c1, c2), c0 - c3]])


def unital_diagonalize(channel: ChannelLike, tol: float = 1e-9) -> UnitalForm:
    """Singular values of the unital 3x3 block, sorted descending.

    The diagonal entries are reported as the signed lt parameters;
    up to the rotations of the unital normal form the singular values
    are the |lambda_i| that enter the capacity formula.
    """
    ptm = _as_ptm(channel)
    if not is_unital(ptm, tol):
        raise NotUnital(f"translation norm {np.linalg.norm(ptm[1:, 0]):.3e} > {tol:.1e}")
    if not is_trace_preserving(ptm, tol):
        raise NotUnital("map is not trace preserving")
    block = ptm[1:, 1:]
    sv = np.linalg.svd(block, compute_uv=False)
    return UnitalForm(
        float(block[0, 0]),
        float(block[1, 1]),
        float(block[2, 2]),
        (float(sv[0]), float(sv[1]), float(sv[2])),
    )
