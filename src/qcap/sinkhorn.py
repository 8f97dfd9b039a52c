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
from typing import Callable, Optional, Sequence

import numpy as np

from .core import (
    ChannelLike,
    NoConvergence,
    NotInterior,
    NotUnital,
    PauliChannelParams,
    _ARRAYS,
    _Arithmetic,
    _FLOATS,
    _as_ptm,
    apply_channel_matrix,
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
    are what the capacity formula consumes.  A stacked form holds (n,)
    arrays in place of the floats.
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


# Stacks of up to this many channels are evaluated one channel at a time
# on Python floats, larger ones in one pass on arrays: a numpy pass costs
# about as much as this many channels in floats (2-CPU Xeon, numpy 2.4).
_FLOAT_PASS_MAX = 10


def _family_pass(params: PauliChannelParams,
                 values: Callable[..., Sequence]) -> Sequence:
    """``values(lambda1, lambda2, lambda3, t3, arithmetic)`` of a family
    channel, as Python floats, or of every channel of a family stack, as
    (n,) arrays, each entry the bits of its single call.

    ``values`` is written once for both ``_FLOATS`` and ``_ARRAYS``: a
    stack of more than ``_FLOAT_PASS_MAX`` channels takes one pass on
    arrays, a smaller one a pass on floats per channel.

    Raises NotInterior for |t3| + |lambda3| >= 1, naming the first
    boundary channel of a stack.
    """
    fields = (params.lambda1, params.lambda2, params.lambda3, params.t3)
    if not isinstance(params.lambda3, np.ndarray):
        _require_interior(params.lambda3, params.t3)
        return values(*fields, _FLOATS)
    if not 0 < params.lambda3.size <= _FLOAT_PASS_MAX:
        l1, l2, l3, t3 = (np.asarray(f, dtype=float) for f in fields)
        boundary = np.abs(t3) + np.abs(l3) >= 1.0
        if boundary.any():
            k = int(boundary.argmax())
            _require_interior(l3[k], t3[k], k)
        return values(l1, l2, l3, t3, _ARRAYS)
    rows = []
    for k, (l1, l2, l3, t3) in enumerate(zip(*(np.asarray(f, dtype=float).tolist()
                                               for f in fields))):
        _require_interior(l3, t3, k)
        rows.append(values(l1, l2, l3, t3, _FLOATS))
    return np.array(rows).T


def _require_interior(l3: float, t3: float, channel: Optional[int] = None) -> None:
    margin = abs(t3) + abs(l3)
    if margin >= 1.0:
        where = "" if channel is None else f" at channel {channel} of the stack"
        raise NotInterior(
            f"|t3| + |lambda3| = {margin:.6g} >= 1{where}; "
            "no scaling pair for boundary channels"
        )


def _family_roots(l3, t3, arithmetic: _Arithmetic) -> tuple:
    """P, M, R, S = sqrt(1 +- t3 +- l3) of an interior family channel."""
    sqrt = arithmetic.sqrt
    return (sqrt(1.0 + t3 + l3), sqrt(1.0 - t3 - l3),
            sqrt(1.0 + t3 - l3), sqrt(1.0 - t3 + l3))


def family_scaling_pair(params: PauliChannelParams) -> ScalingPair:
    """Closed-form diagonal scaling pair for the four-parameter family,
    from the diagonal entries of ``_family_diagonals``.

    The four norms are computed from the diagonal entries, with the same
    bits as ``ScalingPair.from_operators(a, b)``.  A family stack gives
    the stacked pair, each slice the bits of its single call.
    """
    a0, a1, b0, b1, *norms = _family_pass(params, _pair_values)
    return ScalingPair(_diagonal_operators(a0, a1), _diagonal_operators(b0, b1), *norms)


def _pair_values(l1, l2, l3, t3, arithmetic: _Arithmetic) -> tuple:
    """a0, a1, b0, b1 and the norms |A|, |B|, |A^-1|, |B^-1|."""
    diagonals = _family_diagonals(_family_roots(l3, t3, arithmetic), arithmetic)
    return (*diagonals, *_diagonal_norms(*diagonals, arithmetic))


def _diagonal_operators(d0, d1) -> np.ndarray:
    """Read-only complex diag(d0, d1), or a (..., 2, 2) stack of them for
    arrays of diagonal entries."""
    op = np.zeros(np.shape(d0) + (2, 2), dtype=complex)
    op[..., 0, 0] = d0
    op[..., 1, 1] = d1
    op.flags.writeable = False
    return op


def _family_diagonals(roots: tuple, arithmetic: _Arithmetic) -> tuple:
    """Diagonal entries a0, a1, b0, b1 of the family's scaling pair, from
    its ``_family_roots``.

    A = diag(((1-t3)^2 - l3^2)^(1/4), ((1+t3)^2 - l3^2)^(1/4)); the
    diagonal B is fixed by requiring the sandwiched map to be exactly
    unital and trace preserving, which yields
    B = sqrt(2/(PS+MR)) diag(1/sqrt(PM), 1/sqrt(RS)) with
    P, M, R, S = sqrt(1 +- t3 +- l3).
    """
    p, m, r, s = roots
    sqrt = arithmetic.sqrt
    g = sqrt(2.0 / (p * s + m * r))
    return sqrt(m * s), sqrt(p * r), g * (1.0 / sqrt(p * m)), g * (1.0 / sqrt(r * s))


def _diagonal_norms(a0, a1, b0, b1, arithmetic: _Arithmetic) -> tuple:
    """|A|, |B|, |A^-1|, |B^-1| of A = diag(a0, a1), B = diag(b0, b1) with
    positive entries: the larger entry, which is what ``operator_norm`` of
    A, B and their ``inverse_2x2`` gives, bit for bit.  numpy divides by
    the real determinant as a multiplication by its reciprocal."""
    maximum = arithmetic.maximum
    a_scale, b_scale = 1.0 / (a0 * a1), 1.0 / (b0 * b1)
    return (maximum(a0, a1), maximum(b0, b1),
            maximum(a1 * a_scale, a0 * a_scale), maximum(b1 * b_scale, b0 * b_scale))


def family_unital_params(params: PauliChannelParams) -> UnitalForm:
    """Closed-form diagonal parameters of the unitalized family channel;
    a family stack gives the stacked form, each slice the bits of its
    single call."""
    lt1, lt2, lt3, *sv = _family_pass(params, _form_values)
    return UnitalForm(lt1, lt2, lt3, tuple(sv))


def _form_values(l1, l2, l3, t3, arithmetic: _Arithmetic) -> tuple:
    form = _unital_form(l1, l2, l3, _family_roots(l3, t3, arithmetic), arithmetic)
    return (form.lt1, form.lt2, form.lt3, *form.singular_values)


def _unital_form(l1, l2, l3, roots: tuple, arithmetic: _Arithmetic) -> UnitalForm:
    """``family_unital_params`` from the channel's ``_family_roots``."""
    p, m, r, s = roots
    denom = p * s + m * r  # = sqrt((1+l3)^2-t3^2) + sqrt((1-l3)^2-t3^2)
    lt1 = 2.0 * l1 / denom
    lt2 = 2.0 * l2 / denom
    lt3 = 4.0 * l3 / arithmetic.square(denom)
    return UnitalForm(lt1, lt2, lt3, arithmetic.descending(abs(lt1), abs(lt2), abs(lt3)))


def upsilon_ptm(channel: ChannelLike, pair: ScalingPair) -> np.ndarray:
    """Raw PTM of the sandwiched map A . Phi . B (not canonicalized).

    A (..., 4, 4) stack of PTMs and a stacked pair give the (..., 4, 4)
    stack, each slice with the bits of the single call.
    """
    return kraus_ptm(pair.a) @ _as_ptm(channel, stacked=True) @ kraus_ptm(pair.b)


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
