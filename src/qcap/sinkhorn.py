"""Scaling decomposition of interior qubit channels.

For an interior channel Phi there exist positive definite A, B such
that the sandwiched map

    Upsilon[X] = A Phi[B X B'] A'

is unital and trace preserving.  The four-parameter family admits a
closed form; arbitrary interior channels are handled by Newton's method
on Sinkhorn's fixed point.  The operator norms of A, B and their inverses
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
    _stack_position,
    apply_channel_matrix,
    inverse_2x2,
    is_interior,
    kraus_ptm,
    operator_norm,
    ptm_from_params,
)


@dataclass(frozen=True)
class ScalingPair:
    """Positive definite scaling operators with cached operator norms.

    A stacked pair holds (..., 2, 2) operators and (...) arrays of norms,
    one entry per instance (see ``from_operators``).
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

    Raises NotInterior for a channel that ``is_interior`` refuses, naming
    the first boundary channel of a stack.  Every field is finite, as
    ``PauliChannelParams`` refuses any other value when it is built.
    """
    fields = (params.lambda1, params.lambda2, params.lambda3, params.t3)
    stacked = isinstance(params.lambda3, np.ndarray)
    inside = is_interior(params)
    if not (inside.all() if stacked else inside):
        k = int(inside.argmin()) if stacked else 0
        total = np.ravel(abs(params.t3) + abs(params.lambda3))[k]
        raise NotInterior(f"|t3| + |lambda3| = {total:.6g} >= 1{_stack_position(k, stacked)}; "
                          "no scaling pair for boundary channels")
    if not stacked:
        return values(*fields, _FLOATS)
    if not 0 < params.lambda3.size <= _FLOAT_PASS_MAX:
        return values(*(np.asarray(f, dtype=float) for f in fields), _ARRAYS)
    rows = [values(*row, _FLOATS)
            for row in zip(*(np.asarray(f, dtype=float).tolist() for f in fields))]
    return np.array(rows).T


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


def _unital_form(l1, l2, l3, roots: tuple, arithmetic: _Arithmetic) -> UnitalForm:
    """Closed-form diagonal parameters of the unitalized family channel,
    from its ``_family_roots``."""
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
    max_iter: int = 100,
) -> ScalingPair:
    """Scaling pair by Newton's method on Sinkhorn's fixed point.

    With Q = A^2 and P = B^2, unitality and trace preservation of the
    sandwiched map read Q = Phi[P]^-1 and P = Phi'[Q]^-1 (Phi' the
    Hilbert-Schmidt adjoint, whose PTM is the transpose): P is a fixed
    point of the sweep T(P) = Phi'[Phi[P]^-1]^-1, which scales with P.
    Newton's method solves g(c) = 2 T(P)[1:] / T(P)[0] - c = 0 for the
    Bloch part c of P = (2 I + c.sigma) / 2, with the closed-form
    Jacobian dT = T Phi'[Q Phi[dP] Q] T (see ``_newton_move``).  The
    first step is one plain sweep from P = I; a Newton step that would
    leave |c| < 2 is halved until it does not.  Each step runs one sweep
    from its P and stops when the pair sqrt(Q), sqrt(T(P)) has
    residuals below ``tol``; ``iterations`` counts these steps.  The
    result is gauge fixed so that det A = det B.

    The steps run on Pauli coefficients c_a = tr(sigma_a X) (see
    ``_pauli_inverse``, ``_pauli_sqrt`` and ``_pauli_sandwich``) as (n,)
    arrays: a (..., 4, 4) stack of PTMs (or a family stack) runs in
    lockstep, with each member frozen once it stops, and one channel runs
    as a stack of one whose pair is reshaped back to 2x2 operators with
    float norms.  Every slice of a stacked pair has the bits of its single
    call, and ``iterations`` is the last step any member ran.  For an
    interior channel every matrix the steps invert is positive definite.

    Raises NotInterior pre-flight and NoConvergence if the residuals do
    not reach ``tol`` within ``max_iter`` steps, naming the first such
    channel of a stack.
    """
    ptm = _as_ptm(channel, stacked=True)
    members = ptm.reshape(-1, 4, 4)
    outside = np.flatnonzero(~np.ravel(is_interior(channel)))
    if outside.size:
        raise NotInterior("channel image touches the Bloch sphere"
                          + _stack_position(int(outside[0]), ptm.ndim > 2))
    n = len(members)
    roots = np.empty((2, 4, n))  # sqrt(Q) and sqrt(T(P)) of the members that stopped
    residual = np.full(n, math.inf)  # P = I; what max_iter < 1 reports
    active, c, steps = np.arange(n), (np.zeros(n),) * 3, 0
    for step in range(1, max_iter + 1):
        if not active.size:
            break
        steps = step
        forward, adjoint = members.transpose(1, 2, 0), members.transpose(2, 1, 0)
        q, t, active_roots, active_residual = _sweep(forward, adjoint, c)
        residual[active] = active_residual
        done = active_residual < tol
        roots[:, :, active[done]] = np.array(active_roots)[:, :, done]
        going = ~done
        active, members = active[going], members[going]
        q, t, c = ([x[going] for x in values] for values in (q, t, c))
        c = _newton_move(forward[..., going], adjoint[..., going], c, q, t, step > 1)
    if active.size:
        k = int(active[0])
        raise NoConvergence(
            f"residual {residual[k]:.3e} > {tol:.1e} after {max(max_iter, 0)} Newton steps"
            + _stack_position(k, ptm.ndim > 2))
    shape = ptm.shape[:-2] + (2, 2)
    a, b = _gauged_operators(*roots)
    return ScalingPair.from_operators(a.reshape(shape), b.reshape(shape), iterations=steps)


def _sweep(forward, adjoint, c) -> tuple:
    """One sweep from P = (2 I + c.sigma) / 2: Q = Phi[P]^-1, T(P) =
    Phi'[Q]^-1, the roots of Q and T(P), and the residual of the pair
    they give, the largest entry of |sqrt(Q) Phi[T(P)] sqrt(Q) - I| and
    |sqrt(T(P)) Phi'[Q] sqrt(T(P)) - I|."""
    q = _pauli_inverse(_pauli_map(forward, (2.0, *c)))
    adj_q = _pauli_map(adjoint, q)
    t = _pauli_inverse(adj_q)
    root_q, root_t = _pauli_sqrt(q), _pauli_sqrt(t)
    residual = np.maximum(_identity_residual(_pauli_sandwich(root_q, _pauli_map(forward, t))),
                          _identity_residual(_pauli_sandwich(root_t, adj_q)))
    return q, t, (root_q, root_t), residual


def _newton_move(forward, adjoint, c, q, t, newton: bool) -> tuple:
    """The next Bloch part after a sweep from c gave Q and t = T(P): the
    sweep's own, 2 t[1:] / t[0], or with ``newton`` Newton's on
    g(c) = 2 t[1:] / t[0] - c.

    Column i of the Jacobian is s (dt[1:] - t[1:] dt[0] / t[0]) - e_i with
    s = 2 / t[0] and dt = T Phi'[Q Phi[e_i] Q] T, where Phi[e_i] is column
    i of the PTM.  The 3x3 system is solved by Cramer's rule, and the
    step halved while the new point has |c| >= 2.
    """
    t0, t1, t2, t3 = t
    s = 2.0 / t0
    bloch = (s * t1, s * t2, s * t3)
    if not newton:
        return bloch
    u = (t1 / t0, t2 / t0, t3 / t0)
    columns = []
    for i in (1, 2, 3):
        phi_e = tuple(row[i] for row in forward)
        dt = _pauli_sandwich(t, _pauli_map(adjoint, _pauli_sandwich(q, phi_e)))
        columns.append(tuple(s * (dt[j] - u[j - 1] * dt[0]) - (1.0 if j == i else 0.0)
                             for j in (1, 2, 3)))
    j1, j2, j3 = columns
    k1, k2, k3 = _cross(j2, j3), _cross(j3, j1), _cross(j1, j2)
    scale = -1.0 / _dot(j1, k1)
    g = tuple(b - ci for b, ci in zip(bloch, c))
    delta = (_dot(g, k1) * scale, _dot(g, k2) * scale, _dot(g, k3) * scale)
    while True:
        moved = tuple(ci + di for ci, di in zip(c, delta))
        outside = _dot(moved, moved) >= 4.0
        if not np.any(outside):
            return moved
        delta = tuple(np.where(outside, 0.5 * d, d) for d in delta)


def _cross(x, y):
    x1, x2, x3 = x
    y1, y2, y3 = y
    return x2 * y3 - x3 * y2, x3 * y1 - x1 * y3, x1 * y2 - x2 * y1


def _dot(x, y):
    x1, x2, x3 = x
    y1, y2, y3 = y
    return x1 * y1 + x2 * y2 + x3 * y3


def _gauged_operators(root_q, root_p) -> tuple:
    """A = sqrt(Q) / g and B = g sqrt(P) with g = (det sqrt(Q) / det sqrt(P))^(1/4),
    so that det A = det B, as (n, 2, 2) stacks.  The fourth root is two
    square roots."""
    gauge = np.sqrt(np.sqrt(_pauli_det(root_q) / _pauli_det(root_p)))
    return (_pauli_matrix([x / gauge for x in root_q]),
            _pauli_matrix([gauge * x for x in root_p]))


# Hermitian 2x2 matrices X = (c0 I + c1 sx + c2 sy + c3 sz) / 2 as their
# real Pauli coefficients c = (c0, c1, c2, c3); the PTM maps c to ptm @ c.
# Each coefficient is a Python float or an (n,) array, one entry per
# matrix of a stack.


def _pauli_map(rows, c):
    c0, c1, c2, c3 = c
    return tuple(r0 * c0 + r1 * c1 + r2 * c2 + r3 * c3 for r0, r1, r2, r3 in rows)


def _pauli_det(c):
    c0, c1, c2, c3 = c
    return 0.25 * (c0 * c0 - (c1 * c1 + c2 * c2 + c3 * c3))


def _pauli_inverse(c):
    """X^-1 = (c0 I - c.sigma) / (2 det X): coefficients (c0, -c) / det X,
    with det X = (c0^2 - |c|^2) / 4."""
    s = 1.0 / _pauli_det(c)
    c0, c1, c2, c3 = c
    return c0 * s, -c1 * s, -c2 * s, -c3 * s


def _pauli_sqrt(c):
    """Principal root of a PSD X: (X + sqrt(det X) I) / sqrt(tr X + 2 sqrt(det X))."""
    c0, c1, c2, c3 = c
    shifted = c0 + 2.0 * np.sqrt(np.maximum(_pauli_det(c), 0.0))
    norm = 1.0 / np.sqrt(shifted)
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
    return np.maximum(np.maximum(abs(0.5 * (m0 + m3) - 1.0), abs(0.5 * (m0 - m3) - 1.0)),
                      0.5 * np.sqrt(m1 * m1 + m2 * m2))


def _pauli_matrix(c) -> np.ndarray:
    """X from its coefficients, or a (n, 2, 2) stack from (n,) arrays."""
    c0, c1, c2, c3 = c
    m = np.zeros(np.shape(c0) + (2, 2), dtype=complex)
    m.real[..., 0, 0] = 0.5 * (c0 + c3)
    m.real[..., 1, 1] = 0.5 * (c0 - c3)
    m.real[..., 0, 1] = m.real[..., 1, 0] = 0.5 * c1
    m.imag[..., 0, 1] = -0.5 * c2
    m.imag[..., 1, 0] = 0.5 * c2
    return m


def unital_diagonalize(channel: ChannelLike, tol: float = 1e-9) -> UnitalForm:
    """Singular values of the unital 3x3 block, sorted descending.

    The diagonal entries are reported as the signed lt parameters;
    up to the rotations of the unital normal form the singular values
    are the |lambda_i| that enter the capacity formula.  A (..., 4, 4)
    stack of PTMs gives the stacked form, (...) arrays each entry the
    bits of its single call.

    Raises NotUnital when the translation norm or the largest deviation
    of the first row from (1, 0, 0, 0) exceeds ``tol``, naming the first
    such channel of a stack.
    """
    ptm = _as_ptm(channel, stacked=True)
    translation = np.linalg.norm(ptm[..., 1:, 0], axis=-1)
    unital = translation <= tol
    trace_preserving = np.abs(ptm[..., 0, :] - np.array([1.0, 0.0, 0.0, 0.0])).max(axis=-1) <= tol
    failed = np.ravel(~(unital & trace_preserving))
    if failed.any():
        k = int(failed.argmax())
        where = _stack_position(k, ptm.ndim > 2)
        if not np.ravel(unital)[k]:
            raise NotUnital(f"translation norm {np.ravel(translation)[k]:.3e} > {tol:.1e}{where}")
        raise NotUnital(f"map is not trace preserving{where}")
    block = ptm[..., 1:, 1:]
    sv = np.linalg.svd(block, compute_uv=False)
    lt = block[..., 0, 0], block[..., 1, 1], block[..., 2, 2]
    if ptm.ndim == 2:
        return UnitalForm(*(float(x) for x in lt), tuple(float(x) for x in sv))
    return UnitalForm(*lt, (sv[..., 0], sv[..., 1], sv[..., 2]))
