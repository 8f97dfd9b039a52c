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
from typing import Optional

import numpy as np

from .core import (
    ChannelOrParams,
    NoConvergence,
    NotInterior,
    NotUnital,
    PauliChannelParams,
    QubitChannel,
    _as_ptm,
    apply_channel_matrix,
    inverse_2x2,
    is_interior,
    is_trace_preserving,
    is_unital,
    kraus_ptm,
    operator_norm,
    ptm_from_params,
    sqrtm_psd_2x2,
)


@dataclass(frozen=True)
class ScalingPair:
    """Positive definite scaling operators with cached operator norms."""

    a: np.ndarray
    b: np.ndarray
    norm_a: float
    norm_b: float
    norm_a_inv: float
    norm_b_inv: float
    iterations: Optional[int] = None

    @classmethod
    def from_operators(cls, a, b, iterations: Optional[int] = None) -> "ScalingPair":
        a = np.asarray(a, dtype=complex)
        b = np.asarray(b, dtype=complex)
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
    unitality: float
    trace_preservation: float
    reconstruction: float

    @property
    def max_residual(self) -> float:
        return max(self.unitality, self.trace_preservation, self.reconstruction)


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
    """
    p, m, r, s = _family_roots(params)
    a = np.diag([math.sqrt(m * s), math.sqrt(p * r)]).astype(complex)
    g = math.sqrt(2.0 / (p * s + m * r))
    b = g * np.diag([1.0 / math.sqrt(p * m), 1.0 / math.sqrt(r * s)]).astype(complex)
    return ScalingPair.from_operators(a, b)


def family_unital_params(params: PauliChannelParams) -> UnitalForm:
    """Closed-form diagonal parameters of the unitalized family channel."""
    p, m, r, s = _family_roots(params)
    denom = p * s + m * r  # = sqrt((1+l3)^2-t3^2) + sqrt((1-l3)^2-t3^2)
    lt1 = 2.0 * params.lambda1 / denom
    lt2 = 2.0 * params.lambda2 / denom
    lt3 = 4.0 * params.lambda3 / denom**2
    sv = tuple(sorted((abs(lt1), abs(lt2), abs(lt3)), reverse=True))
    return UnitalForm(lt1, lt2, lt3, sv)


def upsilon_ptm(channel: ChannelOrParams, pair: ScalingPair) -> np.ndarray:
    """Raw PTM of the sandwiched map A . Phi . B (not canonicalized)."""
    return kraus_ptm(pair.a) @ _as_ptm(channel) @ kraus_ptm(pair.b)


def unital_channel(channel: ChannelOrParams, pair: ScalingPair) -> QubitChannel:
    return QubitChannel(upsilon_ptm(channel, pair))


def verify_decomposition(channel: ChannelOrParams, pair: ScalingPair) -> DecompositionResiduals:
    """Residuals of the decomposition (pure diagnostic, never raises)."""
    ptm = _as_ptm(channel)
    ups = kraus_ptm(pair.a) @ ptm @ kraus_ptm(pair.b)
    ups_of_identity = apply_channel_matrix(ups, np.eye(2))
    unitality = float(np.abs(ups_of_identity - np.eye(2)).max())
    tp = float(np.abs(ups[0, :] - np.array([1.0, 0, 0, 0])).max())
    recon = kraus_ptm(inverse_2x2(pair.a)) @ ups @ kraus_ptm(inverse_2x2(pair.b))
    reconstruction = float(np.abs(recon - ptm).max())
    return DecompositionResiduals(unitality, tp, reconstruction)


def sinkhorn_iterate(
    channel: ChannelOrParams,
    tol: float = 1e-12,
    max_iter: int = 10_000,
) -> ScalingPair:
    """Scaling pair by alternating fixed point.

    With Q = A^2 and P = B^2, unitality and trace preservation of the
    sandwiched map read Q = Phi[P]^-1 and P = Phi'[Q]^-1 (Phi' the
    Hilbert-Schmidt adjoint, whose PTM is the transpose).  Plain
    alternation from P = I converges for interior channels; the result
    is gauge fixed so that det A = det B.

    Raises NotInterior pre-flight and NoConvergence if the residuals do
    not reach ``tol`` within ``max_iter`` sweeps.
    """
    ptm = _as_ptm(channel)
    if isinstance(channel, PauliChannelParams):
        if not is_interior(channel):
            raise NotInterior("family channel on or outside the interior boundary")
    elif not is_interior(ptm):
        raise NotInterior("channel image touches the Bloch sphere")

    eye = np.eye(2, dtype=complex)
    P = eye.copy()
    for sweep in range(1, max_iter + 1):
        Q = inverse_2x2(apply_channel_matrix(ptm, P))
        P = inverse_2x2(apply_channel_matrix(ptm.T, Q))
        root_q = sqrtm_psd_2x2(Q)
        root_p = sqrtm_psd_2x2(P)
        res_unital = np.abs(root_q @ apply_channel_matrix(ptm, P) @ root_q - eye).max()
        res_tp = np.abs(root_p @ apply_channel_matrix(ptm.T, Q) @ root_p - eye).max()
        if max(res_unital, res_tp) < tol:
            gauge = (np.linalg.det(root_q).real / np.linalg.det(root_p).real) ** 0.25
            return ScalingPair.from_operators(root_q / gauge, gauge * root_p,
                                              iterations=sweep)
    raise NoConvergence(
        f"residual {max(res_unital, res_tp):.3e} > {tol:.1e} after {max_iter} sweeps"
    )


def unital_diagonalize(channel: ChannelOrParams, tol: float = 1e-9) -> UnitalForm:
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
