"""Qubit states, channels, and structural diagnostics.

Conventions used throughout the package:

* Bloch coordinates: rho = (I + x sx + y sy + z sz) / 2.
* A channel is stored as its 4x4 real Pauli transfer matrix (PTM)
  T[a, b] = tr(sigma_a Phi[sigma_b]) / 2 with sigma_0 = I.  For trace
  preserving maps the first row is (1, 0, 0, 0); the first column holds
  the Bloch translation t and the lower-right 3x3 block the linear part
  M, so Bloch vectors map as b -> M b + t.
* Choi matrix: C = sum_ij Phi[E_ij] (x) E_ij.  C is Hermitian for any
  PTM, has trace 2 for trace preserving maps, and is positive
  semidefinite exactly when Phi is completely positive.
* Entropies are in bits (log base 2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Union

import numpy as np

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULI = np.stack([np.eye(2, dtype=complex), SIGMA_X, SIGMA_Y, SIGMA_Z])
# _CHOI_BASIS[a, b] = sigma_a (x) sigma_b^T / 2, so the Choi matrix of a
# PTM T is sum_ab T_ab _CHOI_BASIS[a, b]
_CHOI_BASIS = 0.5 * np.einsum("aij,blk->abikjl", PAULI, PAULI).reshape(4, 4, 4, 4)
for _m in (SIGMA_X, SIGMA_Y, SIGMA_Z, PAULI, _CHOI_BASIS):
    _m.flags.writeable = False

# eigenvalues of a 4x4 Hermitian matrix carry this much solver noise
PSD_TOL = 1e-10
UNITAL_TOL = 1e-9
INTERIOR_MARGIN = 1e-9


class NotInterior(ValueError):
    """Channel is not in the interior of the positive maps, so no
    scaling pair exists (or a closed-form radicand vanishes)."""


class NotUnital(ValueError):
    """Operation requires a unital channel."""


class NoConvergence(RuntimeError):
    """Iterative scheme failed to reach the requested tolerance."""


@dataclass(frozen=True)
class PauliChannelParams:
    """Four-parameter channel family: Bloch action
    (x, y, z) -> (lambda1 x, lambda2 y, lambda3 z + t3)."""

    lambda1: float
    lambda2: float
    lambda3: float
    t3: float

    @property
    def boundary_margin(self) -> float:
        """1 - |t3| - |lambda3|; positive in the interior."""
        return 1.0 - abs(self.t3) - abs(self.lambda3)


@dataclass(frozen=True)
class QubitChannel:
    """Trace preserving qubit map stored as its 4x4 real PTM.

    The first row is canonicalized to exactly (1, 0, 0, 0); trace
    preservation is structural, not numerical.
    """

    ptm: np.ndarray

    def __post_init__(self):
        ptm = np.array(self.ptm, dtype=float)
        if ptm.shape != (4, 4):
            raise ValueError(f"PTM must be 4x4, got {ptm.shape}")
        ptm[0, :] = (1.0, 0.0, 0.0, 0.0)
        ptm.flags.writeable = False
        object.__setattr__(self, "ptm", ptm)

    @classmethod
    def identity(cls) -> "QubitChannel":
        return cls(np.eye(4))

    @classmethod
    def from_affine(cls, linear, translation) -> "QubitChannel":
        ptm = np.eye(4)
        ptm[1:, 1:] = np.asarray(linear, dtype=float)
        ptm[1:, 0] = np.asarray(translation, dtype=float)
        return cls(ptm)

    @property
    def linear_part(self) -> np.ndarray:
        return self.ptm[1:, 1:]

    @property
    def translation(self) -> np.ndarray:
        return self.ptm[1:, 0]


ChannelLike = Union[QubitChannel, PauliChannelParams, np.ndarray]


class CPReport(NamedTuple):
    is_cp: bool
    min_eigenvalue: float


def _as_ptm(channel: ChannelLike, stacked: bool = False) -> np.ndarray:
    """The 4x4 PTM of ``channel``; with ``stacked``, an array may also be a
    (..., 4, 4) stack of PTMs."""
    if isinstance(channel, QubitChannel):
        return channel.ptm
    if isinstance(channel, PauliChannelParams):
        return ptm_from_params(channel).ptm
    ptm = np.asarray(channel, dtype=float)
    if ptm.shape[-2:] != (4, 4) or (ptm.ndim != 2 and not stacked):
        expected = "a (..., 4, 4) stack of PTMs" if stacked else "a 4x4 PTM"
        raise ValueError(f"expected {expected}, got shape {ptm.shape}")
    return ptm


def bloch_to_density(b) -> np.ndarray:
    """rho = (I + x sx + y sy + z sz) / 2 for a Bloch vector b = (x, y, z),
    or a (..., 2, 2) stack of them for a (..., 3) array.  Norms above 1
    are accepted here; physicality is a separate check."""
    x, y, z = np.moveaxis(np.asarray(b, float), -1, 0)
    rows = [[1.0 + z, x - 1j * y], [x + 1j * y, 1.0 - z]]
    return 0.5 * np.moveaxis(np.array(rows), (0, 1), (-2, -1))


def density_to_bloch(rho) -> np.ndarray:
    """(3,) Bloch vector of a 2x2 rho, or a (..., 3) array of them for a
    (..., 2, 2) stack."""
    rho = np.asarray(rho, dtype=complex)
    upper, lower = rho[..., 0, 1], rho[..., 1, 0]
    return np.stack([np.real(upper + lower), np.real(1j * (upper - lower)),
                     np.real(rho[..., 0, 0] - rho[..., 1, 1])], axis=-1)


def ptm_from_params(params: PauliChannelParams) -> QubitChannel:
    ptm = np.eye(4)
    ptm[1, 1] = params.lambda1
    ptm[2, 2] = params.lambda2
    ptm[3, 3] = params.lambda3
    ptm[3, 0] = params.t3
    return QubitChannel(ptm)


def apply_channel(channel: ChannelLike, b) -> np.ndarray:
    """Affine Bloch action b -> M b + t on a (..., 3) array of Bloch
    vectors."""
    ptm = _as_ptm(channel)
    return np.asarray(b, dtype=float) @ ptm[1:, 1:].T + ptm[1:, 0]


def apply_channel_matrix(channel: ChannelLike, X) -> np.ndarray:
    """Action of the map on an arbitrary 2x2 matrix via its PTM.

    A (..., 4, 4) stack of PTMs and a (..., 2, 2) stack of matrices
    broadcast against each other.
    """
    ptm = _as_ptm(channel, stacked=True)
    X = np.asarray(X, dtype=complex)
    coeff = np.einsum("aij,...ji->...a", PAULI, X)
    out = (ptm @ coeff[..., None])[..., 0]
    return 0.5 * np.einsum("...a,aij->...ij", out, PAULI)


def _dagger(K: np.ndarray) -> np.ndarray:
    """Conjugate transpose of the last two axes."""
    return K.conj().swapaxes(-1, -2)


def kraus_ptm(K) -> np.ndarray:
    """Raw 4x4 PTM of the (generally non trace preserving) map
    X -> K X K', or a (..., 4, 4) stack for a (..., 2, 2) stack of K."""
    K = np.asarray(K, dtype=complex)
    conj = PAULI @ _dagger(K)[..., None, :, :]
    out = K[..., None, :, :] @ conj  # K sigma_b K'
    ptm = 0.5 * np.einsum("aij,...bji->...ab", PAULI, out)
    return np.ascontiguousarray(ptm.real)


def compose(outer: ChannelLike, inner: ChannelLike) -> QubitChannel:
    """Channel applying ``inner`` first, then ``outer``."""
    return QubitChannel(_as_ptm(outer) @ _as_ptm(inner))


def choi_from_channel(channel: ChannelLike) -> np.ndarray:
    """C = sum_ij Phi[E_ij] (x) E_ij (channel on half of an unnormalized
    maximally entangled state), in the closed form
    C = 1/2 sum_ab T_ab sigma_a (x) sigma_b^T.  A (..., 4, 4) stack of
    PTMs gives a stack of Choi matrices."""
    C = np.einsum("...ab,abij->...ij", _as_ptm(channel, stacked=True), _CHOI_BASIS)
    return 0.5 * (C + _dagger(C))


def kraus_from_choi(choi, tol: float = 1e-12):
    """Kraus operators from the eigendecomposition of the Choi matrix,
    largest eigenvalue first.

    A single 4x4 Choi matrix gives the list of operators whose eigenvalue
    exceeds ``tol``.  A (..., 4, 4) stack gives a (..., 4, 2, 2) array in
    the same order, with the operators at or below ``tol`` set to zero.
    """
    choi = np.asarray(choi, dtype=complex)
    w, V = np.linalg.eigh(choi)
    w, V = w[..., ::-1], V[..., ::-1]
    ops = np.sqrt(np.where(w > tol, w, 0.0))[..., None] * V.swapaxes(-1, -2)
    ops = ops.reshape(*w.shape, 2, 2)
    if choi.ndim == 2:
        return [K for K, wk in zip(ops, w) if wk > tol]
    return ops


def is_completely_positive(channel: ChannelLike, tol: float = PSD_TOL) -> CPReport:
    """CP certificate: smallest Choi eigenvalue must be >= -tol.

    A family channel's Choi matrix splits into two 2x2 blocks, whose
    smallest eigenvalues are (1 + lambda3 - hypot(t3, lambda1 + lambda2))/2
    and (1 - lambda3 - hypot(t3, lambda1 - lambda2))/2; any other channel
    goes through the eigensolver.
    """
    if isinstance(channel, PauliChannelParams):
        l1, l2, l3, t3 = channel.lambda1, channel.lambda2, channel.lambda3, channel.t3
        mineig = 0.5 * min(1.0 + l3 - math.hypot(t3, l1 + l2),
                           1.0 - l3 - math.hypot(t3, l1 - l2))
    else:
        mineig = float(np.linalg.eigvalsh(choi_from_channel(channel))[0])
    return CPReport(mineig >= -tol, mineig)


def is_trace_preserving(channel: ChannelLike, tol: float = UNITAL_TOL) -> bool:
    row = _as_ptm(channel)[0, :]
    return bool(np.abs(row - np.array([1.0, 0.0, 0.0, 0.0])).max() <= tol)


def is_unital(channel: ChannelLike, tol: float = UNITAL_TOL) -> bool:
    return bool(np.linalg.norm(_as_ptm(channel)[1:, 0]) <= tol)


def image_radius(channel: ChannelLike) -> float:
    """Largest output Bloch norm over pure input states, exactly.

    Maximizing |M s + t| over unit vectors s is a trust-region subproblem
    (More & Sorensen 1983).  With M'M = V diag(g) V' and d = V' M' t, the
    maximizer solves (mu I - M'M) s = M' t with mu >= g_max.  In the
    eigenbasis, with mu = g_max + delta and gap_k = g_max - g_k, the
    secular equation sum_k d_k^2 / (delta + gap_k)^2 = 1 has one root
    delta in [|d_top|, |d|], found by bisection to adjacent doubles.  In
    the hard case (d has no component in the top eigenspace, as for a
    unital channel) delta = 0 if the other components stay inside the
    sphere, and the top eigenspace fills the rest of the unit norm.  The
    value is |M s + t| at that explicit unit vector s, so it is always
    attained by a pure input.
    """
    ptm = _as_ptm(channel)
    M = ptm[1:, 1:]
    t = ptm[1:, 0]
    g, V = np.linalg.eigh(M.T @ M)
    d = (V.T @ (M.T @ t)).tolist()
    gap = (g[-1] - g).tolist()
    top = [k for k in range(3) if gap[k] == 0.0]
    lo = math.sqrt(sum(d[k] * d[k] for k in top))
    hi = math.sqrt(sum(dk * dk for dk in d))
    rest = -1.0
    if lo == 0.0:  # hard-case candidate: delta = 0
        s = [0.0 if k in top else d[k] / gap[k] for k in range(3)]
        rest = 1.0 - sum(sk * sk for sk in s)
    if rest >= 0.0:
        s[top[0]] = math.sqrt(rest)
    else:
        (d0, d1, d2), (g0, g1, g2) = d, gap
        while True:
            mid = 0.5 * (lo + hi)
            if not lo < mid < hi:
                break
            phi = (d0 / (mid + g0)) ** 2 + (d1 / (mid + g1)) ** 2 + (d2 / (mid + g2)) ** 2
            if phi > 1.0:
                lo = mid
            else:
                hi = mid
        s = [dk / (hi + gk) for dk, gk in zip(d, gap)]
    b = V @ np.array(s)
    return float(np.linalg.norm(M @ (b / np.linalg.norm(b)) + t))


def is_interior(channel: ChannelLike) -> bool:
    """Interior of the cone of positive maps.

    For the four-parameter family this is exactly |t3| + |lambda3| < 1;
    for a general channel the image of the Bloch ball must stay strictly
    inside the unit sphere.
    """
    if isinstance(channel, PauliChannelParams):
        return channel.boundary_margin > 0.0
    return image_radius(channel) < 1.0 - INTERIOR_MARGIN


def entropy_kernel(x: np.ndarray) -> np.ndarray:
    """h(x) elementwise for an array already in [0, 1], without checks.

    The logarithms go into zeroed buffers only where their argument is
    positive, so the endpoints give +0.0 and no floating-point warning.
    """
    c = 1.0 - x
    lx = np.zeros_like(x)
    np.log2(x, out=lx, where=x > 0.0)
    lc = np.zeros_like(c)
    np.log2(c, out=lc, where=c > 0.0)
    lx *= x
    lc *= c
    lx += lc
    return np.subtract(0.0, lx, out=lx)


def binary_entropy(x) -> Union[float, np.ndarray]:
    """h(x) = -x log2 x - (1-x) log2 (1-x), with h(0) = h(1) = 0.

    Arguments within 1e-12 outside [0, 1] are clamped; others, and NaN,
    raise ValueError.  A float takes a scalar path that repeats
    ``entropy_kernel``'s operations in order, with numpy's ``log2`` (whose
    last bits ``math.log2`` does not always match), so it returns the
    same bits as the array path.
    """
    if isinstance(x, float):
        if not -1e-12 <= x <= 1.0 + 1e-12:
            raise ValueError(f"binary_entropy argument outside [0, 1]: {x}")
        x = min(max(x, 0.0), 1.0)
        c = 1.0 - x
        lx = float(np.log2(x)) * x if x > 0.0 else 0.0
        lc = float(np.log2(c)) * c if c > 0.0 else 0.0
        return 0.0 - (lx + lc)
    arr = np.asarray(x, dtype=float)
    if not np.all((arr >= -1e-12) & (arr <= 1.0 + 1e-12)):
        raise ValueError(f"binary_entropy argument outside [0, 1]: {x}")
    out = entropy_kernel(np.clip(arr, 0.0, 1.0))
    return float(out) if np.isscalar(x) or np.ndim(x) == 0 else out


def von_neumann_entropy(rho) -> Union[float, np.ndarray]:
    """S(rho) = -tr(rho log2 rho) in bits, via eigenvalues, for a d x d
    rho; a (..., d, d) stack gives a (...) array.  A zero eigenvalue adds
    a 0.0 term."""
    rho = np.asarray(rho, dtype=complex)
    w = np.clip(np.linalg.eigvalsh(rho), 0.0, 1.0)
    s = -(w * np.log2(np.where(w > 0.0, w, 1.0))).sum(axis=-1)
    return float(s) if rho.ndim == 2 else s


def apply_scaling(K, X) -> np.ndarray:
    """K X K' for a single-Kraus scaling map; stacks of K and X
    broadcast against each other."""
    K = np.asarray(K, dtype=complex)
    return K @ np.asarray(X, dtype=complex) @ _dagger(K)


def operator_norm(K) -> Union[float, np.ndarray]:
    """Largest singular value; for a positive diagonal operator this is
    the maximum diagonal entry.  A (..., 2, 2) stack gives a (...) array
    with the bits of the single 2x2 calls."""
    K = np.asarray(K, dtype=complex)
    if K.shape == (2, 2):
        g = K.conj().T @ K
        return gram_norm_2x2(g[0, 0].real + g[1, 1].real,
                             (g[0, 0] * g[1, 1] - g[0, 1] * g[1, 0]).real)
    if K.ndim > 2 and K.shape[-2:] == (2, 2):
        g = _dagger(K) @ K
        det = np.maximum(_det_2x2(g).real, 0.0)
        tr = g[..., 0, 0].real + g[..., 1, 1].real
        return np.sqrt(0.5 * (tr + np.sqrt(np.maximum(tr * tr - 4.0 * det, 0.0))))
    return float(np.linalg.norm(K, 2))


def _det_2x2(M: np.ndarray) -> np.ndarray:
    """Determinants of a (..., 2, 2) complex stack, with the bits of numpy's
    scalar ``M[0, 0] * M[1, 1] - M[0, 1] * M[1, 0]``.

    Array products of complex numbers may take a fused multiply-add, and
    so round differently from scalar ones; the real and imaginary parts
    are therefore multiplied out here in real arithmetic.
    """
    a, b, c, d = M[..., 0, 0], M[..., 0, 1], M[..., 1, 0], M[..., 1, 1]
    det = np.empty(a.shape, dtype=complex)
    det.real = (a.real * d.real - a.imag * d.imag) - (b.real * c.real - b.imag * c.imag)
    det.imag = (a.real * d.imag + a.imag * d.real) - (b.real * c.imag + b.imag * c.real)
    return det


def gram_norm_2x2(tr: float, det: float) -> float:
    """Largest singular value of a 2x2 K from the trace and determinant
    of its Gram matrix K'K (rounding may leave det or the discriminant
    slightly negative; both are clamped at 0)."""
    det = max(det, 0.0)
    disc = max(tr * tr - 4.0 * det, 0.0)
    return math.sqrt(0.5 * (tr + math.sqrt(disc)))


def inverse_2x2(M) -> np.ndarray:
    """Closed-form (adjugate / determinant) inverse of a 2x2 matrix, or of
    each matrix in a (..., 2, 2) stack, bit for bit."""
    M = np.asarray(M, dtype=complex)
    if M.ndim > 2:
        det = _det_2x2(M)
        if np.any(det == 0):
            raise ValueError("matrix is singular")
        adj = np.stack([M[..., 1, 1], -M[..., 0, 1], -M[..., 1, 0], M[..., 0, 0]], axis=-1)
        return adj.reshape(M.shape) / det[..., None, None]
    det = M[0, 0] * M[1, 1] - M[0, 1] * M[1, 0]
    if det == 0:
        raise ValueError("matrix is singular")
    return np.array([[M[1, 1], -M[0, 1]], [-M[1, 0], M[0, 0]]]) / det


# ---------------------------------------------------------------------------
# random instances for tests and verification suites


def random_blochs(rng: np.random.Generator, count: int, pure: bool = False) -> np.ndarray:
    """(count, 3) Bloch vectors, uniform in the ball (on the sphere if
    ``pure``), drawn one at a time: three normals for the direction, then
    a uniform for the radius."""
    out = np.empty((count, 3))
    for k in range(count):
        v = rng.normal(size=3)
        v /= np.linalg.norm(v)
        if not pure:
            v *= rng.uniform() ** (1.0 / 3.0)
        out[k] = v
    return out


def random_ginibre(rng: np.random.Generator, count: int, dim: int = 2) -> np.ndarray:
    """(count, dim, dim) complex Gaussian matrices in one ``normal`` call.

    Each matrix takes its real part, then its imaginary part, from the
    stream, so the result and the generator state afterwards are the
    same as ``count`` sequential draws of
    ``rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))``.
    """
    g = rng.normal(size=(count, 2, dim, dim))
    return g[:, 0] + 1j * g[:, 1]


def random_densities(rng: np.random.Generator, count: int, dim: int = 2) -> np.ndarray:
    """(count, dim, dim) random mixed states: normalized Wishart G G' / tr
    from ``random_ginibre`` draws."""
    return densities_from_ginibre(random_ginibre(rng, count, dim))


def densities_from_ginibre(g) -> np.ndarray:
    """Normalized Wishart states G G' / tr(G G') for a (..., dim, dim)
    stack of Ginibre matrices, so draws made one at a time can be
    normalized in one call."""
    g = np.asarray(g, dtype=complex)
    rho = g @ _dagger(g)
    return rho / np.trace(rho, axis1=-2, axis2=-1).real[..., None, None]


def random_unitary(rng: np.random.Generator, dim: int = 2) -> np.ndarray:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_cptp_channel(rng: np.random.Generator, kraus_rank: int = 2) -> QubitChannel:
    """Random CPTP qubit channel from a normalized random Kraus set."""
    return QubitChannel(normalized_kraus_ptm(random_ginibre(rng, kraus_rank)))


def normalized_kraus_ptm(ops) -> np.ndarray:
    """PTM of the channel with Kraus operators K_k S^(-1/2), S = sum K_k'K_k.

    ``ops`` is an (r, 2, 2) set, or a (..., r, 2, 2) stack of sets that
    gives a (..., 4, 4) stack; all-zero operators may pad the sets to a
    common r.  The first row is set to (1, 0, 0, 0), as ``QubitChannel``
    does.
    """
    ops = np.asarray(ops, dtype=complex)
    total = (_dagger(ops) @ ops).sum(axis=-3)
    w, V = np.linalg.eigh(total)
    inv_sqrt = (V / np.sqrt(w)[..., None, :]) @ _dagger(V)
    ptm = kraus_ptm(ops @ inv_sqrt[..., None, :, :]).sum(axis=-3)
    ptm[..., 0, :] = (1.0, 0.0, 0.0, 0.0)
    return ptm
