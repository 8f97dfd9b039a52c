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
from typing import NamedTuple, Sequence, Union

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
class BlochVector:
    """Bloch coordinates of a qubit state; norm 1 means pure."""

    x: float
    y: float
    z: float

    @classmethod
    def from_array(cls, arr) -> "BlochVector":
        x, y, z = np.asarray(arr, dtype=float)
        return cls(float(x), float(y), float(z))

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z])

    @property
    def norm(self) -> float:
        return math.sqrt(self.x * self.x + self.y * self.y + self.z * self.z)

    def __iter__(self):
        return iter((self.x, self.y, self.z))


@dataclass(frozen=True)
class PauliChannelParams:
    """Four-parameter channel family: Bloch action
    (x, y, z) -> (lambda1 x, lambda2 y, lambda3 z + t3)."""

    lambda1: float
    lambda2: float
    lambda3: float
    t3: float

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.lambda1, self.lambda2, self.lambda3, self.t3)

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

    @classmethod
    def from_kraus(cls, ops: Sequence[np.ndarray]) -> "QubitChannel":
        """Build from a complete Kraus set (sum K'K = I)."""
        total = sum(kraus_ptm(K) for K in ops)
        return cls(total)

    @property
    def linear_part(self) -> np.ndarray:
        return self.ptm[1:, 1:]

    @property
    def translation(self) -> np.ndarray:
        return self.ptm[1:, 0]


ChannelLike = Union[QubitChannel, PauliChannelParams, np.ndarray]
ChannelOrParams = Union[QubitChannel, PauliChannelParams]


class CPReport(NamedTuple):
    is_cp: bool
    min_eigenvalue: float


def _as_ptm(channel: ChannelLike) -> np.ndarray:
    if isinstance(channel, QubitChannel):
        return channel.ptm
    if isinstance(channel, PauliChannelParams):
        return ptm_from_params(channel).ptm
    ptm = np.asarray(channel, dtype=float)
    if ptm.shape != (4, 4):
        raise ValueError(f"expected a 4x4 PTM, got shape {ptm.shape}")
    return ptm


def bloch_to_density(b) -> np.ndarray:
    """rho = (I + x sx + y sy + z sz) / 2.  Norms above 1 are accepted
    here; physicality is a separate check."""
    x, y, z = (b.x, b.y, b.z) if isinstance(b, BlochVector) else np.asarray(b, float)
    return 0.5 * np.array([[1.0 + z, x - 1j * y], [x + 1j * y, 1.0 - z]])


def density_to_bloch(rho) -> BlochVector:
    rho = np.asarray(rho, dtype=complex)
    return BlochVector(
        float(np.real(rho[0, 1] + rho[1, 0])),
        float(np.real(1j * (rho[0, 1] - rho[1, 0]))),
        float(np.real(rho[0, 0] - rho[1, 1])),
    )


def ptm_from_params(params: PauliChannelParams) -> QubitChannel:
    ptm = np.eye(4)
    ptm[1, 1] = params.lambda1
    ptm[2, 2] = params.lambda2
    ptm[3, 3] = params.lambda3
    ptm[3, 0] = params.t3
    return QubitChannel(ptm)


def apply_channel(channel: ChannelLike, b) -> BlochVector:
    """Affine Bloch action b -> M b + t."""
    if isinstance(channel, PauliChannelParams):
        x, y, z = (b.x, b.y, b.z) if isinstance(b, BlochVector) else np.asarray(b, float)
        return BlochVector(
            channel.lambda1 * x,
            channel.lambda2 * y,
            channel.lambda3 * z + channel.t3,
        )
    ptm = _as_ptm(channel)
    vec = b.as_array() if isinstance(b, BlochVector) else np.asarray(b, float)
    return BlochVector.from_array(ptm[1:, 1:] @ vec + ptm[1:, 0])


def apply_channel_matrix(channel: ChannelLike, X) -> np.ndarray:
    """Action of the map on an arbitrary 2x2 matrix via its PTM."""
    ptm = _as_ptm(channel)
    X = np.asarray(X, dtype=complex)
    coeff = np.einsum("aij,ji->a", PAULI, X)
    out = ptm @ coeff
    return 0.5 * np.einsum("a,aij->ij", out, PAULI)


def kraus_ptm(K) -> np.ndarray:
    """Raw 4x4 PTM of the (generally non trace preserving) map
    X -> K X K'."""
    K = np.asarray(K, dtype=complex)
    conj = PAULI @ K.conj().T
    out = K[None, :, :] @ conj  # K sigma_b K'
    ptm = 0.5 * np.einsum("aij,bji->ab", PAULI, out)
    return np.ascontiguousarray(ptm.real)


def compose(outer: ChannelLike, inner: ChannelLike) -> QubitChannel:
    """Channel applying ``inner`` first, then ``outer``."""
    return QubitChannel(_as_ptm(outer) @ _as_ptm(inner))


def choi_from_channel(channel: ChannelLike) -> np.ndarray:
    """C = sum_ij Phi[E_ij] (x) E_ij (channel on half of an unnormalized
    maximally entangled state), in the closed form
    C = 1/2 sum_ab T_ab sigma_a (x) sigma_b^T."""
    C = np.einsum("ab,abij->ij", _as_ptm(channel), _CHOI_BASIS)
    return 0.5 * (C + C.conj().T)


def kraus_from_choi(choi, tol: float = 1e-12) -> list[np.ndarray]:
    """Kraus operators from the eigendecomposition of the Choi matrix."""
    w, V = np.linalg.eigh(np.asarray(choi, dtype=complex))
    ops = []
    for k in range(len(w) - 1, -1, -1):
        if w[k] > tol:
            ops.append(np.sqrt(w[k]) * V[:, k].reshape(2, 2))
    return ops


def is_completely_positive(channel: ChannelLike, tol: float = PSD_TOL) -> CPReport:
    """CP certificate: smallest Choi eigenvalue must be >= -tol."""
    mineig = float(np.linalg.eigvalsh(choi_from_channel(channel))[0])
    return CPReport(mineig >= -tol, mineig)


def is_trace_preserving(channel: ChannelLike, tol: float = UNITAL_TOL) -> bool:
    row = _as_ptm(channel)[0, :]
    return bool(np.abs(row - np.array([1.0, 0.0, 0.0, 0.0])).max() <= tol)


def is_unital(channel: ChannelLike, tol: float = UNITAL_TOL) -> bool:
    return bool(np.linalg.norm(_as_ptm(channel)[1:, 0]) <= tol)


def fibonacci_sphere(n: int) -> np.ndarray:
    """n near-uniform points on the unit sphere (deterministic)."""
    i = np.arange(n)
    z = 1.0 - (2.0 * i + 1.0) / n
    r = np.sqrt(np.clip(1.0 - z * z, 0.0, None))
    phi = math.pi * (3.0 - math.sqrt(5.0)) * i
    return np.column_stack([r * np.cos(phi), r * np.sin(phi), z])


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
    """h(x) = -x log2 x - (1-x) log2 (1-x), with h(0) = h(1) = 0."""
    arr = np.asarray(x, dtype=float)
    if np.any(arr < -1e-12) or np.any(arr > 1.0 + 1e-12):
        raise ValueError(f"binary_entropy argument outside [0, 1]: {x}")
    out = entropy_kernel(np.clip(arr, 0.0, 1.0))
    return float(out) if np.isscalar(x) or np.ndim(x) == 0 else out


def von_neumann_entropy(rho) -> float:
    """S(rho) = -tr(rho log2 rho) in bits, via eigenvalues."""
    w = np.linalg.eigvalsh(np.asarray(rho, dtype=complex))
    w = np.clip(w, 0.0, 1.0)
    nz = w[w > 0.0]
    return float(-(nz * np.log2(nz)).sum())


def apply_scaling(K, X) -> np.ndarray:
    """K X K' for a single-Kraus scaling map."""
    K = np.asarray(K, dtype=complex)
    return K @ np.asarray(X, dtype=complex) @ K.conj().T


def operator_norm(K) -> float:
    """Largest singular value; for a positive diagonal operator this is
    the maximum diagonal entry."""
    K = np.asarray(K, dtype=complex)
    if K.shape == (2, 2):
        g = K.conj().T @ K
        tr = g[0, 0].real + g[1, 1].real
        det = max((g[0, 0] * g[1, 1] - g[0, 1] * g[1, 0]).real, 0.0)
        disc = max(tr * tr - 4.0 * det, 0.0)
        return math.sqrt(0.5 * (tr + math.sqrt(disc)))
    return float(np.linalg.norm(K, 2))


def inverse_2x2(M) -> np.ndarray:
    """Closed-form (adjugate / determinant) inverse of a 2x2 matrix."""
    M = np.asarray(M, dtype=complex)
    det = M[0, 0] * M[1, 1] - M[0, 1] * M[1, 0]
    if det == 0:
        raise ValueError("matrix is singular")
    return np.array([[M[1, 1], -M[0, 1]], [-M[1, 0], M[0, 0]]]) / det


def sqrtm_psd_2x2(M) -> np.ndarray:
    """Principal square root of a 2x2 positive semidefinite matrix."""
    w, V = np.linalg.eigh(np.asarray(M, dtype=complex))
    return (V * np.sqrt(np.clip(w, 0.0, None))) @ V.conj().T


# ---------------------------------------------------------------------------
# random instances for tests and verification suites


def random_bloch(rng: np.random.Generator, pure: bool = False) -> BlochVector:
    v = rng.normal(size=3)
    v /= np.linalg.norm(v)
    if not pure:
        v *= rng.uniform() ** (1.0 / 3.0)
    return BlochVector.from_array(v)


def random_density(rng: np.random.Generator, dim: int = 2) -> np.ndarray:
    """Random mixed state: normalized Wishart G G' / tr."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_unitary(rng: np.random.Generator, dim: int = 2) -> np.ndarray:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_cptp_channel(rng: np.random.Generator, kraus_rank: int = 2) -> QubitChannel:
    """Random CPTP qubit channel from a normalized random Kraus set."""
    ops = [rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
           for _ in range(kraus_rank)]
    total = sum(K.conj().T @ K for K in ops)
    w, V = np.linalg.eigh(total)
    inv_sqrt = (V / np.sqrt(w)) @ V.conj().T
    return QubitChannel.from_kraus([K @ inv_sqrt for K in ops])
