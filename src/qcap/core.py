"""Qubit states, channels, and structural diagnostics.

Conventions used throughout the package:

* Bloch coordinates: rho = (I + x sx + y sy + z sz) / 2.
* A channel is a ``PauliChannelParams`` or its 4x4 real Pauli transfer
  matrix (PTM) T[a, b] = tr(sigma_a Phi[sigma_b]) / 2 with sigma_0 = I,
  as an array.  For trace preserving maps the first row is (1, 0, 0, 0),
  which is checked, never imposed; the first column holds the Bloch
  translation t and the lower-right 3x3 block the linear part M, so
  Bloch vectors map as b -> M b + t.
* Choi matrix: C = sum_ij Phi[E_ij] (x) E_ij.  C is Hermitian for any
  PTM, has trace 2 for trace preserving maps, and is positive
  semidefinite exactly when Phi is completely positive.
* Entropies are in bits (log base 2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence, Union

import numpy as np

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULI = np.stack([np.eye(2, dtype=complex), SIGMA_X, SIGMA_Y, SIGMA_Z])
for _m in (SIGMA_X, SIGMA_Y, SIGMA_Z, PAULI):
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
    (x, y, z) -> (lambda1 x, lambda2 y, lambda3 z + t3).

    A family stack holds four (n,) arrays, one entry per channel (see
    ``stack``); the family closed forms take a stack in one pass.

    A field that is not finite raises ValueError naming it (and, in a
    stack, the first channel holding one); no layer below checks again.
    """

    lambda1: float
    lambda2: float
    lambda3: float
    t3: float

    def __post_init__(self) -> None:
        stacked = isinstance(self.lambda3, np.ndarray)
        if stacked or not (math.isfinite(self.lambda1) and math.isfinite(self.lambda2)
                           and math.isfinite(self.lambda3) and math.isfinite(self.t3)):
            fields = np.broadcast_arrays(self.lambda1, self.lambda2, self.lambda3, self.t3)
            table = np.array(fields, dtype=float).reshape(4, -1)
            finite = np.isfinite(table)
            if not finite.all():
                k, i = np.argwhere(~finite.T)[0].tolist()  # the first channel, then field
                raise ValueError(f"{list(vars(self))[i]} = {table[i, k]} is not finite"
                                 + _stack_position(k, stacked))

    @classmethod
    def stack(cls, channels: Sequence["PauliChannelParams"]) -> "PauliChannelParams":
        """One family stack from n channels: four (n,) float arrays, each
        entry the value of its channel, not checked again: every channel
        was checked when it was built."""
        stacked = object.__new__(cls)
        vars(stacked).update(zip(("lambda1", "lambda2", "lambda3", "t3"), np.array(
            [(c.lambda1, c.lambda2, c.lambda3, c.t3) for c in channels],
            dtype=float).reshape(-1, 4).T))
        return stacked


ChannelLike = Union[PauliChannelParams, np.ndarray]


class CPReport(NamedTuple):
    """A bool and a float for one channel, (...) arrays for a stack."""

    is_cp: bool
    min_eigenvalue: float


def _is_family_channel(channel: ChannelLike) -> bool:
    """Whether ``channel`` is one family channel, for the single-channel
    functions that read its fields; a family stack raises the ValueError
    that ``_as_ptm`` raises for a stack of PTMs."""
    if not isinstance(channel, PauliChannelParams):
        return False
    if isinstance(channel.lambda3, np.ndarray):
        raise ValueError(f"expected a 4x4 PTM, got shape {channel.lambda3.shape + (4, 4)}")
    return True


def _stack_position(k: int, stacked: bool) -> str:
    """An error message's " at channel k of the stack", or "" for one channel."""
    return f" at channel {k} of the stack" if stacked else ""


def _as_ptm(channel: ChannelLike, stacked: bool = False) -> np.ndarray:
    """The 4x4 PTM of ``channel``; with ``stacked``, it may also be a
    (..., 4, 4) stack of PTMs or a family stack.  An array entry that is
    not finite raises ValueError naming it (and, in a stack, its channel).
    """
    family = isinstance(channel, PauliChannelParams)
    ptm = ptm_from_params(channel) if family else np.asarray(channel, dtype=float)
    if ptm.shape[-2:] != (4, 4) or (ptm.ndim != 2 and not stacked):
        expected = "a (..., 4, 4) stack of PTMs" if stacked else "a 4x4 PTM"
        raise ValueError(f"expected {expected}, got shape {ptm.shape}")
    if not (family or np.isfinite(ptm).all()):
        members = ptm.reshape(-1, 4, 4)
        k, row, col = np.argwhere(~np.isfinite(members))[0].tolist()
        raise ValueError(f"PTM entry ({row}, {col}) = {members[k, row, col]} is not finite"
                         + _stack_position(k, ptm.ndim > 2))
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


def ptm_from_params(params: PauliChannelParams) -> np.ndarray:
    return _family_ptms(params.lambda1, params.lambda2, params.lambda3, params.t3)


def _family_ptms(l1, l2, l3, t3) -> np.ndarray:
    """PTM of the family channel (l1, l2, l3, t3), or a (..., 4, 4) stack
    of them for arrays of parameters."""
    ptm = np.zeros(np.shape(l1) + (4, 4))
    ptm[..., 0, 0] = 1.0
    ptm[..., 1, 1] = l1
    ptm[..., 2, 2] = l2
    ptm[..., 3, 3] = l3
    ptm[..., 3, 0] = t3
    return ptm


def apply_channel(channel: ChannelLike, b) -> np.ndarray:
    """Affine Bloch action b -> M b + t on a (..., 3) array of Bloch
    vectors."""
    ptm = _as_ptm(channel)
    return np.asarray(b, dtype=float) @ ptm[1:, 1:].T + ptm[1:, 0]


def apply_channel_matrix(channel: ChannelLike, X) -> np.ndarray:
    """Action of the map on an arbitrary 2x2 matrix via its PTM.

    A (..., 4, 4) stack of PTMs and a (..., 2, 2) stack of matrices
    broadcast against each other.

    The Pauli coefficients tr(sigma_a X) = (X00 + X11, X10 + X01,
    -i X10 + i X01, X00 - X11) go through T, and the image
    o = T c comes back as 1/2 [[o0 + o3, o1 - i o2], [o1 + i o2, o0 - o3]]:
    every entry a sum of two terms in the order of the sums
    ``einsum("aij,...ji->...a", PAULI, X)`` and
    ``einsum("...a,aij->...ij", o, PAULI) / 2``, so with their bits for
    finite input.  The final ``+= 0.0`` turns the -0.0 of a sum of signed
    zeros into the +0.0 that einsum's zeroed accumulator gives.
    """
    ptm = _as_ptm(channel, stacked=True)
    (x00, x01), (x10, x11) = _entries_first(np.asarray(X, dtype=complex))
    coeff = np.stack([x00 + x11, x10 + x01, -1j * x10 + 1j * x01, x00 - x11], axis=-1)
    o0, o1, o2, o3 = np.moveaxis((ptm @ coeff[..., None])[..., 0], -1, 0)
    out = np.array([o0 + o3, o1 - 1j * o2, o1 + 1j * o2, o0 - o3])
    out *= 0.5
    out += 0.0
    return _entries_last(out, (2, 2))


def _dagger(K: np.ndarray) -> np.ndarray:
    """Conjugate transpose of the last two axes."""
    return K.conj().swapaxes(-1, -2)


def kraus_ptm(K) -> np.ndarray:
    """Raw 4x4 PTM of the (generally non trace preserving) map
    X -> K X K', or a (..., 4, 4) stack for a (..., 2, 2) stack of K.

    T_pq = tr(sigma_p K sigma_q K')/2 in closed form: with
    K = [[a, b], [c, d]], every entry is a signed sum of the real and
    imaginary parts of the products conj(x) y of two entries, taken in
    real arithmetic on whole arrays (see ``_mul_2x2`` for why).  For a
    real diagonal K every cross term is an exact zero.
    """
    K = np.asarray(K, dtype=complex)
    (a, b), (c, d) = _entries_first(K)
    aa, bb, cc, dd = (_conj_mul(x, x)[0] for x in (a, b, c, d))
    ac_r, ac_i = _conj_mul(a, c)
    bd_r, bd_i = _conj_mul(b, d)
    ab_r, ab_i = _conj_mul(a, b)
    cd_r, cd_i = _conj_mul(c, d)
    ad_r, ad_i = _conj_mul(a, d)
    cb_r, cb_i = _conj_mul(c, b)
    r0, r1, s0, s1 = aa + bb, cc + dd, aa - bb, cc - dd
    entries = [0.5 * (r0 + r1), ab_r + cd_r, -(ab_i + cd_i), 0.5 * (s0 + s1),
               ac_r + bd_r, ad_r + cb_r, -(ad_i + cb_i), ac_r - bd_r,
               ac_i + bd_i, ad_i - cb_i, ad_r - cb_r, ac_i - bd_i,
               0.5 * (r0 - r1), ab_r - cd_r, cd_i - ab_i, 0.5 * (s0 - s1)]
    return _entries_last(np.array(entries), (4, 4))


def _entries_first(M: np.ndarray) -> np.ndarray:
    """A (..., 2, 2) stack as a (2, 2, ...) view, so that unpacking it
    gives the four entry arrays (numpy scalars for a single matrix)."""
    return M.transpose((-2, -1) + tuple(range(M.ndim - 2)))


def _entries_last(entries: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """The inverse of ``_entries_first`` for an (n, ...) array of the n
    entries of ``shape``, as a contiguous (..., *shape) array."""
    out = entries.transpose(tuple(range(1, entries.ndim)) + (0,))
    return np.ascontiguousarray(out).reshape(out.shape[:-1] + shape)


def _conj_mul(x, y):
    """Real and imaginary parts of conj(x) y, in real arithmetic."""
    xr, xi, yr, yi = x.real, x.imag, y.real, y.imag
    return xr * yr + xi * yi, xr * yi - xi * yr


def _mul_2x2(X, Y) -> np.ndarray:
    """X @ Y for (..., 2, 2) complex stacks that broadcast, entrywise.

    numpy runs a broadcast ``@`` of small matrices as one BLAS call per
    2x2 slice; here each of the eight complex products is whole-array
    real arithmetic, which also gives every slice the bits of its single
    call (complex array products may take a fused multiply-add).
    """
    (x00, x01), (x10, x11) = _entries_first(np.asarray(X, dtype=complex))
    (y00, y01), (y10, y11) = _entries_first(np.asarray(Y, dtype=complex))
    parts = [_dot2(x00, y00, x01, y10), _dot2(x00, y01, x01, y11),
             _dot2(x10, y00, x11, y10), _dot2(x10, y01, x11, y11)]
    out = np.array([re for re, _ in parts], dtype=complex)
    out.imag = [im for _, im in parts]
    return _entries_last(out, (2, 2))


def _dot2(x0, y0, x1, y1):
    """Real and imaginary parts of x0 y0 + x1 y1, in real arithmetic."""
    re = (x0.real * y0.real - x0.imag * y0.imag) + (x1.real * y1.real - x1.imag * y1.imag)
    im = (x0.real * y0.imag + x0.imag * y0.real) + (x1.real * y1.imag + x1.imag * y1.real)
    return re, im


def compose(outer: ChannelLike, inner: ChannelLike) -> np.ndarray:
    """PTM of the map applying ``inner`` first, then ``outer``."""
    return _as_ptm(outer) @ _as_ptm(inner)


def choi_from_channel(channel: ChannelLike) -> np.ndarray:
    """C = sum_ij Phi[E_ij] (x) E_ij (channel on half of an unnormalized
    maximally entangled state), in the closed form
    C = 1/2 sum_ab T_ab sigma_a (x) sigma_b^T.  A (..., 4, 4) stack of
    PTMs gives a stack of Choi matrices.

    Every real or imaginary part of an entry is the signed sum of the
    halved entries h = T/2 that the basis sigma_a (x) sigma_b^T puts
    there, four on the diagonal and two elsewhere, added in the order of
    (a, b): the bits of that sum taken by ``einsum`` over the stacked
    basis, and of its Hermitian part, for finite T, one PTM or a stack.
    The final ``+= 0.0`` turns the -0.0 of a sum of signed zeros into
    einsum's +0.0.
    """
    h = _entries_first(0.5 * _as_ptm(channel, stacked=True))
    # rij: the real part of entries (i, j) and (j, i); iij: the imaginary
    # part of one of them, the other's negated; d0, d3: the first two
    # terms of the diagonal entries
    d0, d3 = h[0, 0] + h[0, 3], h[0, 0] - h[0, 3]
    r01, r23 = h[0, 1] + h[3, 1], h[0, 1] - h[3, 1]
    r02, r13 = h[1, 0] + h[1, 3], h[1, 0] - h[1, 3]
    r03, r12 = h[1, 1] + h[2, 2], h[1, 1] - h[2, 2]
    i01, i23 = h[0, 2] + h[3, 2], h[0, 2] - h[3, 2]
    i02, i13 = h[2, 0] + h[2, 3], h[2, 0] - h[2, 3]
    i03, i12 = h[1, 2] - h[2, 1], h[1, 2] + h[2, 1]
    zero = np.zeros_like(d0)
    out = np.array([(d0 + h[3, 0]) + h[3, 3], r01, r02, r03,
                    r01, (d3 + h[3, 0]) - h[3, 3], r12, r13,
                    r02, r12, (d0 - h[3, 0]) - h[3, 3], r23,
                    r03, r13, r23, (d3 - h[3, 0]) + h[3, 3]], dtype=complex)
    out.imag = [zero, i01, -i02, i03,
                -i01, zero, -i12, -i13,
                i02, i12, zero, i23,
                -i03, i13, -i23, zero]
    out += 0.0
    return _entries_last(out, (4, 4))


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
    goes through the eigensolver.  A (..., 4, 4) stack of PTMs takes one
    stacked eigensolve and gives (...) arrays, each entry the single
    call's; a family stack raises ValueError, as the other single-channel
    functions do.
    """
    if _is_family_channel(channel):
        l1, l2, l3, t3 = channel.lambda1, channel.lambda2, channel.lambda3, channel.t3
        mineig = 0.5 * min(1.0 + l3 - math.hypot(t3, l1 + l2),
                           1.0 - l3 - math.hypot(t3, l1 - l2))
        return CPReport(mineig >= -tol, mineig)
    mineig = np.linalg.eigvalsh(choi_from_channel(channel))[..., 0]
    if mineig.ndim == 0:
        return CPReport(bool(mineig >= -tol), float(mineig))
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

    For the four-parameter family this is |t3| + |lambda3| < 1 in
    floating point, so decimal input such as lambda3 = 0.3, t3 = 0.7 is
    boundary; every family path asks this test.  For a general channel
    the image of the Bloch ball must stay strictly inside the unit
    sphere.  A family stack or a (..., 4, 4) stack of PTMs gets a bool
    array, one verdict per member, each that of its single call.
    """
    if isinstance(channel, PauliChannelParams):
        # Python floats for one channel, one array pass for a stack
        return abs(channel.t3) + abs(channel.lambda3) < 1.0
    ptm = _as_ptm(channel, stacked=True)
    if ptm.ndim == 2:
        return image_radius(ptm) < 1.0 - INTERIOR_MARGIN
    radii = [image_radius(member) for member in ptm.reshape(-1, 4, 4)]
    return (np.array(radii) < 1.0 - INTERIOR_MARGIN).reshape(ptm.shape[:-2])


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
    # NaN propagates through min and max and fails the test
    lo, hi = arr.min(initial=0.0), arr.max(initial=0.0)
    if not (lo >= -1e-12 and hi <= 1.0 + 1e-12):
        raise ValueError(f"binary_entropy argument outside [0, 1]: {x}")
    if lo < 0.0 or hi > 1.0:
        arr = np.minimum(np.maximum(arr, 0.0), 1.0)
    out = entropy_kernel(arr)
    return float(out) if arr.ndim == 0 else out


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
    return _mul_2x2(_mul_2x2(K, X), _dagger(K))


def operator_norm(K) -> Union[float, np.ndarray]:
    """Largest singular value of a 2x2 operator, by ``_top_singular_value``,
    as a float; a (..., 2, 2) stack gives a (...) array with the bits of
    the single calls.  Other shapes raise ValueError."""
    K = np.asarray(K, dtype=complex)
    if K.ndim < 2 or K.shape[-2:] != (2, 2):
        raise ValueError(f"expected a 2x2 operator or a (..., 2, 2) stack, got shape {K.shape}")
    (a, b), (c, d) = _entries_first(K)
    norm = _top_singular_value(a, b, c, d)
    return float(norm) if K.ndim == 2 else norm


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


class _Arithmetic(NamedTuple):
    """Elementwise operations for formulas written once for Python floats
    (one instance) and for (n,) arrays (a stack, in one pass).  The
    operators + - * / and abs() serve both, and both give the same bits.
    """

    sqrt: Callable
    maximum: Callable
    minimum: Callable
    # x ** 2 and math.log2 as Python's float operations, value by value:
    # the last bits of numpy's square and log2 do not always match them
    square: Callable
    log2: Callable
    # three values, sorted descending
    descending: Callable


def _square(x: float) -> float:
    return x**2


def _each(f: Callable) -> Callable:
    return lambda values: np.array(list(map(f, values.tolist())))


_FLOATS = _Arithmetic(math.sqrt, max, min, _square, math.log2,
                      lambda *v: tuple(sorted(v, reverse=True)))
_ARRAYS = _Arithmetic(np.sqrt, np.maximum, np.minimum, _each(_square), _each(math.log2),
                      lambda *v: tuple(np.sort(v, axis=0)[::-1]))


def _top_singular_value(a, b, c, d):
    """|K| for K = [[a, b], [c, d]] from its Gram matrix G = K'K, taken in
    real arithmetic: |K|^2 = max(g00, g11) + |g01|^2 / (sqrt(h^2 + |g01|^2) + h)
    with h = |g00 - g11|/2.  Every term is nonnegative, so nothing cancels
    as the singular values meet; a real diagonal K gives max(|a|, |d|)
    exactly, as the root of a correctly rounded square is its operand.
    The floor 2^-1022 on the denominator changes no quotient but 0/0."""
    g00 = (a.real * a.real + a.imag * a.imag) + (c.real * c.real + c.imag * c.imag)
    g11 = (b.real * b.real + b.imag * b.imag) + (d.real * d.real + d.imag * d.imag)
    ab_r, ab_i = _conj_mul(a, b)
    cd_r, cd_i = _conj_mul(c, d)
    re, im = ab_r + cd_r, ab_i + cd_i
    off = re * re + im * im
    h = 0.5 * abs(g00 - g11)
    return np.sqrt(np.maximum(g00, g11)
                   + off / np.maximum(np.sqrt(h * h + off) + h, 2.0**-1022))


def inverse_2x2(M) -> np.ndarray:
    """Closed-form (adjugate / determinant) inverse of a 2x2 matrix, or of
    each matrix in a (..., 2, 2) stack, bit for bit."""
    M = np.asarray(M, dtype=complex)
    det = _det_2x2(M)
    if np.any(det == 0):
        raise ValueError("matrix is singular")
    adj = np.stack([M[..., 1, 1], -M[..., 0, 1], -M[..., 1, 0], M[..., 0, 0]], axis=-1)
    return adj.reshape(M.shape) / det[..., None, None]


# ---------------------------------------------------------------------------
# random instances for tests and verification suites


def random_blochs(rng: np.random.Generator, count: int, pure: bool = False) -> np.ndarray:
    """(count, 3) Bloch vectors, uniform in the ball (on the sphere if
    ``pure``): the directions from one ``normal`` call, each row with the
    bits of ``v / np.linalg.norm(v)``, then the radii from one ``uniform``
    call, cube roots taken by Python's float power (numpy's rounds some
    differently).  One vector takes the draws of ``rng.normal(size=3)``
    and ``rng.uniform()``."""
    v = rng.normal(size=(count, 3))
    v /= np.sqrt(np.vecdot(v, v))[:, None]
    if not pure:
        v *= np.array([u ** (1.0 / 3.0) for u in rng.uniform(size=count).tolist()])[:, None]
    return v


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
    g = random_ginibre(rng, count, dim)
    rho = g @ _dagger(g)
    return rho / np.trace(rho, axis1=-2, axis2=-1).real[..., None, None]


def random_unitary(rng: np.random.Generator, dim: int = 2) -> np.ndarray:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_cptp_channel(rng: np.random.Generator, kraus_rank: int = 2) -> np.ndarray:
    """PTM of a random CPTP qubit channel from a normalized random Kraus set."""
    return normalized_kraus_ptm(random_ginibre(rng, kraus_rank))


def normalized_kraus_ptm(ops) -> np.ndarray:
    """PTM of the channel with Kraus operators K_k S^(-1/2), S = sum K_k'K_k.

    ``ops`` is an (r, 2, 2) set, or a (..., r, 2, 2) stack of sets that
    gives a (..., 4, 4) stack; all-zero operators may pad the sets to a
    common r.  The first row is set to (1, 0, 0, 0), which the
    normalization makes it up to rounding, also for an ill-conditioned S.  Raises ValueError when S is
    singular to working precision for the set or any set of the stack.
    """
    ops = np.asarray(ops, dtype=complex)
    total = _mul_2x2(_dagger(ops), ops).sum(axis=-3)
    w, V = np.linalg.eigh(total)
    singular = w[..., 0] <= np.finfo(float).eps * w[..., -1]
    if np.any(singular):
        at = f" for set {tuple(np.argwhere(singular)[0].tolist())}" if singular.ndim else ""
        raise ValueError(f"S = sum K'K is singular{at}; the Kraus set cannot be normalized")
    inv_sqrt = _mul_2x2(V / np.sqrt(w)[..., None, :], _dagger(V))
    ops = _mul_2x2(ops, inv_sqrt[..., None, :, :])
    # S^(-1/2) is off by about eps times the condition number of S, and so
    # is sum K'K of the normalized set; one Newton-Schulz step takes that
    # error from E to O(E^2), so the map stays CP when its first row is set
    gram = _mul_2x2(_dagger(ops), ops).sum(axis=-3)
    ops = _mul_2x2(ops, (1.5 * np.eye(2) - 0.5 * gram)[..., None, :, :])
    ptm = kraus_ptm(ops).sum(axis=-3)
    ptm[..., 0, :] = (1.0, 0.0, 0.0, 0.0)
    return ptm
