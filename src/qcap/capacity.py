"""Capacity formulas, bounds, and numerical chi-capacity.

The classical capacity of a unital qubit channel is
1 - h((1 - s_max)/2) with s_max the largest singular value of the
unital block.  For a nonunital interior channel the scaling pair (A, B)
sandwiches it between

    C(Upsilon) - 2 log2(|A||B|)  <=  C(Phi)  <=  C(Upsilon) + 2 log2(|A^-1||B^-1|).

The chi-capacity (a lower bound on C, equal to it in the unital case)
is computed by multistart quasi-Newton (BFGS) search over ensembles of
up to four pure states, using the closed-form gradient of the Holevo
quantity, with an exhaustive two-state grid search as the independent
cross-check oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .core import (
    BlochVector,
    ChannelOrParams,
    NotInterior,
    PauliChannelParams,
    _as_ptm,
    binary_entropy,
    entropy_kernel,
    fibonacci_sphere,
)
from .optimize import bfgs_batch
from .sinkhorn import ScalingPair, UnitalForm, family_scaling_pair, family_unital_params

DEFAULT_SEED = 42


@dataclass(frozen=True)
class CapacityBounds:
    """Unital capacity plus the gap terms and resulting raw/clamped bounds."""

    unital_capacity: float
    lower_gap: float
    upper_gap: float
    lower_raw: float
    upper_raw: float
    lower_clamped: float
    upper_clamped: float

    @classmethod
    def from_gaps(cls, unital_capacity: float, lower_gap: float,
                  upper_gap: float) -> "CapacityBounds":
        lower_raw = unital_capacity - lower_gap
        upper_raw = unital_capacity + upper_gap
        return cls(
            unital_capacity=unital_capacity,
            lower_gap=lower_gap,
            upper_gap=upper_gap,
            lower_raw=lower_raw,
            upper_raw=upper_raw,
            lower_clamped=min(max(lower_raw, 0.0), 1.0),
            upper_clamped=min(max(upper_raw, 0.0), 1.0),
        )

    @classmethod
    def from_parts(cls, unital_capacity: float, norm_ab: float,
                   norm_ab_inv: float) -> "CapacityBounds":
        return cls.from_gaps(unital_capacity, 2.0 * math.log2(norm_ab),
                             2.0 * math.log2(norm_ab_inv))


@dataclass(frozen=True)
class Ensemble:
    """Probabilistic mixture of pure qubit states (1 to 4 members)."""

    weights: np.ndarray
    states: np.ndarray  # (m, 3) unit Bloch vectors

    def __post_init__(self):
        w = np.array(self.weights, dtype=float)
        s = np.array(self.states, dtype=float)
        if w.ndim != 1 or not 1 <= len(w) <= 4:
            raise ValueError("ensemble must hold 1 to 4 states")
        if s.shape != (len(w), 3):
            raise ValueError(f"states shape {s.shape} does not match {len(w)} weights")
        if w.min() < -1e-12 or abs(w.sum() - 1.0) > 1e-12:
            raise ValueError("weights must be nonnegative and sum to 1")
        norms = np.linalg.norm(s, axis=1)
        if np.abs(norms - 1.0).max() > 1e-9:
            raise ValueError("ensemble states must be pure (unit Bloch norm)")
        w.flags.writeable = False
        s.flags.writeable = False
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "states", s)

    @classmethod
    def from_pairs(cls, pairs) -> "Ensemble":
        weights, states = zip(*pairs)
        states = [s.as_array() if isinstance(s, BlochVector) else np.asarray(s, float)
                  for s in states]
        return cls(np.array(weights, float), np.array(states, float))

    @property
    def size(self) -> int:
        return len(self.weights)


@dataclass(frozen=True)
class ChiConfig:
    """Settings for the multistart chi-capacity search.

    ``starts`` random starts per ensemble size are drawn from a
    generator seeded with ``seed``; a few deterministic axis-aligned
    starts are prepended when ``structured_starts`` is set.  Each start
    is refined by BFGS until its step is at most ``xatol`` in every
    coordinate, its decrease is at most ``fatol``, or no trial step is
    accepted; ``max_iter`` caps the iterations (200 when ``None``).
    Identical configs give bit-identical results.
    """

    sizes: tuple[int, ...] = (2, 3, 4)
    starts: int = 32
    seed: Union[int, tuple[int, ...]] = DEFAULT_SEED
    xatol: float = 1e-9
    fatol: float = 0.0
    max_iter: Optional[int] = None
    structured_starts: bool = True


@dataclass(frozen=True)
class ChiResult:
    """Best Holevo value found and its ensemble.

    ``converged`` says whether the best start met a stopping rule before
    the iteration cap; ``iterations`` sums the optimizer iterations over
    the ensemble sizes searched.
    """

    value: float
    ensemble: Ensemble
    converged: bool
    iterations: int = 0


def unital_capacity(form: UnitalForm) -> float:
    """1 - h((1 - s_max)/2) bits for a completely positive unital form."""
    return 1.0 - float(binary_entropy(0.5 * (1.0 - form.s_max)))


def theorem_bound(c_psi: float, pair: ScalingPair) -> float:
    """Achievable-rate bound c_psi - 2 log2(|A||B|)."""
    if not 0.0 <= c_psi <= 1.0:
        raise ValueError(f"capacity argument must lie in [0, 1], got {c_psi}")
    return c_psi - 2.0 * math.log2(pair.norm_ab)


def proposition_bounds(params: PauliChannelParams) -> CapacityBounds:
    """Two-sided capacity bounds for an interior family channel."""
    form = family_unital_params(params)
    pair = family_scaling_pair(params)
    return CapacityBounds.from_parts(unital_capacity(form), pair.norm_ab,
                                     pair.norm_ab_inv)


# ---------------------------------------------------------------------------
# generalized amplitude damping


def _check_gad_domain(p: float, gt: float) -> None:
    if p <= 0.0:
        raise NotInterior(
            f"p = {p} gives the boundary amplitude damping channel; "
            "the scaling decomposition needs p > 0"
        )
    if p > 0.5:
        raise ValueError(
            f"excited-state population must satisfy 0 < p <= 1/2, got {p}")
    if gt < 0.0:
        raise ValueError(f"dimensionless time must be >= 0, got {gt}")


def gad_params(p: float, gt: float) -> PauliChannelParams:
    """Generalized amplitude damping toward equilibrium diag(p, 1-p)."""
    _check_gad_domain(p, gt)
    u = math.exp(-2.0 * gt)
    return PauliChannelParams(math.exp(-gt), math.exp(-gt), u, (2.0 * p - 1.0) * (1.0 - u))


def gad_f(p: float, gt: float) -> float:
    """f(p, gt) = sqrt(p(1-p))(1 - e^{-2gt})
    + sqrt((1-p + p e^{-2gt})(p + (1-p) e^{-2gt}));
    equals 1 at gt = 0 for every p and for every gt at p = 1/2.

    The second term takes one square root of the product so that the
    p = 1/2 case, where both factors are the same double, evaluates to
    exactly 1 and the bound gaps vanish identically there.
    """
    u = math.exp(-2.0 * gt)
    return (math.sqrt(p * (1.0 - p)) * (1.0 - u)
            + math.sqrt((1.0 - p + p * u) * (p + (1.0 - p) * u)))


def gad_norm_products(p: float, gt: float) -> tuple[float, float]:
    """Closed forms |A||B| = ((1-p)/p)^(1/4) / sqrt(f) and
    |A^-1||B^-1| = ((1-p)/p)^(1/4) sqrt(f)."""
    _check_gad_domain(p, gt)
    quarter = ((1.0 - p) / p) ** 0.25
    root_f = math.sqrt(gad_f(p, gt))
    return quarter / root_f, quarter * root_f


def gad_bounds(p: float, gt: float) -> CapacityBounds:
    """Closed-form capacity bounds for generalized amplitude damping.

    The gaps are assembled as -log2 f +- (1/2) log2((1-p)/p), so at
    p = 1/2 the asymmetric term is exactly zero and the two bounds
    coincide bit for bit.
    """
    _check_gad_domain(p, gt)
    f = gad_f(p, gt)
    lt1 = math.exp(-gt) / f
    cu = 1.0 - float(binary_entropy(0.5 * (1.0 - lt1)))
    half_log_ratio = 0.5 * math.log2((1.0 - p) / p)
    log_f = math.log2(f)
    return CapacityBounds.from_gaps(cu, half_log_ratio - log_f,
                                    half_log_ratio + log_f)


def mix_params(p: float) -> PauliChannelParams:
    """Amplitude-damping/depolarizing mixture with weight p.

    Both endpoints are boundary channels (p = 0 the identity, p = 1
    full amplitude damping), so p must lie strictly inside (0, 1).
    """
    if not 0.0 < p < 1.0:
        raise NotInterior(f"mixture channel requires 0 < p < 1, got {p}")
    lam = p * math.sqrt(1.0 - p) + (1.0 - p) * (1.0 - 4.0 * p / 3.0)
    return PauliChannelParams(lam, lam, (1.0 - p) * (1.0 - p / 3.0), p * p)


# ---------------------------------------------------------------------------
# chi-capacity


def holevo_quantity(channel: ChannelOrParams, ensemble: Ensemble) -> float:
    """S(sum_k p_k Phi[rho_k]) - sum_k p_k S(Phi[rho_k]) in bits."""
    ptm = _as_ptm(channel)
    out = ensemble.states @ ptm[1:, 1:].T + ptm[1:, 0]
    radii = np.clip(np.linalg.norm(out, axis=1), 0.0, 1.0)
    avg = ensemble.weights @ out
    r_avg = min(float(np.linalg.norm(avg)), 1.0)
    s_avg = float(entropy_kernel(np.array(0.5 * (1.0 - r_avg))))
    s_each = entropy_kernel(0.5 * (1.0 - radii))
    return s_avg - float(ensemble.weights @ s_each)


def _stick_weights(logits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # (k, m-1) unconstrained logits -> (k, m) simplex weights and the
    # (k, m-1) stick fractions sigmoid(logits); the clip keeps exp finite
    # for the far trial steps of the line search
    k, mm1 = logits.shape
    s = 1.0 / (1.0 + np.exp(-np.clip(logits, -700.0, 700.0)))
    if mm1 == 0:
        return np.ones((k, 1)), s
    rem = np.cumprod(1.0 - s, axis=1)
    return np.concatenate([s[:, :1], s[:, 1:] * rem[:, :-1], rem[:, -1:]], axis=1), s


_Q0 = -1.0 / math.log(2.0)  # q(0), the r -> 0 limit of the entropy slope
_R_MAX = 1.0 - 1e-16  # keeps the entropy slope finite at pure outputs


def _entropy_slope(r: np.ndarray) -> np.ndarray:
    # q(r) = S'(r) / r = -atanh(r) / (r ln 2) for S(r) = h((1 - r)/2),
    # with its limit -1/ln 2 at r = 0
    rc = np.minimum(r, _R_MAX)
    q = np.ones_like(rc)
    np.divide(np.arctanh(rc), rc, out=q, where=rc > 0.0)
    q *= _Q0
    return q


def _neg_chi_objective(M: np.ndarray, t: np.ndarray, m: int):
    """Negated Holevo quantity of m-state ensembles and its gradient.

    A row holds the angles (theta_k, phi_k) of the m input Bloch vectors
    n_k followed by m - 1 stick-breaking logits l_i for the weights w_k.
    With outputs o_k = M n_k + t and average a = sum_k w_k o_k,

        dchi/do_k = w_k (q(|a|) a - q(|o_k|) o_k),
        dchi/dw_k = q(|a|) a.o_k - S(|o_k|) = G_k,
        dchi/dl_i = (1 - s_i) w_i G_i - s_i sum_{j>i} w_j G_j,

    with s_i = sigmoid(l_i); dchi/do_k is pulled back through M^T and
    the angle derivatives of n_k.
    """

    def neg_chi(params: np.ndarray, grad: bool = True):
        k = params.shape[0]
        ang = params[:, : 2 * m].reshape(k, m, 2)
        th, ph = ang[..., 0], ang[..., 1]
        st, ct = np.sin(th), np.cos(th)
        sp, cp = np.sin(ph), np.cos(ph)
        states = np.stack([st * cp, st * sp, ct], axis=-1)
        w, frac = _stick_weights(params[:, 2 * m:])
        out = states @ M.T + t
        radii = np.sqrt(np.einsum("kmi,kmi->km", out, out))
        np.clip(radii, 0.0, 1.0, out=radii)
        avg = np.einsum("km,kmi->ki", w, out)
        r_avg = np.sqrt(np.einsum("ki,ki->k", avg, avg))
        np.clip(r_avg, 0.0, 1.0, out=r_avg)
        s_avg = entropy_kernel(0.5 * (1.0 - r_avg))
        s_each = entropy_kernel(0.5 * (1.0 - radii))
        value = -(s_avg - np.einsum("km,km->k", w, s_each))
        if not grad:
            return value

        qa = _entropy_slope(r_avg)[:, None] * avg
        qo = _entropy_slope(radii)[..., None] * out
        g_n = (w[..., None] * (qa[:, None, :] - qo)) @ M
        d_th = (g_n[..., 0] * cp + g_n[..., 1] * sp) * ct - g_n[..., 2] * st
        d_ph = (g_n[..., 1] * cp - g_n[..., 0] * sp) * st
        wg = w * (np.einsum("ki,kmi->km", qa, out) - s_each)
        later = np.cumsum(wg[:, :0:-1], axis=1)[:, ::-1]
        d_l = (1.0 - frac) * wg[:, :-1] - frac * later
        d_ang = np.stack([d_th, d_ph], axis=-1).reshape(k, 2 * m)
        return value, -np.concatenate([d_ang, d_l], axis=1)

    return neg_chi


_AXES = {
    "x": (0.5 * math.pi, 0.0), "-x": (0.5 * math.pi, math.pi),
    "y": (0.5 * math.pi, 0.5 * math.pi), "-y": (0.5 * math.pi, 1.5 * math.pi),
    "z": (0.0, 0.0), "-z": (math.pi, 0.0),
}

_STRUCTURED = {
    2: [("x", "-x"), ("y", "-y"), ("z", "-z")],
    3: [("x", "-x", "z"), ("y", "-y", "z"), ("z", "-z", "x")],
    4: [("x", "-x", "z", "-z"), ("y", "-y", "z", "-z"), ("x", "-x", "y", "-y")],
}


def _uniform_logits(m: int) -> list[float]:
    # stick-breaking logits that give m equal weights
    return [math.log(1.0 / (m - k - 1)) for k in range(m - 1)]


def _structured_starts(m: int) -> np.ndarray:
    rows = []
    logits = _uniform_logits(m)
    for names in _STRUCTURED.get(m, []):
        angles = [c for name in names for c in _AXES[name]]
        rows.append(angles + logits)
    return np.array(rows)


def _random_starts(rng: np.random.Generator, m: int, count: int) -> np.ndarray:
    th = np.arccos(rng.uniform(-1.0, 1.0, size=(count, m)))
    ph = rng.uniform(0.0, 2.0 * math.pi, size=(count, m))
    angles = np.stack([th, ph], axis=-1).reshape(count, 2 * m)
    logits = rng.normal(scale=0.5, size=(count, m - 1))
    return np.concatenate([angles, logits], axis=1)


def _params_to_ensemble(params: np.ndarray, m: int) -> Ensemble:
    ang = params[: 2 * m].reshape(m, 2)
    th, ph = ang[:, 0], ang[:, 1]
    st = np.sin(th)
    states = np.stack([st * np.cos(ph), st * np.sin(ph), np.cos(th)], axis=-1)
    states /= np.linalg.norm(states, axis=1, keepdims=True)
    weights, _ = _stick_weights(params[None, 2 * m:])
    weights = np.clip(weights[0], 0.0, None)
    weights /= weights.sum()
    return Ensemble(weights, states)


def chi_capacity_numeric(channel: ChannelOrParams,
                         config: Optional[ChiConfig] = None) -> ChiResult:
    """Maximize the Holevo quantity over ensembles of pure states.

    Ensembles of 2 to 4 pure states are sufficient at qubit scale; each
    size is attacked with a batch of seeded random starts (plus a few
    deterministic axis-aligned ones) refined together by BFGS on the
    closed-form gradient.  The best value across all starts and sizes
    is returned together with the maximizing ensemble; ``converged``
    records whether that start met a stopping rule rather than the
    iteration cap, and ``iterations`` sums the batch iterations over
    the sizes.
    """
    cfg = config or ChiConfig()
    ptm = _as_ptm(channel)
    M = np.ascontiguousarray(ptm[1:, 1:])
    t = ptm[1:, 0]
    rng = np.random.default_rng(cfg.seed)

    best_val = -np.inf
    best_params: Optional[np.ndarray] = None
    best_m = 0
    best_conv = False
    iterations = 0
    for m in cfg.sizes:
        starts = [_random_starts(rng, m, cfg.starts)]
        if cfg.structured_starts:
            starts.insert(0, _structured_starts(m))
        x0 = np.vstack([s for s in starts if s.size])
        res = bfgs_batch(_neg_chi_objective(M, t, m), x0,
                         xatol=cfg.xatol, fatol=cfg.fatol,
                         max_iter=cfg.max_iter)
        iterations += res.iterations
        k = int(np.argmin(res.fun))
        if -res.fun[k] > best_val:
            best_val = -res.fun[k]
            best_params = res.x[k]
            best_m = m
            best_conv = bool(res.converged[k])
    assert best_params is not None
    return ChiResult(float(best_val), _params_to_ensemble(best_params, best_m),
                     best_conv, iterations)


def chi_capacity_grid_oracle(channel: ChannelOrParams, n_grid: int = 2000,
                             n_weights: int = 101, block: int = 256) -> float:
    """Exhaustive two-state lower bound on the chi-capacity.

    Both states run over an ``n_grid``-point Fibonacci sphere grid and
    the weight over an ``n_weights``-point grid; brute force only, for
    cross-checking the optimizer.  By the w <-> 1-w symmetry only
    weights >= 1/2 are scanned.
    """
    ptm = _as_ptm(channel)
    pts = fibonacci_sphere(n_grid)
    out = pts @ ptm[1:, 1:].T + ptm[1:, 0]
    radii = np.clip(np.linalg.norm(out, axis=1), 0.0, 1.0)
    s_each = entropy_kernel(0.5 * (1.0 - radii))
    norms_sq = np.einsum("ni,ni->n", out, out)

    weights = np.linspace(0.0, 1.0, n_weights)
    weights = weights[weights >= 0.5 - 1e-15]
    best = 0.0
    # work buffers reused across the weight loop; negated chi is
    # assembled in place as q log2 q + (1-q) log2(1-q) + w s_i + (1-w) s_j
    q = np.empty((block, n_grid))
    t1 = np.empty_like(q)
    t2 = np.empty_like(q)
    for lo in range(0, n_grid, block):
        hi = min(lo + block, n_grid)
        rows = hi - lo
        gram = out[lo:hi] @ out.T
        qb, t1b, t2b = q[:rows], t1[:rows], t2[:rows]
        for w in weights:
            np.multiply(gram, 2.0 * w * (1.0 - w), out=qb)
            qb += (w * w) * norms_sq[lo:hi, None]
            qb += ((1.0 - w) ** 2) * norms_sq[None, :]
            np.clip(qb, 0.0, 1.0, out=qb)
            np.sqrt(qb, out=qb)
            qb *= -0.5
            qb += 0.5  # (1 - r_avg)/2, in [0, 1/2]
            t1b.fill(0.0)
            with np.errstate(divide="ignore", invalid="ignore"):
                np.log2(qb, out=t1b, where=qb > 0.0)
            t1b *= qb
            qb *= -1.0
            qb += 1.0  # 1 - q, in [1/2, 1]
            np.log2(qb, out=t2b)
            t2b *= qb
            t1b += t2b
            t1b += w * s_each[lo:hi, None]
            t1b += (1.0 - w) * s_each[None, :]
            best = max(best, -float(t1b.min()))
    return best
