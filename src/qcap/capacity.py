"""Capacity formulas, bounds, and numerical chi-capacity.

The classical capacity of a unital qubit channel is
1 - h((1 - s_max)/2) with s_max the largest singular value of the
unital block.  For a nonunital interior channel the scaling pair (A, B)
sandwiches it between

    C(Upsilon) - 2 log2(|A||B|)  <=  C(Phi)  <=  C(Upsilon) + 2 log2(|A^-1||B^-1|).

The chi-capacity (a lower bound on C, equal to it in the unital case)
of a family channel is solved exactly by the family's one-dimensional
reduction: a closed-form case split on the shape of the least output
entropy and at most two scalar Newton solves give the maximizing
ensemble of at most four pure states.  Any other channel, or an
explicit ``ChiConfig``, gets a multistart quasi-Newton (BFGS) search
from seeded random starts over ensembles of two to four pure states,
using the closed-form gradient of the Holevo quantity.  Each ensemble
size's starts run as one lockstep batch, and each iteration's gradient
is taken from its line-search evaluation.
A dense-grid evaluation of the reduction is the independent cross-check
oracle of both.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import NamedTuple, Optional, Union

import numpy as np

from .core import (
    ChannelLike,
    NotInterior,
    PauliChannelParams,
    _as_ptm,
    binary_entropy,
    entropy_kernel,
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
        # written so that NaN fails each test
        if not (w.min() >= -1e-12 and abs(w.sum() - 1.0) <= 1e-12):
            raise ValueError("weights must be nonnegative and sum to 1")
        norms = np.linalg.norm(s, axis=1)
        if not np.abs(norms - 1.0).max() <= 1e-9:
            raise ValueError("ensemble states must be pure (unit Bloch norm)")
        w.flags.writeable = False
        s.flags.writeable = False
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "states", s)

    @property
    def size(self) -> int:
        return len(self.weights)


@dataclass(frozen=True)
class ChiConfig:
    """Settings for the multistart chi-capacity search.

    Passing one to ``chi_capacity_numeric`` asks for the search even
    for a family channel, which is otherwise solved exactly.
    Each ensemble size in ``sizes`` (2 to 4) gets ``starts`` (at least
    1) random starts, drawn from one generator seeded with ``seed`` in
    ``sizes`` order.  Each start is refined by BFGS
    until its step is at most ``xatol`` in every coordinate, its
    decrease is at most ``fatol``, or no trial step is accepted;
    ``xatol`` and ``fatol`` must be at least 0, and ``max_iter``, an
    integer of at least 1, caps the iterations.
    Identical configs give bit-identical results.
    """

    sizes: tuple[int, ...] = (2, 3, 4)
    starts: int = 32
    seed: Union[int, tuple[int, ...]] = DEFAULT_SEED
    xatol: float = 1e-9
    fatol: float = 0.0
    max_iter: int = 200

    def __post_init__(self):
        if not self.sizes or not set(self.sizes) <= {2, 3, 4}:
            raise ValueError(f"chi ensemble sizes must be 2 to 4, got {self.sizes}")
        for name in ("starts", "max_iter"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral) or value < 1:
                raise ValueError(f"chi {name} = {value!r} must be an integer of at least 1")
        for name in ("xatol", "fatol"):
            if not getattr(self, name) >= 0.0:  # also rejects NaN
                raise ValueError(f"chi {name} = {getattr(self, name)} must be >= 0")


@dataclass(frozen=True)
class ChiResult:
    """Best Holevo value found and its ensemble.

    For the search, ``converged`` says whether the best start met a
    stopping rule before the iteration cap; ``iterations`` sums the
    iterations of the ensemble sizes' batches, each of which runs until
    its last start stops.  For the exact family solver, ``iterations``
    counts its Newton steps and ``converged`` says whether its final
    tangent residual is within 1e-11.
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


@dataclass(frozen=True)
class Report:
    """An interior family channel's unital form, scaling pair and bounds."""

    form: UnitalForm
    pair: ScalingPair
    bounds: CapacityBounds


def analyze(params: PauliChannelParams) -> Report:
    """Scale an interior family channel to unital form and bound its capacity."""
    form = family_unital_params(params)
    pair = family_scaling_pair(params)
    return Report(form, pair, CapacityBounds.from_parts(
        unital_capacity(form), pair.norm_ab, pair.norm_ab_inv))


def proposition_bounds(params: PauliChannelParams) -> CapacityBounds:
    """Two-sided capacity bounds for an interior family channel."""
    return analyze(params).bounds


# ---------------------------------------------------------------------------
# generalized amplitude damping


def _check_gad_domain(p: float, gt: float) -> None:
    if p <= 0.0:
        raise NotInterior(
            f"p = {p} gives the boundary amplitude damping channel; "
            "the scaling decomposition needs p > 0"
        )
    if not p <= 0.5:  # also rejects NaN
        raise ValueError(
            f"excited-state population must satisfy 0 < p <= 1/2, got {p}")
    if not gt >= 0.0:
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


def holevo_quantity(channel: ChannelLike, ensemble: Ensemble) -> float:
    """S(sum_k p_k Phi[rho_k]) - sum_k p_k S(Phi[rho_k]) in bits."""
    ptm = _as_ptm(channel)
    out = ensemble.states @ ptm[1:, 1:].T + ptm[1:, 0]
    avg = ensemble.weights @ out
    # the radii of the average, then of each output, by np.linalg.norm's
    # own formulas; a root of a sum of squares is >= +0, so only the top
    # needs a clip.  One entropy call takes them all
    r = np.empty(1 + len(out))
    r[0] = math.sqrt(avg.dot(avg))
    np.sqrt(np.add.reduce(out * out, axis=1), out=r[1:])
    s = entropy_kernel(0.5 * (1.0 - np.minimum(r, 1.0)))
    return float(s[0]) - float(ensemble.weights @ s[1:])


_LOGIT_CLIP = 700.0  # sigmoid(700) is exactly 1.0 and exp(700) is finite


def _stick_weights(logits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # (k, m-1) unconstrained logits, m >= 2, -> (k, m) simplex weights and the
    # (k, m-1) stick fractions sigmoid(logits); the clip keeps exp finite
    # for the far trial steps of the line search
    k, mm1 = logits.shape
    s = 1.0 / (1.0 + np.exp(-np.minimum(np.maximum(logits, -_LOGIT_CLIP), _LOGIT_CLIP)))
    w = np.empty((k, mm1 + 1))
    rem = np.cumprod(1.0 - s, axis=1)
    w[:, 0] = s[:, 0]
    np.multiply(s[:, 1:], rem[:, :-1], out=w[:, 1:-1])
    w[:, -1] = rem[:, -1]
    return w, s


_LN2 = math.log(2.0)
_Q0 = -1.0 / _LN2  # q(0), the r -> 0 limit of the entropy slope
_R_MAX = 1.0 - 1e-16  # keeps the entropy slope finite at pure outputs


def _entropy_slope(r: np.ndarray) -> np.ndarray:
    # q(r) = S'(r) / r = -atanh(r) / (r ln 2) for S(r) = h((1 - r)/2),
    # with its limit -1/ln 2 at r = 0
    rc = np.minimum(r, _R_MAX)
    q = np.ones_like(rc)
    np.divide(np.arctanh(rc), rc, out=q, where=rc > 0.0)
    q *= _Q0
    return q


class _Forward(NamedTuple):
    """One evaluation of the negated Holevo quantity on a batch, with the
    intermediates its gradient is taken from, one row per point."""

    value: np.ndarray  # (k,)
    sin: np.ndarray    # (k, 2m) sines and cosines of the angles
    cos: np.ndarray
    w: np.ndarray      # (k, m) weights
    frac: np.ndarray   # (k, m - 1) stick fractions
    out: np.ndarray    # (k, m, 3) output Bloch vectors
    avg: np.ndarray    # (k, 3) average output
    r: np.ndarray      # (k, 1 + m) Bloch radii of the average, then of each output
    s: np.ndarray      # (k, 1 + m) their entropies


def _chi_forward(M: np.ndarray, t: np.ndarray, params: np.ndarray) -> _Forward:
    """Negated Holevo quantity of the m-state ensembles in ``params``.

    A (k, 3m - 1) row holds the angles (theta_k, phi_k) of the m input
    Bloch vectors n_k followed by m - 1 stick-breaking logits l_i for
    the weights w_k; the outputs are o_k = M n_k + t.
    """
    k = params.shape[0]
    m = (params.shape[1] + 1) // 3
    ang = np.ascontiguousarray(params[:, : 2 * m])
    sin, cos = np.sin(ang), np.cos(ang)
    states = np.empty((k, m, 3))
    np.multiply(sin[:, 0::2], cos[:, 1::2], out=states[..., 0])
    np.multiply(sin[:, 0::2], sin[:, 1::2], out=states[..., 1])
    states[..., 2] = cos[:, 0::2]
    w, frac = _stick_weights(params[:, 2 * m:])
    # one (k m, 3) product: numpy would loop over k tiny (m, 3) ones
    out = (states.reshape(-1, 3) @ M.T).reshape(k, m, 3) + t
    avg = np.einsum("km,kmi->ki", w, out)
    r = np.empty((k, 1 + m))
    np.sqrt(np.einsum("ki,ki->k", avg, avg), out=r[:, 0])
    np.sqrt(np.einsum("kmi,kmi->km", out, out), out=r[:, 1:])
    # a root of a sum of squares is >= +0, so only the top needs a clip
    np.minimum(r, 1.0, out=r)
    s = entropy_kernel(0.5 * (1.0 - r))
    value = -(s[:, 0] - np.einsum("km,km->k", w, s[:, 1:]))
    return _Forward(value, sin, cos, w, frac, out, avg, r, s)


def _chi_gradient(M: np.ndarray, fw: _Forward, rows) -> np.ndarray:
    """Gradient of the negated Holevo quantity at the points ``rows`` of
    a forward pass, from its stored intermediates.

    With average output a = sum_k w_k o_k,

        dchi/do_k = w_k (q(|a|) a - q(|o_k|) o_k),
        dchi/dw_k = q(|a|) a.o_k - S(|o_k|) = G_k,
        dchi/dl_i = (1 - s_i) w_i G_i - s_i sum_{j>i} w_j G_j,

    with s_i = sigmoid(l_i); dchi/do_k is pulled back through M^T and
    the angle derivatives of n_k.
    """
    sin, cos, w, frac, out, avg, r, s = (np.take(a, rows, axis=0) for a in fw[1:])
    k, m = w.shape
    st, sp, ct, cp = sin[:, 0::2], sin[:, 1::2], cos[:, 0::2], cos[:, 1::2]
    q = _entropy_slope(r)
    qa = q[:, :1] * avg
    qo = q[:, 1:, None] * out
    g_n = ((w[..., None] * (qa[:, None, :] - qo)).reshape(-1, 3) @ M).reshape(k, m, 3)
    d_th = (g_n[..., 0] * cp + g_n[..., 1] * sp) * ct - g_n[..., 2] * st
    d_ph = (g_n[..., 1] * cp - g_n[..., 0] * sp) * st
    wg = w * (np.einsum("ki,kmi->km", qa, out) - s[:, 1:])
    later = np.cumsum(wg[:, :0:-1], axis=1)[:, ::-1]
    d_l = (1.0 - frac) * wg[:, :-1] - frac * later
    grad = np.empty((k, 3 * m - 1))
    np.negative(d_th, out=grad[:, 0:2 * m:2])
    np.negative(d_ph, out=grad[:, 1:2 * m:2])
    np.negative(d_l, out=grad[:, 2 * m:])
    return grad


def _chi_objective(M: np.ndarray, t: np.ndarray):
    """The ``bfgs_batch`` objective: values of a batch and a callable
    that takes the gradient at chosen rows from the same forward pass."""

    def func(params: np.ndarray):
        fw = _chi_forward(M, t, params)
        return fw.value, lambda rows: _chi_gradient(M, fw, rows)

    return func


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


def chi_capacity_numeric(channel: ChannelLike,
                         config: Optional[ChiConfig] = None) -> ChiResult:
    """Maximize the Holevo quantity over ensembles of pure states.

    A family channel (``PauliChannelParams``) with no ``config`` is
    solved exactly by its one-dimensional reduction (``_family_chi``);
    a ``config``, or any other channel, runs the multistart search.

    Ensembles of 2 to 4 pure states are sufficient at qubit scale; each
    size gets a batch of seeded random starts, all drawn from one
    generator in ``sizes`` order.
    Each size's starts are refined as one lockstep BFGS batch on the
    closed-form gradient.  The best value across all starts and sizes
    is returned together with the maximizing ensemble; ties go to the
    earlier size and start.  ``converged`` records whether that start
    met a stopping rule rather than the iteration cap, and
    ``iterations`` sums the iterations of the sizes' batches.
    """
    if config is None and isinstance(channel, PauliChannelParams):
        return _family_chi(channel)
    cfg = config or ChiConfig()
    ptm = _as_ptm(channel)
    M = np.ascontiguousarray(ptm[1:, 1:])
    t = ptm[1:, 0]
    rng = np.random.default_rng(cfg.seed)
    best, iterations = None, 0
    for m in cfg.sizes:
        res = bfgs_batch(_chi_objective(M, t), _random_starts(rng, m, cfg.starts),
                         xatol=cfg.xatol, fatol=cfg.fatol, max_iter=cfg.max_iter)
        iterations += res.iterations
        k = int(np.argmin(res.fun))
        if best is None or res.fun[k] < best[0]:
            best = (res.fun[k], res.x[k], res.converged[k], m)
    fun, x, converged, m = best
    return ChiResult(float(-fun), _params_to_ensemble(x, m), bool(converged), iterations)


def _family_profile(params: PauliChannelParams, z: np.ndarray
                    ) -> tuple[np.ndarray, np.ndarray]:
    # at input heights z: the least output entropy S(r(z)), reached on
    # the axis of l = max(|lambda1|, |lambda2|), and the entropy
    # S(|lambda3 z + t3|) of a +- pair's average output; one entropy call
    # takes both rows
    lam = max(abs(params.lambda1), abs(params.lambda2))
    height = params.lambda3 * z + params.t3
    r = np.empty((2, len(z)))
    np.sqrt(lam * lam * (1.0 - z * z) + height * height, out=r[0])
    np.abs(height, out=r[1])
    s, s_avg = entropy_kernel(0.5 * (1.0 - np.minimum(r, 1.0)))
    return s, s_avg


def _lower_hull(z: np.ndarray, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vertices of the lower convex hull of the points (z, s), z strictly
    ascending, by the monotone chain; collinear points are dropped.

    The chain keeps every point until the first consecutive triple that
    fails its convexity test, so that test is taken on all triples at
    once and the chain starts from the prefix before it; the Python loop
    runs only from there.  With no such triple the hull is every point,
    and ``z`` and ``s`` themselves are returned.
    """
    dz, ds = z[1:-1] - z[:-2], s[1:-1] - s[:-2]
    pops = np.flatnonzero(dz * (s[2:] - s[:-2]) <= ds * (z[2:] - z[:-2]))
    if len(pops) == 0:
        return z, s
    first = int(pops[0]) + 2  # the first point whose arrival pops
    hx, hy = z[:first].tolist(), s[:first].tolist()
    for x, y in zip(z[first:].tolist(), s[first:].tolist()):
        while len(hx) >= 2 and ((hx[-1] - hx[-2]) * (y - hy[-2])
                                <= (hy[-1] - hy[-2]) * (x - hx[-2])):
            hx.pop()
            hy.pop()
        hx.append(x)
        hy.append(y)
    return np.array(hx), np.array(hy)


_NEWTON_CAP = 50     # Newton steps per solve, far above the few it takes
_TANGENT_TOL = 1e-11  # tangent residual below which a solve counts as converged


def _least_entropy(params: PauliChannelParams, z: float) -> tuple[float, float, float]:
    # s(z) = S(r(z)), the least output entropy at input height z, and
    # its first two derivatives: with g = r r' = (lambda3^2 - l^2) z +
    # lambda3 t3 and q(r) = atanh(r)/r, s' = -q g/ln 2 and
    # s'' = -(q'(r) g^2/r + q (lambda3^2 - l^2))/ln 2; r is clipped as in
    # _entropy_slope, and q'(r)/r takes its series below r = 1e-2, where
    # the closed form cancels
    lam = max(abs(params.lambda1), abs(params.lambda2))
    height = params.lambda3 * z + params.t3
    r = min(math.sqrt(lam * lam * (1.0 - z * z) + height * height), 1.0)
    curve = params.lambda3 * params.lambda3 - lam * lam
    g = curve * z + params.lambda3 * params.t3
    rc = min(r, _R_MAX)
    r2 = rc * rc
    if rc < 1e-2:
        q = 1.0 + r2 / 3.0 + r2 * r2 / 5.0
        dq_r = 2.0 / 3.0 + 0.8 * r2 + 6.0 / 7.0 * r2 * r2
    else:
        q = math.atanh(rc) / rc
        dq_r = (rc / (1.0 - r2) - math.atanh(rc)) / (r2 * rc)
    s = float(binary_entropy(0.5 * (1.0 - r)))
    return s, _Q0 * q * g, _Q0 * (dq_r * g * g + q * curve)


class _Heights(NamedTuple):
    """The exact family solution: +- pairs at heights a <= b (a == b for
    a single pair), the average height z between them, the envelope's
    slope there, the Newton steps taken and the final tangent residual."""

    a: float
    b: float
    z: float
    slope: float
    steps: int
    residual: float


def _rising_root(f, lo: float, hi: float, z: float):
    """Newton from z on an f that rises through one root in (lo, hi):
    ``f(z)`` gives the value, the derivative and a by-product.  Steps
    that leave the shrinking bracket, or a slope <= 0, bisect instead.
    Returns the last z, its by-product, the steps and |f(z)|."""
    steps, last = 0, math.inf
    while True:
        value, slope, extra = f(z)
        residual = abs(value)
        # stop at a root, at the cap, or once a converged residual stops
        # falling: it has reached the rounding floor
        if (residual == 0.0 or steps == _NEWTON_CAP
                or residual <= _TANGENT_TOL and residual >= last):
            return z, extra, steps, residual
        last = residual
        lo, hi = (lo, z) if value > 0.0 else (z, hi)
        step = value / slope if slope > 0.0 else math.inf
        z = z - step if lo < z - step < hi else 0.5 * (lo + hi)
        steps += 1


def _best_height(params: PauliChannelParams, m: float) -> float:
    # the height where S_avg' = m, (tanh(-m ln 2/lambda3) - t3)/lambda3;
    # with lambda3 = 0 the average entropy is flat, and the best height
    # is the end of the segment where the envelope is lower
    if params.lambda3 == 0.0:
        return -math.inf if m >= 0.0 else math.inf
    return (math.tanh(-m * _LN2 / params.lambda3) - params.t3) / params.lambda3


def _family_heights(params: PauliChannelParams) -> _Heights:
    """The heights of the family chi's ensemble, from a closed-form case
    split on the shape of s and at most two scalar Newton solves.

    With l = max(|lambda1|, |lambda2|), x = r(z)^2 is a quadratic in z
    with leading coefficient C = lambda3^2 - l^2, and s = F(x) for the
    concave, falling F(x) = S(sqrt(x)): s'' = 2C (F' + 2F''(x - x_v)), x_v
    the quadratic's vertex value.  So s is concave if C >= 0; if C < 0,
    s'' < 0 exactly where 2(x_v - x) > rho(x) = F'/F'', and rho' < -2 on
    [0, 1): with r = sqrt(x), A = atanh(r) and a = A(1 - x)/r < 1,
    rho' + 2 = -G(r)/(r (1 - a)^2) for
    G(r) = (3 - r^2) A - 3r = sum_{k >= 2} 4(k - 1)/(4k^2 - 1) r^(2k + 1) > 0.
    So s is concave on at most one interval, which touches the end of
    [-1, 1] where x is larger, and the signs of s'' at the ends fix the
    lower convex envelope: the chord from -1 to 1 if C >= 0 or both are
    negative; s itself if both are >= 0, where the best height is a
    single pair with S_avg' = s'; else the bitangent pinned at the
    concave end, or the chord if that supports s at the other end.  On a
    chord or bitangent of slope m the best height is where S_avg' = m
    (``_best_height``), clipped to the segment; past the bitangent's free
    end it is a single pair again.
    """

    def gap(z):
        # s' - S_avg' and its derivative, where S_avg(z) = S(|u|) for
        # u = lambda3 z + t3 has S_avg' = -lambda3 atanh(u)/ln 2; it rises
        # where the envelope is s, as S_avg - s is concave there
        _, ds, hs = _least_entropy(params, z)
        u = min(max(params.lambda3 * z + params.t3, -_R_MAX), _R_MAX)
        return (ds - _Q0 * params.lambda3 * math.atanh(u),
                hs - _Q0 * params.lambda3 ** 2 / (1.0 - u * u), ds)

    def pair(lo, hi, z):
        z, slope, steps, residual = _rising_root(gap, lo, hi, z)
        return _Heights(z, z, z, slope, steps, residual)

    s_lo, ds_lo, hs_lo = _least_entropy(params, -1.0)
    s_hi, ds_hi, hs_hi = _least_entropy(params, 1.0)
    lam = max(abs(params.lambda1), abs(params.lambda2))
    concave = params.lambda3 * params.lambda3 >= lam * lam
    chord = 0.5 * (s_hi - s_lo)
    best = min(max(_best_height(params, chord), -1.0), 1.0)
    if not concave and hs_lo >= 0.0 and hs_hi >= 0.0:
        # with lambda3 = 0, s is even and the root is z = 0
        return pair(-1.0, 1.0, best if params.lambda3 else 0.0)
    # s'' < 0 at the end e only: the bitangent pinned at e touches s where
    # phi(y) = s'(y) - (s(e) - s(y))/(e - y) = 0.  (e - y) phi(y) vanishes
    # at e and has derivative s''(y)(e - y), so phi rises through one root
    # in (-1, 1), unless the chord supports s at the far end
    e, s_e, ds_far = (1.0, s_hi, ds_lo) if hs_hi < 0.0 else (-1.0, s_lo, ds_hi)
    if concave or hs_lo < 0.0 and hs_hi < 0.0 or (ds_far - chord) * e >= 0.0:
        return _Heights(-1.0, 1.0, best, chord, 0, 0.0)

    def tangent(y):
        s, ds, hs = _least_entropy(params, y)
        m = (s_e - s) / (e - y)
        return ds - m, hs + (ds - m) / (e - y), m

    y, m, steps, residual = _rising_root(tangent, -1.0, 1.0, 0.0)
    a, b = (y, 1.0) if e > 0.0 else (-1.0, y)
    best = _best_height(params, m)
    if best < a and e > 0.0 or best > b and e < 0.0:
        single = pair(-1.0, a, a) if e > 0.0 else pair(b, 1.0, b)
        return single._replace(steps=steps + single.steps)
    return _Heights(a, b, min(max(best, a), b), m, steps, residual)


def _family_chi(params: PauliChannelParams) -> ChiResult:
    """Chi-capacity of a family channel from its one-dimensional
    reduction (see ``chi_capacity_grid_oracle``), with its ensemble.

    ``_family_heights`` gives the heights a <= b and the best average
    height z between them, by a case split and Newton on the tangent
    conditions.  The ensemble is a +- pair of states at height a with
    weight w = (b - z)/(b - a) and one at height b with weight 1 - w (a
    single pair when a = b), each in the plane of the z axis and the
    axis of l.  The value is the Holevo quantity of that ensemble, a
    lower bound on chi whose error is second order in the Newton
    residual; ``iterations`` counts the Newton steps, and ``converged``
    says whether the tangent residual met its tolerance.
    """
    a, b, z, _, steps, residual = _family_heights(params)
    w = (b - z) / (b - a) if b > a else 1.0
    rows, weights = [], []
    for height, weight in ((a, w), (b, 1.0 - w)):
        if weight > 0.0:
            side = math.sqrt(max(1.0 - height * height, 0.0))
            rows += [[side, 0.0, height], [-side, 0.0, height]]
            weights += [0.5 * weight] * 2
    states = np.array(rows)
    if abs(params.lambda1) < abs(params.lambda2):
        states = states[:, [1, 0, 2]]  # the states lie in the plane of l's axis
    # the solver's own unit states: Ensemble's copies and checks are skipped
    ensemble = object.__new__(Ensemble)
    for name, array in (("weights", np.array(weights)), ("states", states)):
        array.flags.writeable = False
        object.__setattr__(ensemble, name, array)
    return ChiResult(holevo_quantity(params, ensemble), ensemble,
                     residual <= _TANGENT_TOL, steps)


def chi_capacity_grid_oracle(params: PauliChannelParams) -> float:
    """Chi-capacity of a family channel by its exact one-dimensional
    reduction on a dense grid; the independent cross-check of
    ``_family_chi`` and the search.

    Averaging an ensemble over the reflections (x, y) -> (+-x, +-y),
    which commute with the channel, keeps every output entropy and moves
    the average output onto the z axis, raising its entropy if anything.
    At input height z the purest output lies on the axis of
    l = max(|lambda1|, |lambda2|), so with S(r) = h((1 - r)/2) and
    r(z)^2 = l^2 (1 - z^2) + (lambda3 z + t3)^2,
    chi = max_z S(|lambda3 z + t3|) - conv S(r(z)), conv the lower convex
    envelope on [-1, 1].  On a grid each envelope value is attained by
    two heights, each a +- pair of states, so the grid value is a lower
    bound on chi that converges quadratically in the grid step.
    """
    z = np.arange(-100_000, 100_001) / 100_000  # 200 001 heights, z = 0 exact
    s, s_avg = _family_profile(params, z)
    hx, hy = _lower_hull(z, s)
    return float(np.max(s_avg - np.interp(z, hx, hy)))
