"""Vectorized batch quasi-Newton minimizer for small search dimensions.

Every member of a batch advances in lockstep, so the objective is only
ever called on stacked 2-D arrays.  This keeps the per-iteration cost
dominated by a handful of vectorized array operations instead of Python
overhead, which matters when the objective itself is a few microseconds.
``bfgs_batch`` needs a smooth objective that supplies its gradient; the
chi-capacity search is its only caller.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

# BFGS trial steps along the search direction, expanding as well as
# backtracking: a ladder that only backtracks from 1 stalls on the
# nonconvex start region of the Holevo objective
_LADDER = 2.0 ** np.arange(8, -12, -1)
_ARMIJO = 1e-4
_BFGS_MAX_ITER = 200


class BatchResult(NamedTuple):
    x: np.ndarray          # (batch, n) best point per member
    fun: np.ndarray        # (batch,) best value per member
    converged: np.ndarray  # (batch,) bool: met a stopping rule before max_iter
    iterations: int


def bfgs_batch(
    func: Callable[..., object],
    x0: np.ndarray,
    xatol: float = 1e-9,
    fatol: float = 0.0,
    max_iter: int | None = None,
) -> BatchResult:
    """Minimize a smooth ``func`` independently for every row of ``x0``.

    ``func(x, grad=True)`` maps a (k, n) array of points to a length-k
    vector of values and a (k, n) array of gradients; ``func(x,
    grad=False)`` returns the values alone.  Both must accept any k.

    Each iteration evaluates the steps ``alpha = 2^8 ... 2^-11`` along
    the quasi-Newton direction ``-H g`` in one call and takes the lowest
    value among those meeting the Armijo condition; ``-g`` replaces a
    direction that does not descend.  The inverse Hessian estimate ``H``
    starts as the identity, is rescaled by ``s.y / y.y`` at the first
    update, and skips updates with ``s.y <= 0``.  A member stops when no
    trial step is accepted, when its step is at most ``xatol`` in every
    coordinate, or when its decrease is at most ``fatol``; otherwise it
    runs for ``max_iter`` iterations (200 when ``None``).
    """
    x = np.array(np.atleast_2d(x0), dtype=float)
    batch, n = x.shape
    if max_iter is None:
        max_iter = _BFGS_MAX_ITER

    f, g = func(x, grad=True)
    f = np.array(f, dtype=float)
    g = np.array(g, dtype=float)
    H = np.repeat(np.eye(n)[None], batch, axis=0)
    scaled = np.zeros(batch, dtype=bool)
    still_open = np.ones(batch, dtype=bool)
    it = 0

    while it < max_iter and np.any(still_open):
        it += 1
        act = np.flatnonzero(still_open)
        xa, fa, ga = x[act], f[act], g[act]
        d = -np.einsum("kij,kj->ki", H[act], ga)
        slope = np.einsum("ki,ki->k", d, ga)
        uphill = ~(slope < 0.0)
        if np.any(uphill):
            d[uphill] = -ga[uphill]
            slope[uphill] = -np.einsum("ki,ki->k", ga[uphill], ga[uphill])

        trial = xa[:, None, :] + _LADDER[:, None] * d[:, None, :]
        ft = func(trial.reshape(-1, n), grad=False).reshape(len(act), -1)
        ok = ft <= fa[:, None] + _ARMIJO * _LADDER * slope[:, None]
        pick = np.argmin(np.where(ok, ft, np.inf), axis=1)
        rows = np.arange(len(act))
        took = ok[rows, pick]
        still_open[act[~took]] = False
        if not np.any(took):
            continue

        idx = act[took]
        xn = trial[rows[took], pick[took]]
        s = xn - xa[took]
        fn, gn = func(xn, grad=True)
        y = gn - ga[took]
        sy = np.einsum("ki,ki->k", s, y)

        upd = sy > 0.0
        if np.any(upd):
            iu = idx[upd]
            su, yu, rho = s[upd], y[upd], 1.0 / sy[upd]
            Hu = H[iu]
            first = ~scaled[iu]
            if np.any(first):
                Hu[first] *= (sy[upd][first]
                              / np.einsum("ki,ki->k", yu[first], yu[first]))[:, None, None]
                scaled[iu] = True
            Hy = np.einsum("kij,kj->ki", Hu, yu)
            yHy = np.einsum("ki,ki->k", yu, Hy)
            Hu -= rho[:, None, None] * (su[:, :, None] * Hy[:, None, :]
                                        + Hy[:, :, None] * su[:, None, :])
            Hu += ((rho * rho * yHy + rho)[:, None, None]
                   * su[:, :, None] * su[:, None, :])
            H[iu] = Hu

        done = (np.abs(s).max(axis=1) <= xatol) | (fa[took] - fn <= fatol)
        x[idx] = xn
        f[idx] = fn
        g[idx] = gn
        still_open[idx[done]] = False

    return BatchResult(x, f, ~still_open, it)
