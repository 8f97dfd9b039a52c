"""Vectorized batch quasi-Newton minimizer for small search dimensions.

Every member of a batch advances in lockstep, so the objective is only
ever called on stacked 2-D arrays.  This keeps the per-iteration cost
dominated by a handful of vectorized array operations instead of Python
overhead, which matters when the objective itself is a few microseconds.
Each iteration makes one objective call, on every trial step of every
open member, and takes the gradient at the accepted steps from that
call instead of evaluating the objective again.  Members leave the
working arrays as they stop.  ``bfgs_batch`` needs a smooth objective
that supplies its gradient; the chi-capacity search is its only caller.
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
    """Each member's best point and value and whether it met a stopping
    rule, and the iterations the batch ran."""

    x: np.ndarray          # (batch, n) best point per member
    fun: np.ndarray        # (batch,) best value per member
    converged: np.ndarray  # (batch,) bool: met a stopping rule before max_iter
    iterations: int        # lockstep iterations run: the last one any member was open


def bfgs_batch(
    func: Callable[[np.ndarray], tuple],
    x0: np.ndarray,
    xatol: float = 1e-9,
    fatol: float = 0.0,
    max_iter: int | None = None,
) -> BatchResult:
    """Minimize a smooth ``func`` independently for every row of ``x0``.

    ``func(x)`` maps a (k, n) array of points to a length-k vector of
    values and a callable ``gradient(rows)`` that returns the
    (len(rows), n) gradients at ``x[rows]``; it must accept any k.

    Each iteration evaluates the steps ``alpha = 2^8 ... 2^-11`` along
    the quasi-Newton direction ``-H g`` of every open member in one call
    and takes the lowest value among those meeting the Armijo condition;
    ``-g`` replaces a direction that does not descend.  The gradient is
    asked of that same call, at the accepted steps only.  The inverse
    Hessian estimate ``H`` starts as the identity, is rescaled by
    ``s.y / y.y`` at the first update, and skips updates with
    ``s.y <= 0``.  A member stops when no trial step is accepted, when
    its step is at most ``xatol`` in every coordinate, or when its
    decrease is at most ``fatol``; otherwise it runs for ``max_iter``
    iterations (200 when ``None``).
    """
    x_best = np.array(np.atleast_2d(x0), dtype=float)
    batch, n = x_best.shape
    if max_iter is None:
        max_iter = _BFGS_MAX_ITER
    steps = len(_LADDER)

    # working arrays: open members only
    live = np.arange(batch)
    f_best, gradient = func(x_best)
    f_best = np.array(f_best, dtype=float)
    x, f = x_best.copy(), f_best.copy()
    g = np.array(gradient(live), dtype=float)
    H = np.repeat(np.eye(n)[None], batch, axis=0)
    scaled = np.zeros(batch, dtype=bool)
    converged = np.zeros(batch, dtype=bool)
    it = 0

    while it < max_iter and live.size:
        it += 1
        d = -np.einsum("kij,kj->ki", H, g)
        slope = np.einsum("ki,ki->k", d, g)
        uphill = ~(slope < 0.0)
        if uphill.any():
            d[uphill] = -g[uphill]
            slope[uphill] = -np.einsum("ki,ki->k", g[uphill], g[uphill])

        trial = x[:, None, :] + _LADDER[:, None] * d[:, None, :]
        ft, gradient = func(trial.reshape(-1, n))
        ft = ft.reshape(len(live), steps)
        ok = ft <= f[:, None] + _ARMIJO * _LADDER * slope[:, None]
        pick = np.argmin(np.where(ok, ft, np.inf), axis=1)
        took = np.flatnonzero(ok[np.arange(len(live)), pick])
        done = np.ones(len(live), dtype=bool)

        if took.size:
            at = took * steps + pick[took]
            xn = trial.reshape(-1, n)[at]
            fn = ft.reshape(-1)[at]
            gn = np.asarray(gradient(at), dtype=float)
            s = xn - x[took]
            y = gn - g[took]
            sy = np.einsum("ki,ki->k", s, y)

            upd = sy > 0.0
            if upd.any():
                iu = took[upd]
                su, yu, rho = s[upd], y[upd], 1.0 / sy[upd]
                Hu = H[iu]
                first = ~scaled[iu]
                if first.any():
                    Hu[first] *= (sy[upd][first] / np.einsum(
                        "ki,ki->k", yu[first], yu[first]))[:, None, None]
                    scaled[iu] = True
                Hy = np.einsum("kij,kj->ki", Hu, yu)
                yHy = np.einsum("ki,ki->k", yu, Hy)
                # H -= rho (s Hy^T + Hy s^T); H += (rho^2 y.Hy + rho) s s^T
                step = su[:, :, None] * Hy[:, None, :]
                step += Hy[:, :, None] * su[:, None, :]
                step *= rho[:, None, None]
                Hu -= step
                np.multiply((rho * rho * yHy + rho)[:, None, None] * su[:, :, None],
                            su[:, None, :], out=step)
                Hu += step
                H[iu] = Hu

            done[took] = (np.abs(s).max(axis=1) <= xatol) | (f[took] - fn <= fatol)
            x[took] = xn
            f[took] = fn
            g[took] = gn
        gradient = None  # frees this pass's intermediates before the next

        if done.any():
            out = live[done]
            x_best[out] = x[done]
            f_best[out] = f[done]
            converged[out] = True
            keep = ~done
            live, x, f, g, H, scaled = (a[keep] for a in (live, x, f, g, H, scaled))

    x_best[live] = x
    f_best[live] = f
    return BatchResult(x_best, f_best, converged, it)
