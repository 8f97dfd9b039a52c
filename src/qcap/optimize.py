"""Vectorized batch quasi-Newton minimizer for small search dimensions.

Every member of a batch advances in lockstep, so the objective is only
ever called on stacked 2-D arrays.  This keeps the per-iteration cost
dominated by a handful of vectorized array operations instead of Python
overhead, which matters when the objective itself is a few microseconds.
Each iteration makes one objective call, on every trial step of every
open member, and takes the gradient at each member's chosen step from
that call instead of evaluating the objective again.  The step, the
inverse-Hessian update and the stopping test are computed for every
open member, and ``np.where`` keeps each result only where it applies,
so an iteration gathers no subset of the members and writes none back.
Members leave the working arrays as they stop.  ``bfgs_batch`` needs a
smooth objective that supplies its gradient; the chi-capacity search is
its only caller.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

# BFGS trial steps along the search direction, expanding as well as
# backtracking: a ladder that only backtracks from 1 stalls on the
# nonconvex start region of the Holevo objective
_LADDER = 2.0 ** np.arange(8, -12, -1)
_STEPS = _LADDER[:, None]
_ARMIJO_STEPS = 1e-4 * _LADDER  # the Armijo factor of each trial step


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
    max_iter: int = 200,
) -> BatchResult:
    """Minimize a smooth ``func`` independently for every row of ``x0``.

    ``func(x)`` maps a (k, n) array of points to a length-k vector of
    values and a callable ``gradient(rows)`` that returns the
    (len(rows), n) gradients at ``x[rows]``; it must accept any k.

    Each iteration evaluates the steps ``alpha = 2^8 ... 2^-11`` along
    the quasi-Newton direction ``-H g`` of every open member in one call
    and takes the lowest value among those meeting the Armijo condition;
    ``-g`` replaces a direction that does not descend.  The gradient is
    asked of that same call, at each open member's chosen step.  The
    inverse Hessian estimate ``H`` starts as the identity, is rescaled by
    ``s.y / y.y`` at the first update, and skips updates with
    ``s.y <= 0``.  A member stops when no trial step is accepted, when
    its step is at most ``xatol`` in every coordinate, or when its
    decrease is at most ``fatol``; otherwise it runs for ``max_iter``
    iterations.
    """
    x_best = np.array(np.atleast_2d(x0), dtype=float)
    batch, n = x_best.shape
    steps = len(_LADDER)

    # working arrays: open members only
    live = np.arange(batch)
    f_best, gradient = func(x_best)
    f_best = np.array(f_best, dtype=float)
    x, f = x_best.copy(), f_best.copy()
    g = np.array(gradient(live), dtype=float)
    H = np.repeat(np.eye(n)[None], batch, axis=0)
    scaled = np.zeros(batch, dtype=bool)
    base = np.arange(batch) * steps  # the row of each member's first trial step
    converged = np.zeros(batch, dtype=bool)
    it = 0

    while it < max_iter and live.size:
        it += 1
        d = -np.einsum("kij,kj->ki", H, g)
        slope = np.einsum("ki,ki->k", d, g)
        descends = slope < 0.0
        if not descends.all():
            uphill = ~descends
            d[uphill] = -g[uphill]
            slope[uphill] = -np.einsum("ki,ki->k", g[uphill], g[uphill])

        trial = (x[:, None, :] + _STEPS * d[:, None, :]).reshape(-1, n)
        values, gradient = func(trial)
        ft = values.reshape(-1, steps)
        ok = ft <= f[:, None] + _ARMIJO_STEPS * slope[:, None]
        pick = np.where(ok, ft, np.inf).argmin(axis=1)
        # every open member's best trial and its update, kept below only
        # where the member took that step (and s.y > 0)
        at = base[:len(ft)] + pick
        took = ok.reshape(-1)[at]
        xn, fn = trial[at], values[at]
        gn = np.asarray(gradient(at), dtype=float)
        gradient = None  # frees this pass's intermediates before the next
        s = xn - x
        y = gn - g
        sy = np.einsum("ki,ki->k", s, y)
        upd = took & (sy > 0.0)
        first = upd & ~scaled
        if first.any():
            # x * 1.0 is exact, so the other members keep their bits
            yy = np.einsum("ki,ki->k", y, y)
            H = H * np.divide(sy, yy, out=np.ones(len(sy)), where=first)[:, None, None]
            scaled |= first
        rho = np.divide(1.0, sy, out=np.zeros(len(sy)), where=upd)
        Hy = np.einsum("kij,kj->ki", H, y)
        yHy = np.einsum("ki,ki->k", y, Hy)
        # H -= rho (s Hy^T + Hy s^T); H += (rho^2 y.Hy + rho) s s^T
        sc, sr = s[:, :, None], s[:, None, :]
        step = sc * Hy[:, None, :]
        step += Hy[:, :, None] * sr
        step *= rho[:, None, None]
        Hu = H - step
        np.multiply((rho * rho * yHy + rho)[:, None, None] * sc, sr, out=step)
        Hu += step
        H = np.where(upd[:, None, None], Hu, H)

        # a member that took no step stops, so every member that stays
        # moves to its trial point
        done = ~took | (np.abs(s).max(axis=1) <= xatol) | (f - fn <= fatol)
        if done.any():
            out = live[done]
            x_best[out] = np.where(took[:, None], xn, x)[done]
            f_best[out] = np.where(took, fn, f)[done]
            converged[out] = True
            keep = ~done
            live, xn, fn, gn, H, scaled = (a[keep] for a in (live, xn, fn, gn, H, scaled))
        x, f, g = xn, fn, gn

    x_best[live] = x
    f_best[live] = f
    return BatchResult(x_best, f_best, converged, it)
