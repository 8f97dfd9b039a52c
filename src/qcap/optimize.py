"""Vectorized batch minimizers for small search dimensions.

Every member of a batch advances in lockstep, so the objective is only
ever called on stacked 2-D arrays.  This keeps the per-iteration cost
dominated by a handful of vectorized array operations instead of Python
overhead, which matters when the objective itself is a few microseconds.

``bfgs_batch`` is a quasi-Newton method for smooth objectives that
supply their gradient; ``nelder_mead_batch`` is a derivative-free
simplex search.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

# standard simplex coefficients: reflection, expansion, contraction, shrink
_RHO, _CHI, _PSI, _SIGMA = 1.0, 2.0, 0.5, 0.5
_NONZDELT, _ZDELT = 0.05, 0.00025

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


def _initial_simplex(x0: np.ndarray) -> np.ndarray:
    batch, n = x0.shape
    sim = np.repeat(x0[:, None, :], n + 1, axis=1)
    for k in range(n):
        col = sim[:, k + 1, k]
        sim[:, k + 1, k] = np.where(col != 0.0, col * (1.0 + _NONZDELT), _ZDELT)
    return sim


def nelder_mead_batch(
    func: Callable[[np.ndarray], np.ndarray],
    x0: np.ndarray,
    xatol: float = 1e-9,
    fatol: float = 0.0,
    max_iter: int | None = None,
) -> BatchResult:
    """Minimize ``func`` independently for every row of ``x0``.

    ``func`` must map a (k, n) array of points to a length-k vector of
    values, for any k.  A member converges once its simplex diameter
    falls below ``xatol`` or its value spread falls to ``fatol``.
    """
    x0 = np.atleast_2d(np.asarray(x0, dtype=float))
    batch, n = x0.shape
    if max_iter is None:
        max_iter = 400 * n

    sim = _initial_simplex(x0)
    fsim = func(sim.reshape(-1, n)).reshape(batch, n + 1)
    still_open = np.ones(batch, dtype=bool)
    it = 0

    for it in range(1, max_iter + 1):
        act = np.flatnonzero(still_open)
        if act.size == 0:
            break
        s = sim[act]
        f = fsim[act]
        order = np.argsort(f, axis=1, kind="stable")
        s = np.take_along_axis(s, order[:, :, None], axis=1)
        f = np.take_along_axis(f, order, axis=1)
        sim[act] = s
        fsim[act] = f

        xspread = np.max(np.abs(s[:, 1:, :] - s[:, :1, :]), axis=(1, 2))
        fspread = f[:, -1] - f[:, 0]
        done = (xspread <= xatol) | (fspread <= fatol)
        if np.any(done):
            still_open[act[done]] = False
            act = act[~done]
            if act.size == 0:
                continue
            s = s[~done]
            f = f[~done]

        xbar = s[:, :n, :].mean(axis=1)
        worst = s[:, n, :]
        step = xbar - worst
        xr = xbar + _RHO * step
        xe = xbar + _RHO * _CHI * step
        xoc = xbar + _PSI * _RHO * step
        xic = xbar - _PSI * step
        cand = np.stack([xr, xe, xoc, xic], axis=1)
        fc = func(cand.reshape(-1, n)).reshape(-1, 4)
        fr, fe, foc, fic = fc[:, 0], fc[:, 1], fc[:, 2], fc[:, 3]

        f0, fsec, fworst = f[:, 0], f[:, n - 1], f[:, n]
        use_xe = (fr < f0) & (fe < fr)
        use_xr = ((fr < f0) & ~(fe < fr)) | (~(fr < f0) & (fr < fsec))
        use_oc = ~(fr < fsec) & (fr < fworst) & (foc <= fr)
        use_ic = ~(fr < fsec) & ~(fr < fworst) & (fic < fworst)
        shrink = ~(fr < fsec) & ~use_oc & ~use_ic

        accept = ~shrink
        if np.any(accept):
            pick = np.zeros(len(f), dtype=int)
            pick[use_xe] = 1
            pick[use_oc] = 2
            pick[use_ic] = 3
            rows = np.flatnonzero(accept)
            s[rows, n, :] = cand[rows, pick[rows], :]
            f[rows, n] = fc[rows, pick[rows]]
        if np.any(shrink):
            rows = np.flatnonzero(shrink)
            shrunk = s[rows, :1, :] + _SIGMA * (s[rows, 1:, :] - s[rows, :1, :])
            s[rows, 1:, :] = shrunk
            f[rows, 1:] = func(shrunk.reshape(-1, n)).reshape(len(rows), n)

        sim[act] = s
        fsim[act] = f

    order = np.argsort(fsim, axis=1, kind="stable")
    sim = np.take_along_axis(sim, order[:, :, None], axis=1)
    fsim = np.take_along_axis(fsim, order, axis=1)
    return BatchResult(sim[:, 0, :], fsim[:, 0], ~still_open, it)
