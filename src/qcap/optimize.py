"""Vectorized batch quasi-Newton minimizer for small search dimensions.

Every member of a batch advances in lockstep, so the objective is only
ever called on stacked 2-D arrays.  This keeps the per-iteration cost
dominated by a handful of vectorized array operations instead of Python
overhead, which matters when the objective itself is a few microseconds.
Each iteration makes one objective call, on every trial step of every
open member, and takes the gradient at the accepted steps from that
call instead of evaluating the objective again.  Members may hold some
coordinates fixed, and members leave the working arrays as they stop.
``bfgs_batch`` needs a smooth objective that supplies its gradient; the
chi-capacity search is its only caller.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Optional

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
    iterations: int        # lockstep iterations run, the largest of ``stopped``
    stopped: np.ndarray    # (batch,) iteration in which each member stopped


class _Groups:
    """Members that free the same coordinates, as row spans of the
    working arrays.

    The working arrays hold each member's free coordinates as a prefix
    of ``width`` columns, zero beyond them, with the rows sorted by
    group.  Every reduction over coordinates runs per group, on the
    group's own columns: numpy sums a zero-padded row in another order,
    which would change the last bits of a member's path.
    """

    def __init__(self, free: np.ndarray):
        masks, member_of = np.unique(free, axis=0, return_inverse=True)
        self.member_of = member_of.reshape(-1)
        self.widths = [int(mask.sum()) for mask in masks]
        self.width = max(self.widths)
        # each group's free columns as runs (prefix start, column, length)
        self.runs = []
        for mask in masks:
            edges = np.flatnonzero(np.diff(np.concatenate([[0], mask, [0]]).astype(int)))
            starts, stops = edges[::2], edges[1::2]
            prefix = np.concatenate([[0], np.cumsum(stops - starts)[:-1]])
            self.runs.append(list(zip(prefix.tolist(), starts.tolist(),
                                      (stops - starts).tolist())))
        self.edges = np.arange(len(masks) + 1)

    def spans(self, ids: np.ndarray) -> list[tuple[int, int, int]]:
        """(start, stop, group) for each group present in sorted ``ids``."""
        b = np.searchsorted(ids, self.edges).tolist()
        return [(b[j], b[j + 1], j) for j in range(len(b) - 1) if b[j] < b[j + 1]]

    def dot(self, a: np.ndarray, b: np.ndarray, spans) -> np.ndarray:
        out = np.empty(len(a))
        for lo, hi, j in spans:
            w = self.widths[j]
            out[lo:hi] = np.einsum("ki,ki->k", a[lo:hi, :w], b[lo:hi, :w])
        return out

    def matvec(self, H: np.ndarray, v: np.ndarray, spans) -> np.ndarray:
        out = np.zeros_like(v)
        for lo, hi, j in spans:
            w = self.widths[j]
            out[lo:hi, :w] = np.einsum("kij,kj->ki", H[lo:hi, :w, :w], v[lo:hi, :w])
        return out

    def to_free(self, full: np.ndarray, spans) -> np.ndarray:
        """Rows in the caller's layout -> free-coordinate prefixes."""
        out = np.zeros((len(full), self.width))
        for lo, hi, j in spans:
            for src, col, length in self.runs[j]:
                out[lo:hi, src:src + length] = full[lo:hi, col:col + length]
        return out

    def to_full(self, x: np.ndarray, base: np.ndarray, spans) -> np.ndarray:
        """Free-coordinate prefixes (k, ..., width) -> caller's layout,
        the fixed coordinates taken from ``base`` (k, n)."""
        n = base.shape[-1]
        full = np.empty(x.shape[:-1] + (n,))
        for lo, hi, j in spans:
            if self.widths[j] < n:
                full[lo:hi] = base[lo:hi].reshape((hi - lo,) + (1,) * (x.ndim - 2) + (-1,))
            for src, col, length in self.runs[j]:
                full[lo:hi, ..., col:col + length] = x[lo:hi, ..., src:src + length]
        return full


class _Plain:
    """Members that all move every coordinate: one group spanning the
    whole working arrays, so each reduction is one call and no copy is
    made.  It has the interface of ``_Groups``, whose per-group slices
    and copies would add a fifth to a small single-size chi solve."""

    def __init__(self, batch: int, n: int):
        self.member_of = np.zeros(batch, dtype=int)
        self.width = n

    def spans(self, ids: np.ndarray) -> None:
        return None

    def dot(self, a: np.ndarray, b: np.ndarray, spans) -> np.ndarray:
        return np.einsum("ki,ki->k", a, b)

    def matvec(self, H: np.ndarray, v: np.ndarray, spans) -> np.ndarray:
        return np.einsum("kij,kj->ki", H, v)

    def to_free(self, full: np.ndarray, spans) -> np.ndarray:
        return full

    def to_full(self, x: np.ndarray, base: np.ndarray, spans) -> np.ndarray:
        return x


def bfgs_batch(
    func: Callable[[np.ndarray], tuple],
    x0: np.ndarray,
    xatol: float = 1e-9,
    fatol: float = 0.0,
    max_iter: int | None = None,
    free: Optional[np.ndarray] = None,
) -> BatchResult:
    """Minimize a smooth ``func`` independently for every row of ``x0``.

    ``func(x)`` maps a (k, n) array of points to a length-k vector of
    values and a callable ``gradient(rows)`` that returns the
    (len(rows), n) gradients at ``x[rows]``; it must accept any k.
    ``free``, a (batch, n) boolean mask, lets each member move only its
    own coordinates; the others keep their ``x0`` values.  The
    quasi-Newton algebra of a member runs on its free coordinates only,
    so its fixed coordinates never enter a reduction.

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
    iterations (200 when ``None``).  ``stopped`` records the iteration
    in which each member stopped (the last one run for a member still
    open at the cap).
    """
    x_best = np.array(np.atleast_2d(x0), dtype=float)
    batch, n = x_best.shape
    if max_iter is None:
        max_iter = _BFGS_MAX_ITER
    free = np.ones((batch, n), dtype=bool) if free is None else np.asarray(free, dtype=bool)
    groups = _Plain(batch, n) if free.all() else _Groups(free)
    steps = len(_LADDER)

    # working arrays: open members only, sorted by group
    live = np.argsort(groups.member_of, kind="stable")
    gid = groups.member_of[live]
    spans = groups.spans(gid)
    base = x_best[live]
    f_best, gradient = func(x_best)
    f_best = np.array(f_best, dtype=float)
    f = f_best[live]
    x = groups.to_free(base, spans)
    g = groups.to_free(np.array(gradient(live), dtype=float), spans)
    H = np.repeat(np.eye(groups.width)[None], batch, axis=0)
    scaled = np.zeros(batch, dtype=bool)
    converged = np.zeros(batch, dtype=bool)
    stopped = np.zeros(batch, dtype=int)
    it = 0

    while it < max_iter and live.size:
        it += 1
        d = -groups.matvec(H, g, spans)
        slope = groups.dot(d, g, spans)
        uphill = ~(slope < 0.0)
        if uphill.any():
            d[uphill] = -g[uphill]
            slope[uphill] = -groups.dot(g[uphill], g[uphill], groups.spans(gid[uphill]))

        trial = x[:, None, :] + _LADDER[:, None] * d[:, None, :]
        ft, gradient = func(groups.to_full(trial, base, spans).reshape(-1, n))
        ft = ft.reshape(len(live), steps)
        ok = ft <= f[:, None] + _ARMIJO * _LADDER * slope[:, None]
        pick = np.argmin(np.where(ok, ft, np.inf), axis=1)
        took = np.flatnonzero(ok[np.arange(len(live)), pick])
        done = np.ones(len(live), dtype=bool)

        if took.size:
            at = took * steps + pick[took]
            took_spans = groups.spans(gid[took])
            xn = trial.reshape(-1, groups.width)[at]
            fn = ft.reshape(-1)[at]
            gn = groups.to_free(np.asarray(gradient(at), dtype=float), took_spans)
            s = xn - x[took]
            y = gn - g[took]
            sy = groups.dot(s, y, took_spans)

            upd = sy > 0.0
            if upd.any():
                iu = took[upd]
                upd_spans = groups.spans(gid[iu])
                su, yu, rho = s[upd], y[upd], 1.0 / sy[upd]
                Hu = H[iu]
                first = ~scaled[iu]
                if first.any():
                    Hu[first] *= (sy[upd][first] / groups.dot(
                        yu[first], yu[first], groups.spans(gid[iu[first]])))[:, None, None]
                    scaled[iu] = True
                Hy = groups.matvec(Hu, yu, upd_spans)
                yHy = groups.dot(yu, Hy, upd_spans)
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
            x_best[out] = groups.to_full(x[done], base[done], groups.spans(gid[done]))
            f_best[out] = f[done]
            converged[out] = True
            stopped[out] = it
            keep = ~done
            live, gid, base, x, f, g, H, scaled = (
                a[keep] for a in (live, gid, base, x, f, g, H, scaled))
            spans = groups.spans(gid)

    x_best[live] = groups.to_full(x, base, spans)
    f_best[live] = f
    stopped[live] = it
    return BatchResult(x_best, f_best, converged, it, stopped)
