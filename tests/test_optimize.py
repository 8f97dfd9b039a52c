import numpy as np

from qcap.capacity import _chi_objective, _random_starts, gad_params
from qcap.core import _as_ptm
from qcap.optimize import bfgs_batch


def _rosenbrock(x, grad=True):
    a, b = x[:, 0], x[:, 1]
    value = (1.0 - a) ** 2 + 100.0 * (b - a * a) ** 2
    if not grad:
        return value

    def gradient(rows):
        a, b = x[rows, 0], x[rows, 1]
        da = -2.0 * (1.0 - a) - 400.0 * a * (b - a * a)
        db = 200.0 * (b - a * a)
        return np.column_stack([da, db])

    return value, gradient


def test_bfgs_batch_minimizes_every_member():
    x0 = np.array([[-1.2, 1.0], [0.0, 0.0], [2.0, -1.0], [1.0, 1.0]])
    res = bfgs_batch(_rosenbrock, x0, xatol=1e-10)
    assert np.all(res.converged)
    assert 0 < res.iterations < 200
    assert np.abs(res.x - 1.0).max() <= 1e-6
    assert res.fun.max() <= 1e-12
    # a member at the minimum stops on its first iteration without moving
    assert np.array_equal(res.x[3], [1.0, 1.0])


def test_bfgs_batch_reports_the_iteration_cap():
    res = bfgs_batch(_rosenbrock, np.array([[-1.2, 1.0]]), max_iter=3)
    assert res.iterations == 3
    assert not res.converged[0]
    assert res.fun[0] < _rosenbrock(np.array([[-1.2, 1.0]]), grad=False)[0]


def _rosenbrock_lying(x):
    # the gradient has the wrong sign where b > 5, so no trial step from
    # such a start meets the Armijo condition
    value, gradient = _rosenbrock(x)

    def lying(rows):
        g = gradient(rows)
        return np.where(x[rows, 1:] > 5.0, -g, g)

    return value, lying


def _chi_func_and_starts():
    ptm = _as_ptm(gad_params(0.3, 0.7))
    func = _chi_objective(np.ascontiguousarray(ptm[1:, 1:]), ptm[1:, 0])
    starts = _random_starts(np.random.default_rng(41), 3, 6)
    # a start at a point the search has already reached stops on its
    # first iteration
    solved = bfgs_batch(func, starts[:1], xatol=1e-9).x
    return func, np.concatenate([starts, solved])


def _assert_members_independent(func, x0, max_iter, xatol=1e-9):
    batch = bfgs_batch(func, x0, xatol=xatol, max_iter=max_iter)
    alone = [bfgs_batch(func, x0[i:i + 1], xatol=xatol, max_iter=max_iter)
             for i in range(len(x0))]
    for i, res in enumerate(alone):
        assert res.x[0].tobytes() == batch.x[i].tobytes()
        assert res.fun[0].tobytes() == batch.fun[i].tobytes()
        assert res.converged[0] == batch.converged[i]
    assert batch.iterations == max(res.iterations for res in alone)
    return batch, alone


def test_bfgs_batch_members_are_independent_of_their_batch():
    # Rosenbrock members: one at the minimum (a zero step on iteration 1),
    # two that take no Armijo step, and three that a cap of 8 stops but
    # that converge under a cap of 200
    x0 = np.array([[-1.2, 1.0], [1.0, 1.0], [2.0, 6.0], [0.5, 0.2], [-2.0, 8.0], [0.0, 0.0]])
    for max_iter in (8, 200):
        batch, alone = _assert_members_independent(_rosenbrock_lying, x0, max_iter, 1e-10)
        for i in (1, 2, 4):
            assert alone[i].iterations == 1 and alone[i].converged[0]
            assert np.array_equal(alone[i].x[0], x0[i])
        capped = max_iter == 8
        assert list(batch.converged) == [not capped, True, True, not capped, True, not capped]

    # chi members on a nonunital channel: at the cap of 12 some have
    # stopped and some have not, and the last starts where the search
    # already stopped
    func, starts = _chi_func_and_starts()
    for max_iter in (12, 200):
        batch, alone = _assert_members_independent(func, starts, max_iter)
        assert alone[-1].iterations == 1
        assert batch.converged.all() == (max_iter == 200) and batch.converged.any()
