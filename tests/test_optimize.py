import numpy as np

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
