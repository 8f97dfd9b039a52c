"""Runnable invariant suites for the library modules.

Each suite evaluates the structural properties its module is supposed
to guarantee (round trips, dual code paths agreeing, identity checks on
random instances) and reports one named pass/fail result per property.
The same checks back the `qcap verify` command and parts of the pytest
suite.

A check on random instances draws all of them as stacks, about one
generator call per distribution: sizes and ranks from one ``integers``
call, normals from one ``normal`` call per shape (per block length in
the protocol checks), and family channels by rejection on ``uniform``
blocks judged as arrays.  It then runs the production functions once on
the stack of all instances, or, in the protocol checks, once per block
length, on instances padded to size 4: codes with copies of their
codeword 0, POVMs with zero elements.  Every stacked function gives each
instance the bits of its single call; padding never reaches a reported
number.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import capacity, core, protocol, sinkhorn
from .capacity import DEFAULT_SEED


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class SuiteResult:
    suite: str
    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def _result(name: str, passed: bool, detail: str) -> CheckResult:
    return CheckResult(name, bool(passed), detail)


def _kept(l1, l2, l3, t3):
    """Whether a draw of family parameters is kept: |t3| + |lambda3| <
    0.98 and both CP margins exceed 1e-6; elementwise on arrays."""
    return ((abs(t3) + abs(l3) < 0.98)
            & (1.0 + l3 >= np.hypot(t3, l1 + l2) + 1e-6)
            & (1.0 - l3 >= np.hypot(t3, l1 - l2) + 1e-6))


def _random_family_interiors(rng: np.random.Generator,
                             count: int) -> core.PauliChannelParams:
    """A family stack of ``count`` strictly interior CP channels: the first
    ``count`` rows kept by ``_kept`` of ``uniform(-1, 1, (m, 4))`` blocks,
    each row (lambda1, lambda2, lambda3, t3).  About 15% of the rows are
    kept, so a block of ``8 * missing + 8`` rows nearly always suffices."""
    rows = np.empty((0, 4))
    while len(rows) < count:
        block = rng.uniform(-1.0, 1.0, size=(8 * (count - len(rows)) + 8, 4))
        rows = np.concatenate([rows, block[_kept(*block.T)]])
    return core.PauliChannelParams(*rows[:count].T)


# ---------------------------------------------------------------------------
# core suite


def _check_bloch_roundtrip(rng) -> CheckResult:
    blochs = core.random_blochs(rng, 1000)
    back = core.density_to_bloch(core.bloch_to_density(blochs))
    worst = float(np.abs(back - blochs).max())
    return _result("bloch_density_roundtrip", worst <= 1e-14,
                   f"max deviation {worst:.2e} over 1000 states (tol 1e-14)")


def _ptm_vs_kraus_draws(rng, count: int = 1000):
    """Kraus sets of ranks drawn uniformly from 1 to 4, zero-padded to rank
    4, and Bloch vectors: the ranks from one ``integers`` call, four
    Ginibre operators per set from one ``normal`` call with the operators
    past each rank zeroed, then ``random_blochs``."""
    ranks = rng.integers(1, 5, count)
    ops = core.random_ginibre(rng, 4 * count).reshape(count, 4, 2, 2)
    ops[np.arange(4) >= ranks[:, None]] = 0.0
    return ops, core.random_blochs(rng, count)


def _check_ptm_vs_kraus(rng) -> CheckResult:
    ops, blochs = _ptm_vs_kraus_draws(rng)
    ptms = core.normalized_kraus_ptm(ops)
    rhos = core.bloch_to_density(blochs)
    via_ptm = core.apply_channel_matrix(ptms, rhos)
    kraus = core.kraus_from_choi(core.choi_from_channel(ptms))
    via_kraus = core.apply_scaling(kraus, rhos[:, None]).sum(axis=1)
    worst = float(np.abs(via_ptm - via_kraus).max())
    return _result("ptm_matches_kraus_path", worst <= 1e-10,
                   f"max deviation {worst:.2e} over 1000 pairs (tol 1e-10)")


def _unital_family_chois(l1, l2, l3, out=None) -> np.ndarray:
    """Explicitly assembled (n, 4, 4) Choi matrices of diagonal unital
    channels with parameters (l1, l2, l3), stored entry-major: a (4, 4, n)
    array seen through a transpose, so each entry ``chois[:, i, j]`` is
    one contiguous (n,) column.  The (4, 4, n) array is ``out`` if given,
    zeroed by its caller; only the eight nonzero entries are written, so
    one buffer serves any number of calls."""
    chois = np.zeros((4, 4, np.size(l3))) if out is None else out
    chois[0, 0] = chois[3, 3] = (1.0 + l3) / 2.0
    chois[1, 1] = chois[2, 2] = (1.0 - l3) / 2.0
    chois[0, 3] = chois[3, 0] = (l1 + l2) / 2.0
    chois[1, 2] = chois[2, 1] = (l1 - l2) / 2.0
    return chois.transpose(2, 0, 1)


def _shifted_is_positive_definite(mats: np.ndarray) -> np.ndarray:
    """Whether ``M + 1e-10 * I`` is positive definite, for each symmetric
    matrix M of an (n, d, d) stack.

    An unpivoted LDL' factorization, run on the whole stack at once from
    the lower-triangle entries and blind to any block structure: M + 1e-10
    * I is positive definite exactly when all d pivots are positive
    (Sylvester), which is the predicate lambda_min(M) > -1e-10.  A pivot
    that is not positive settles its matrix; it is replaced by 1 so that
    the later pivots of that matrix stay finite.  The updates
    x - l_ik * l_jk * p_k run in place on (n,) columns, rounded as that
    expression is from left to right, and allocate nothing.  Each entry
    is read once as an (n,) column ``mats[:, i, j]``, contiguous for an
    entry-major stack such as ``_unital_family_chois`` builds.
    """
    size = mats.shape[-1]
    pd = np.ones(mats.shape[0], dtype=bool)
    pivots: list[np.ndarray] = []
    lower: dict[tuple[int, int], np.ndarray] = {}
    term = np.empty(mats.shape[0])
    for j in range(size):
        pivot = mats[:, j, j] + 1e-10
        for k in range(j):
            np.multiply(lower[j, k], lower[j, k], out=term)
            term *= pivots[k]
            pivot -= term
        pd &= pivot > 0.0
        np.copyto(pivot, 1.0, where=~pd)
        pivots.append(pivot)
        for i in range(j + 1, size):
            entry = mats[:, i, j].copy()
            for k in range(j):
                np.multiply(lower[i, k], lower[j, k], out=term)
                term *= pivots[k]
                entry -= term
            entry /= pivot
            lower[i, j] = entry
    return pd


def _grid_slabs(axis: np.ndarray, slabs: int):
    """The points (l1, l2, l3) of the grid axis^3, in the order of
    ``np.meshgrid(axis, axis, axis, indexing="ij")`` ravelled, as
    ``slabs`` consecutive slabs of (m,) arrays: slab k holds the points
    whose l1 is one of the k-th ``len(axis) / slabs`` values of the axis.
    The l2 and l3 arrays are the same for every slab."""
    n = axis.size
    per = n // slabs
    l2 = np.tile(np.repeat(axis, n), per)
    l3 = np.tile(axis, per * n)
    for k in range(slabs):
        yield np.repeat(axis[k * per:(k + 1) * per], n * n), l2, l3


def _unital_inequality(l1, l2, l3) -> np.ndarray:
    """The CP inequality of diagonal unital channels, elementwise."""
    return ((1.0 + l3 - np.abs(l1 + l2) >= -1e-10)
            & (1.0 - l3 - np.abs(l1 - l2) >= -1e-10))


def _check_cp_grid(rng) -> CheckResult:
    # full 50^3 grid through a stacked LDL' decision on the assembled
    # Chois, in 10 slabs of 12 500 matrices built from the axis into one
    # reused buffer, plus a subsample through the production eigensolver
    # path, given as a stack of PTMs
    axis = np.linspace(-1.0, 1.0, 50)
    n = axis.size
    buffer = np.zeros((4, 4, n**3 // 10))
    grid_ok = True
    for l1, l2, l3 in _grid_slabs(axis, 10):
        by_choi = _shifted_is_positive_definite(_unital_family_chois(l1, l2, l3, buffer))
        grid_ok &= bool(np.array_equal(by_choi, _unital_inequality(l1, l2, l3)))

    idx = rng.choice(n**3, size=400, replace=False)
    l1, l2, l3 = axis[idx // (n * n)], axis[idx // n % n], axis[idx % n]
    report = core.is_completely_positive(core._family_ptms(l1, l2, l3, 0.0))
    sample_ok = bool(np.array_equal(report.is_cp, _unital_inequality(l1, l2, l3)))
    return _result("cp_check_matches_unital_inequality", grid_ok and sample_ok,
                   f"50^3 grid agreement={grid_ok}, production-path subsample "
                   f"agreement={sample_ok} (tol 1e-10)")


def _check_entropy_consistency(rng) -> CheckResult:
    blochs = core.random_blochs(rng, 500)
    s = core.von_neumann_entropy(core.bloch_to_density(blochs))
    x, y, z = blochs.T
    via_bloch = core.binary_entropy((1.0 - np.sqrt(x * x + y * y + z * z)) / 2.0)
    worst = float(np.abs(s - via_bloch).max())
    return _result("entropy_matches_bloch_formula", worst <= 1e-12,
                   f"max deviation {worst:.2e} over 500 states (tol 1e-12)")


def _check_norm_inverse_product(rng) -> CheckResult:
    ops = core.random_ginibre(rng, 500)
    ops = ops[np.abs(np.linalg.det(ops)) >= 1e-6]
    prods = core.operator_norm(ops) * core.operator_norm(core.inverse_2x2(ops))
    low = float(prods.min(initial=np.inf))
    return _result("norm_times_inverse_norm_at_least_one",
                   bool(np.all(prods >= 1.0 - 1e-12)),
                   f"min product {low:.6f} over random invertible operators")


def core_suite(rng: np.random.Generator) -> list[CheckResult]:
    return [
        _check_bloch_roundtrip(rng),
        _check_ptm_vs_kraus(rng),
        _check_cp_grid(rng),
        _check_entropy_consistency(rng),
        _check_norm_inverse_product(rng),
    ]


# ---------------------------------------------------------------------------
# sinkhorn suite


def _gauge_draws(rng, count: int = 50):
    """A family stack and one gauge factor per channel."""
    return _random_family_interiors(rng, count), rng.uniform(0.2, 5.0, count)


def _check_gauge_invariance(rng) -> CheckResult:
    params, c = _gauge_draws(rng)
    ptms, pair = core.ptm_from_params(params), sinkhorn.family_scaling_pair(params)
    c = c[:, None, None]
    scaled = sinkhorn.ScalingPair.from_operators(pair.a / c, c * pair.b)
    drift = np.abs(sinkhorn.upsilon_ptm(ptms, pair) - sinkhorn.upsilon_ptm(ptms, scaled))
    products = np.abs(pair.norm_ab * pair.norm_ab_inv - scaled.norm_ab * scaled.norm_ab_inv)
    worst = float(max(drift.max(), products.max()))
    return _result("gauge_rescaling_invariance", worst <= 1e-9,
                   f"max drift {worst:.2e} under scalar gauge changes (tol 1e-9)")


def _check_two_path_agreement(rng) -> CheckResult:
    stack = _random_family_interiors(rng, 100)
    closed = capacity.analyze(stack).form
    iterated = sinkhorn.unital_diagonalize(
        sinkhorn.upsilon_ptm(stack, sinkhorn.sinkhorn_iterate(stack)), tol=1e-7)
    worst = max(float(np.abs(getattr(closed, name) - getattr(iterated, name)).max())
                for name in ("lt1", "lt2", "lt3"))
    return _result("closed_form_matches_iteration", worst <= 1e-8,
                   f"max lt deviation {worst:.2e} over 100 channels (tol 1e-8)")


def _check_decomposition_residuals(rng) -> CheckResult:
    params = _random_family_interiors(rng, 200)
    res = sinkhorn.verify_decomposition(params, sinkhorn.family_scaling_pair(params))
    worst = float(res.max_residual.max())
    return _result("decomposition_residuals", worst <= 1e-9,
                   f"max residual {worst:.2e} over 200 channels (tol 1e-9)")


def _check_upsilon_is_channel(rng) -> CheckResult:
    params = _random_family_interiors(rng, 50)
    upsilons = sinkhorn.upsilon_ptm(params, sinkhorn.family_scaling_pair(params))
    ok = bool(np.all(core.is_completely_positive(upsilons).is_cp)) and all(
        core.is_unital(ups, 1e-10) and core.is_trace_preserving(ups, 1e-10)
        for ups in upsilons)
    return _result("unitalized_channel_is_cptp_unital", ok,
                   "CP/TP/unitality of the sandwiched map on 50 channels")


def _check_norm_divergence(rng) -> CheckResult:
    # below p ~ 1e-16 the family margin 1 - |t3| - |lambda3| = 2p(1-u)
    # underflows, so the far tail is tracked through the closed-form
    # norm products, cross-checked against the pair on the overlap
    small = (1e-2, 1e-4, 1e-6, 1e-8, 1e-10, 1e-12)
    tail = (1e-14, 1e-17, 1e-20, 1e-24, 1e-26)
    pair_products = [sinkhorn.family_scaling_pair(capacity.gad_params(p, 1.0)).norm_ab
                     for p in small]
    closed_products = [capacity.gad_norm_products(p, 1.0)[0] for p in small + tail]
    # the pair route loses relative accuracy ~eps/(2p(1-u)) because the
    # radicand 1 + t3 - lambda3 cancels; scale the agreement tolerance
    one_minus_u = 1.0 - np.exp(-2.0)
    routes_agree = all(
        abs(a - b) / b <= max(1e-9, 2e-16 / (2.0 * p * one_minus_u))
        for p, a, b in zip(small, pair_products, closed_products))
    grows = all(b > a for a, b in zip(closed_products, closed_products[1:]))
    grows = grows and all(b > a for a, b in zip(pair_products, pair_products[1:]))
    return _result("norm_product_diverges_toward_boundary",
                   grows and closed_products[-1] > 1e6 and routes_agree,
                   f"|A||B| grows {closed_products[0]:.3g} -> "
                   f"{closed_products[-1]:.3g} as p -> 0; routes agree within "
                   "cancellation-scaled tolerance")


def sinkhorn_suite(rng: np.random.Generator) -> list[CheckResult]:
    return [
        _check_gauge_invariance(rng),
        _check_two_path_agreement(rng),
        _check_decomposition_residuals(rng),
        _check_upsilon_is_channel(rng),
        _check_norm_divergence(rng),
    ]


# ---------------------------------------------------------------------------
# protocol suite


def _codes(ginibre, sizes) -> protocol.Code:
    """The codes ``Code.random`` builds from (count, 4, n, 2, 2) Ginibre
    factors, codewords past each instance's size copies of its codeword 0."""
    rho = np.where((np.arange(4) < sizes[:, None])[..., None, None, None],
                   ginibre, ginibre[:, :1])
    rho = rho @ core._dagger(rho)
    return protocol.Code(rho / np.trace(rho, axis1=-2, axis2=-1).real[..., None, None])


def _povms(ginibre, sizes) -> protocol.Povm:
    """The POVMs ``Povm.random`` builds from (count, 4, 1, d, d) Ginibre
    draws; a zero draw past an instance's size gives a zero element."""
    return protocol.Povm.from_ginibre(ginibre[:, :, 0])


def _protocol_draws(rng, n: int, count: int, *parts):
    """``count`` protocol instances at block length n, padded to size 4.

    An instance is a family channel and one object of size 2 to 4 per
    entry of ``parts`` (``_codes``, ``_povms``).  The sizes come from one
    ``integers`` call; then one ``normal`` call gives the objects of each
    group of same-size instances in turn, in ascending order of sizes, as
    ``Code.random`` and ``Povm.random`` draw them one instance at a time;
    then ``_random_family_interiors`` draws the channels.  Returns the
    family stack and, per part, its padded stack and (count,) sizes."""
    sizes = rng.integers(2, 5, (count, len(parts)))
    normals = [np.zeros((count, 4, *((n, 2, 2, 2) if part is _codes else (1, 2, 2**n, 2**n))))
               for part in parts]
    flat = rng.normal(size=int((sizes @ [g[0, 0].size for g in normals]).sum()))
    start = 0
    for key in itertools.product(range(2, 5), repeat=len(parts)):
        idx = np.flatnonzero((sizes == key).all(axis=1))
        for g, size in zip(normals, key):
            block = flat[start:start + len(idx) * size * g[0, 0].size]
            g[idx, :size] = block.reshape(len(idx), size, *g.shape[2:])
            start += block.size
    stacks = [(part(g[..., 0, :, :] + 1j * g[..., 1, :, :], s), s)
              for part, g, s in zip(parts, normals, sizes.T)]
    return _random_family_interiors(rng, count), stacks


def _single(stack, k: int, size: int):
    """Instance k of a padded code or POVM stack, cut to its own size."""
    field = "factors" if isinstance(stack, protocol.Code) else "elements"
    return type(stack)(getattr(stack, field)[k, :size])


def _stacked(call, error: type, stacks, *operands):
    """``call(*objects, *operands)`` on the padded stacks of objects, and
    None; or, if it raises ``error`` (the protocol functions raise when an
    identity they rely on breaks), None and the message of the first
    instance k whose single call, on its unpadded objects and the entries
    k of the operands, raises alike.  The checks report that message as a
    failure, after drawing all of the block length's instances, so later
    checks see the same draws."""
    try:
        return call(*(stack for stack, _ in stacks), *operands), None
    except error as exc:
        for k in range(len(operands[0])):
            try:
                call(*(_single(stack, k, sizes[k]) for stack, sizes in stacks),
                     *(op[k] for op in operands))
            except error as one:
                return None, str(one)
        return None, str(exc)


def _check_rescaling_identity(rng, instances: int = 100) -> CheckResult:
    name = "probability_rescaling_identity"
    worst = 0.0
    error = None
    for n in (1, 2, 3):
        params, stacks = _protocol_draws(rng, n, instances, _codes, _povms)
        phis, pairs = core.ptm_from_params(params), sinkhorn.family_scaling_pair(params)
        dev, failure = _stacked(
            lambda code, povm, *ops: protocol.verify_rescaling_identity(*ops, code, povm),
            ValueError, stacks, phis, sinkhorn.upsilon_ptm(phis, pairs), pairs.a, pairs.b)
        if failure:
            error = error or f"n={n}: {failure}"
        else:
            worst = max(worst, float(dev.max()))
    if error:
        return _result(name, False, error)
    return _result(name, worst <= 1e-11,
                   f"max deviation {worst:.2e} over {3 * instances} instances "
                   "(tol 1e-11)")


def _check_modified_povm(rng) -> CheckResult:
    name = "modified_povm_complete_and_psd"
    ok = True
    low = np.inf
    error = None
    for n in (1, 2, 3):
        params, stacks = _protocol_draws(rng, n, 30, _povms)
        a = sinkhorn.family_scaling_pair(params).a
        modified, failure = _stacked(protocol.modify_povm, ValueError, stacks, a)
        if failure:
            error = error or f"n={n}: {failure}"
            continue
        total = modified.elements.sum(axis=-3) + modified.completion
        ok = ok and np.abs(total - np.eye(2**n)).max() <= 1e-12
        # the completion, then the elements; a zero element's eigenvalue 0
        # must not stand in for the real ones
        eig = np.linalg.eigvalsh(modified.with_completion())[..., 0]
        eig = np.where(np.arange(5) <= stacks[0][1][:, None], eig, np.inf).min(axis=-1)
        low = min(low, float(eig.min()))
        ok = ok and bool(np.all(eig >= -protocol.completion_tolerance(a, n)))
    if error:
        return _result(name, False, error)
    return _result(name, ok, f"elements resolve identity; min eigenvalue {low:.2e}")


def _check_rate_penalty(rng) -> CheckResult:
    name = "per_use_rate_penalty"
    ok = True
    slack = np.inf
    error = None
    for n in (1, 2, 3):
        params, stacks = _protocol_draws(rng, n, 50, _codes)
        pairs = sinkhorn.family_scaling_pair(params)
        probs, failure = _stacked(protocol.success_probabilities, AssertionError,
                                  stacks, pairs.a, pairs.b)
        if failure:
            error = error or f"n={n}, {failure}"
            continue
        rhs = (-2.0 * np.log2(pairs.norm_ab))[:, None]
        lhs = np.log2(probs[0]) / n
        slack = min(slack, float((lhs - rhs).min()))
        ok = ok and bool(np.all(lhs >= rhs - 1e-9))
    if error:
        return _result(name, False, error)
    return _result(name, ok,
                   f"min slack {slack:.2e} of log2(P)/n over the penalty bound")


def protocol_suite(rng: np.random.Generator) -> list[CheckResult]:
    return [
        _check_rescaling_identity(rng),
        _check_modified_povm(rng),
        _check_rate_penalty(rng),
    ]


# ---------------------------------------------------------------------------


def _canary_check(rng: np.random.Generator) -> CheckResult:
    """Deliberately failing check proving the harness reports failures."""
    params = _random_family_interiors(rng, 1)
    pair = sinkhorn.family_scaling_pair(params)
    corrupted = sinkhorn.ScalingPair.from_operators(
        pair.a + np.diag([1e-3, 0.0]), pair.b)
    residual = float(sinkhorn.verify_decomposition(params, corrupted).max_residual[0])
    return _result("canary_corrupted_pair_accepted", residual <= 1e-9,
                   f"corrupted pair residual {residual:.2e} (expected to fail)")


SUITES = {
    "core": core_suite,
    "sinkhorn": sinkhorn_suite,
    "protocol": protocol_suite,
}


def run_suite(name: str, seed: int = DEFAULT_SEED, canary: bool = False) -> SuiteResult:
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; choose from {sorted(SUITES)} or 'all'")
    rng = np.random.default_rng(seed)
    checks = SUITES[name](rng)
    if canary:
        checks.append(_canary_check(rng))
    return SuiteResult(name, tuple(checks))


def run_suites(names, seed: int = DEFAULT_SEED, canary: bool = False) -> list[SuiteResult]:
    return [run_suite(name, seed=seed, canary=canary) for name in names]
