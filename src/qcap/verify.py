"""Runnable invariant suites for the library modules.

Each suite evaluates the structural properties its module is supposed
to guarantee (round trips, dual code paths agreeing, identity checks on
random instances) and reports one named pass/fail result per property.
The same checks back the `qcap verify` command and parts of the pytest
suite.

A check on random instances draws all of them as stacks, about one
generator call per distribution: sizes and ranks from one ``integers``
call, normals from one ``normal`` call per shape, and family channels by
rejection on ``uniform`` blocks judged as arrays.  It then runs the
production functions once on the stack of all instances, or, in the
protocol checks, once per group of instances that share their sizes.
Every stacked function gives each instance the bits of its single call,
so the results do not depend on the grouping.
"""

from __future__ import annotations

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


def _unital_family_chois(l1, l2, l3) -> np.ndarray:
    """Explicitly assembled (n, 4, 4) Choi matrices of diagonal unital
    channels with parameters (l1, l2, l3), stored entry-major: a (4, 4, n)
    array seen through a transpose, so each entry ``chois[:, i, j]`` is
    one contiguous (n,) column."""
    chois = np.zeros((4, 4, np.size(l3)))
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
    the later pivots of that matrix stay finite.  Each entry is read once
    as an (n,) column ``mats[:, i, j]``, contiguous for an entry-major
    stack such as ``_unital_family_chois`` builds.
    """
    size = mats.shape[-1]
    pd = np.ones(mats.shape[0], dtype=bool)
    pivots: list[np.ndarray] = []
    lower: dict[tuple[int, int], np.ndarray] = {}
    for j in range(size):
        pivot = mats[:, j, j] + 1e-10
        for k in range(j):
            pivot = pivot - lower[j, k] * lower[j, k] * pivots[k]
        pd &= pivot > 0.0
        pivot = np.where(pd, pivot, 1.0)
        pivots.append(pivot)
        for i in range(j + 1, size):
            entry = mats[:, i, j]
            for k in range(j):
                entry = entry - lower[i, k] * lower[j, k] * pivots[k]
            lower[i, j] = entry / pivot
    return pd


def _check_cp_grid(rng) -> CheckResult:
    # full 50^3 grid through a stacked LDL' decision on the assembled
    # Chois, in 10 slabs of 12 500 matrices, plus a subsample through the
    # production eigensolver path, given as a stack of PTMs
    axis = np.linspace(-1.0, 1.0, 50)
    l1, l2, l3 = (g.ravel() for g in np.meshgrid(axis, axis, axis, indexing="ij"))
    by_choi = np.concatenate([
        _shifted_is_positive_definite(_unital_family_chois(*slab))
        for slab in zip(*(g.reshape(10, -1) for g in (l1, l2, l3)))])
    by_inequality = ((1.0 + l3 - np.abs(l1 + l2) >= -1e-10)
                     & (1.0 - l3 - np.abs(l1 - l2) >= -1e-10))
    grid_ok = bool(np.array_equal(by_choi, by_inequality))

    idx = rng.choice(l1.size, size=400, replace=False)
    report = core.is_completely_positive(core._family_ptms(l1[idx], l2[idx], l3[idx], 0.0))
    sample_ok = bool(np.array_equal(report.is_cp, by_inequality[idx]))
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


def _family_stack(params) -> tuple[np.ndarray, sinkhorn.ScalingPair]:
    """The PTMs and closed-form scaling pairs of a family stack, each slice
    with the bits of ``ptm_from_params`` and ``family_scaling_pair`` of
    its channel."""
    return core.ptm_from_params(params), sinkhorn.family_scaling_pair(params)


def _gauge_draws(rng, count: int = 50):
    """A family stack and one gauge factor per channel."""
    return _random_family_interiors(rng, count), rng.uniform(0.2, 5.0, count)


def _check_gauge_invariance(rng) -> CheckResult:
    params, c = _gauge_draws(rng)
    ptms, pair = _family_stack(params)
    c = c[:, None, None]
    scaled = sinkhorn.ScalingPair.from_operators(pair.a / c, c * pair.b)
    drift = np.abs(sinkhorn.upsilon_ptm(ptms, pair) - sinkhorn.upsilon_ptm(ptms, scaled))
    products = np.abs(pair.norm_ab * pair.norm_ab_inv - scaled.norm_ab * scaled.norm_ab_inv)
    worst = float(max(drift.max(), products.max()))
    return _result("gauge_rescaling_invariance", worst <= 1e-9,
                   f"max drift {worst:.2e} under scalar gauge changes (tol 1e-9)")


def _check_two_path_agreement(rng) -> CheckResult:
    stack = _random_family_interiors(rng, 100)
    ptms = core.ptm_from_params(stack)
    closed = sinkhorn.family_unital_params(stack)
    iterated = sinkhorn.unital_diagonalize(
        sinkhorn.upsilon_ptm(ptms, sinkhorn.sinkhorn_iterate(stack)), tol=1e-7)
    worst = max(float(np.abs(getattr(closed, name) - getattr(iterated, name)).max())
                for name in ("lt1", "lt2", "lt3"))
    return _result("closed_form_matches_iteration", worst <= 1e-8,
                   f"max lt deviation {worst:.2e} over 100 channels (tol 1e-8)")


def _check_decomposition_residuals(rng) -> CheckResult:
    res = sinkhorn.verify_decomposition(*_family_stack(_random_family_interiors(rng, 200)))
    worst = float(res.max_residual.max())
    return _result("decomposition_residuals", worst <= 1e-9,
                   f"max residual {worst:.2e} over 200 channels (tol 1e-9)")


def _check_upsilon_is_channel(rng) -> CheckResult:
    upsilons = sinkhorn.upsilon_ptm(*_family_stack(_random_family_interiors(rng, 50)))
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


def _codes(rng, count: int, size: int, n: int) -> protocol.Code:
    """A stack of ``count`` codes of ``size`` codewords at block length n,
    each as ``protocol.Code.random`` draws one, in one ``normal`` call."""
    return protocol.Code(core.random_densities(rng, count * size * n)
                         .reshape(count, size, n, 2, 2))


def _povms(rng, count: int, size: int, n: int) -> protocol.Povm:
    """A stack of ``count`` POVMs of ``size`` elements on 2^n dimensions,
    each as ``protocol.Povm.random`` draws one, in one ``normal`` call."""
    ginibre = core.random_ginibre(rng, count * size, 2**n)
    return protocol.Povm.from_ginibre(ginibre.reshape(count, size, 2**n, 2**n))


def _protocol_draws(rng, n: int, count: int, *parts):
    """``count`` protocol instances at block length n, drawn as stacks.

    An instance is a family channel and one object of size 2 to 4 per
    entry of ``parts`` (``_codes``, ``_povms``).  The sizes of all
    instances come from one ``integers`` call; then each group of
    instances with the same sizes, in ascending order of sizes, draws its
    objects; then ``_random_family_interiors`` draws the channels.
    Returns the family stack and, per group, its instance indices
    (ascending) and its stacked objects."""
    sizes = rng.integers(2, 5, (count, len(parts)))
    groups = []
    for key in np.unique(sizes, axis=0).tolist():
        idx = np.flatnonzero((sizes == key).all(axis=1))
        groups.append((idx, [part(rng, len(idx), size, n) for part, size in zip(parts, key)]))
    return _random_family_interiors(rng, count), groups


def _first_failure(exc: Exception, idx, single) -> tuple[int, str]:
    """Index and message of the group's first instance whose single call
    ``single(j)`` raises as the stacked call did."""
    for j, k in enumerate(idx):
        try:
            single(j)
        except type(exc) as one:
            return k, str(one)
    return idx[0], str(exc)


# The protocol functions raise when an identity they rely on breaks
# (ValueError from modify_povm, AssertionError from success_probabilities).
# The checks below report such an error, of the failing instance with the
# lowest index, as a failed check; every block length draws all its
# instances before any of them runs, so the later checks see the same
# draws.


def _check_rescaling_identity(rng, instances: int = 100) -> CheckResult:
    name = "probability_rescaling_identity"
    worst = 0.0
    error = None
    for n in (1, 2, 3):
        params, groups = _protocol_draws(rng, n, instances, _codes, _povms)
        phis, pairs = _family_stack(params)
        psis = sinkhorn.upsilon_ptm(phis, pairs)
        failures = []
        for idx, (code, povm) in groups:
            phi, psi, a, b = phis[idx], psis[idx], pairs.a[idx], pairs.b[idx]
            try:
                dev = protocol.verify_rescaling_identity(phi, psi, a, b, code, povm)
            except ValueError as exc:
                failures.append(_first_failure(exc, idx, lambda j: (
                    protocol.verify_rescaling_identity(
                        phi[j], psi[j], a[j], b[j],
                        protocol.Code(code.factors[j]), protocol.Povm(povm.elements[j])))))
                continue
            worst = max(worst, float(dev.max()))
        if failures and error is None:
            error = f"n={n}: {min(failures)[1]}"
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
        params, groups = _protocol_draws(rng, n, 30, _povms)
        pairs = sinkhorn.family_scaling_pair(params)
        failures = []
        for idx, (povm,) in groups:
            a = pairs.a[idx]
            try:
                modified = protocol.modify_povm(povm, a)
            except ValueError as exc:
                failures.append(_first_failure(exc, idx, lambda j: protocol.modify_povm(
                    protocol.Povm(povm.elements[j]), a[j])))
                continue
            total = modified.elements.sum(axis=-3) + modified.completion
            ok = ok and np.abs(total - np.eye(2**n)).max() <= 1e-12
            eig = modified.min_eigenvalue()
            low = min(low, float(eig.min()))
            ok = ok and bool(np.all(eig >= -protocol.completion_tolerance(a, n)))
        if failures and error is None:
            error = f"n={n}: {min(failures)[1]}"
    if error:
        return _result(name, False, error)
    return _result(name, ok, f"elements resolve identity; min eigenvalue {low:.2e}")


def _check_rate_penalty(rng) -> CheckResult:
    name = "per_use_rate_penalty"
    ok = True
    slack = np.inf
    error = None
    for n in (1, 2, 3):
        params, groups = _protocol_draws(rng, n, 50, _codes)
        pairs = sinkhorn.family_scaling_pair(params)
        failures = []
        for idx, (code,) in groups:
            a, b = pairs.a[idx], pairs.b[idx]
            try:
                probs, _ = protocol.success_probabilities(code, a, b)
            except AssertionError as exc:
                failures.append(_first_failure(exc, idx, lambda j: (
                    protocol.success_probabilities(protocol.Code(code.factors[j]),
                                                   a[j], b[j]))))
                continue
            rhs = (-2.0 * np.log2(pairs.norm_ab[idx]))[:, None]
            lhs = np.log2(probs) / n
            slack = min(slack, float((lhs - rhs).min()))
            ok = ok and bool(np.all(lhs >= rhs - 1e-9))
        if failures and error is None:
            error = f"n={n}, {min(failures)[1]}"
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
