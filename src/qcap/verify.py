"""Runnable invariant suites for the library modules.

Each suite evaluates the structural properties its module is supposed
to guarantee (round trips, dual code paths agreeing, identity checks on
random instances) and reports one named pass/fail result per property.
The same checks back the `qcap verify` command and parts of the pytest
suite.

A check on random instances first draws all of them, one by one in a
fixed order, keeping only the raw draws; then it runs the production
functions once on the stack of all instances, or once per group of
instances that share a shape.  Every stacked function gives each
instance the bits of its single call, so the results do not depend on
the grouping.
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


def _random_family_interior(rng: np.random.Generator) -> core.PauliChannelParams:
    """Rejection-sample strictly interior CP family parameters."""
    return _random_family_interiors(rng, 1)[0]


def _random_family_interiors(rng: np.random.Generator,
                             count: int) -> list[core.PauliChannelParams]:
    """``count`` draws of strictly interior CP family parameters.

    Each attempt takes four uniforms on [-1, 1), (lambda1, lambda2,
    lambda3) and then t3, and is kept if |t3| + |lambda3| < 0.98 and both
    CP margins exceed 1e-6.  The attempts are judged as rows of block
    draws; then the generator is rewound and draws exactly the rows used
    once more, so the draws and the generator state afterwards are those
    of rejecting one attempt at a time.
    """
    start = rng.bit_generator.state
    kept: list[int] = []
    tried = 0
    while len(kept) < count:  # about one attempt in seven is kept
        block = rng.uniform(-1.0, 1.0, size=(8 * (count - len(kept)) + 8, 4))
        l1, l2, l3, t3 = block.T
        ok = ((np.abs(t3) + np.abs(l3) < 0.98)
              & (1.0 + l3 >= np.hypot(t3, l1 + l2) + 1e-6)
              & (1.0 - l3 >= np.hypot(t3, l1 - l2) + 1e-6))
        kept += (tried + np.flatnonzero(ok)).tolist()
        tried += len(block)
    kept = kept[:count]
    rng.bit_generator.state = start
    rows = rng.uniform(-1.0, 1.0, size=(kept[-1] + 1, 4))
    # t3 as a Python float, l1..l3 as numpy floats, as the draws
    # rng.uniform(-1, 1) and rng.uniform(-1, 1, 3) return them
    return [core.PauliChannelParams(l1, l2, l3, float(t3))
            for l1, l2, l3, t3 in rows[kept]]


# ---------------------------------------------------------------------------
# core suite


def _check_bloch_roundtrip(rng) -> CheckResult:
    blochs = core.random_blochs(rng, 1000)
    back = core.density_to_bloch(core.bloch_to_density(blochs))
    worst = float(np.abs(back - blochs).max())
    return _result("bloch_density_roundtrip", worst <= 1e-14,
                   f"max deviation {worst:.2e} over 1000 states (tol 1e-14)")


def _ptm_vs_kraus_draws(rng, count: int = 1000):
    """Raw Kraus sets, zero-padded to rank 4, and Bloch vectors, drawn in
    the order of ``random_cptp_channel`` then a one-vector
    ``random_blochs`` per pair."""
    ops = np.zeros((count, 4, 2, 2), dtype=complex)
    blochs = np.empty((count, 3))
    for k in range(count):
        rank = int(rng.integers(1, 5))
        ops[k, :rank] = core.random_ginibre(rng, rank)
        blochs[k] = core.random_blochs(rng, 1)[0]
    return ops, blochs


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


def _unital_family_choi_min_eig(l1, l2, l3):
    """Smallest Choi eigenvalue for diagonal unital channels, computed
    by a batched dense eigensolve of the explicitly assembled Chois."""
    n = l1.size
    chois = np.zeros((n, 4, 4))
    chois[:, 0, 0] = chois[:, 3, 3] = (1.0 + l3) / 2.0
    chois[:, 1, 1] = chois[:, 2, 2] = (1.0 - l3) / 2.0
    chois[:, 0, 3] = chois[:, 3, 0] = (l1 + l2) / 2.0
    chois[:, 1, 2] = chois[:, 2, 1] = (l1 - l2) / 2.0
    return np.linalg.eigvalsh(chois)[:, 0]


def _check_cp_grid(rng) -> CheckResult:
    # full 50^3 grid through a batched eigensolve, plus a subsample
    # through the single-channel eigensolver path, given each as a PTM
    axis = np.linspace(-1.0, 1.0, 50)
    l1, l2, l3 = (g.ravel() for g in np.meshgrid(axis, axis, axis, indexing="ij"))
    min_eigs = _unital_family_choi_min_eig(l1, l2, l3)
    by_choi = min_eigs >= -1e-10
    by_inequality = ((1.0 + l3 - np.abs(l1 + l2) >= -1e-10)
                     & (1.0 - l3 - np.abs(l1 - l2) >= -1e-10))
    grid_ok = bool(np.array_equal(by_choi, by_inequality))

    idx = rng.choice(l1.size, size=400, replace=False)
    sample_ok = True
    for k in idx:
        params = core.PauliChannelParams(l1[k], l2[k], l3[k], 0.0)
        report = core.is_completely_positive(core.ptm_from_params(params))
        if report.is_cp != bool(by_inequality[k]):
            sample_ok = False
            break
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
    """The channels' PTMs and closed-form scaling pairs, stacked."""
    ptms = np.array([core.ptm_from_params(p).ptm for p in params])
    pairs = [sinkhorn.family_scaling_pair(p) for p in params]
    return ptms, sinkhorn.ScalingPair.stack(pairs)


def _gauge_draws(rng, count: int = 50):
    """Family channels and gauge factors, drawn in turn."""
    params, factors = [], []
    for _ in range(count):
        params.append(_random_family_interior(rng))
        factors.append(rng.uniform(0.2, 5.0))
    return params, np.array(factors)


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
    worst = 0.0
    for _ in range(100):
        params = _random_family_interior(rng)
        closed = sinkhorn.family_unital_params(params)
        pair = sinkhorn.sinkhorn_iterate(core.ptm_from_params(params))
        iterated = sinkhorn.unital_diagonalize(
            sinkhorn.unital_channel(params, pair), tol=1e-7)
        worst = max(worst,
                    abs(closed.lt1 - iterated.lt1),
                    abs(closed.lt2 - iterated.lt2),
                    abs(closed.lt3 - iterated.lt3))
    return _result("closed_form_matches_iteration", worst <= 1e-8,
                   f"max lt deviation {worst:.2e} over 100 channels (tol 1e-8)")


def _check_decomposition_residuals(rng) -> CheckResult:
    res = sinkhorn.verify_decomposition(*_family_stack(_random_family_interiors(rng, 200)))
    worst = float(res.max_residual.max())
    return _result("decomposition_residuals", worst <= 1e-9,
                   f"max residual {worst:.2e} over 200 channels (tol 1e-9)")


def _check_upsilon_is_channel(rng) -> CheckResult:
    ok = True
    for ptm in sinkhorn.upsilon_ptm(*_family_stack(_random_family_interiors(rng, 50))):
        ups = core.QubitChannel(ptm)
        report = core.is_completely_positive(ups)
        ok = ok and report.is_cp and core.is_unital(ups, 1e-10) \
            and core.is_trace_preserving(ups, 1e-10)
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


def _protocol_draws(rng, n: int, count: int) -> list[tuple]:
    """Raw draws of ``count`` protocol instances at block length n, each
    in turn: the channel, the code size and the Ginibre matrices of its
    (size, n) factors, then the POVM size and its Ginibre matrices."""
    draws = []
    for _ in range(count):
        params = _random_family_interior(rng)
        code = core.random_ginibre(rng, int(rng.integers(2, 5)) * n).reshape(-1, n, 2, 2)
        povm = core.random_ginibre(rng, int(rng.integers(2, 5)), 2**n)
        draws.append((params, code, povm))
    return draws


def _shape_groups(keys) -> list[list[int]]:
    """Draw indices grouped by key, each group in draw order."""
    groups: dict = {}
    for k, key in enumerate(keys):
        groups.setdefault(key, []).append(k)
    return list(groups.values())


def _code_stack(draws, idx) -> protocol.Code:
    return protocol.Code(core.densities_from_ginibre(np.stack([draws[k][1] for k in idx])))


def _povm_stack(draws, idx) -> protocol.Povm:
    return protocol.Povm.from_ginibre(np.stack([draws[k][2] for k in idx]))


def _first_failure(exc: Exception, idx, single) -> tuple[int, str]:
    """Draw index and message of the group's first instance, in draw order,
    whose single call ``single(j)`` raises as the stacked call did."""
    for j, k in enumerate(idx):
        try:
            single(j)
        except type(exc) as one:
            return k, str(one)
    return idx[0], str(exc)


# The protocol functions raise when an identity they rely on breaks
# (ValueError from modify_povm, AssertionError from success_probabilities).
# The checks below report the first such error, in draw order, as a failed
# check, and still draw all their instances, so the later checks see the
# same ones.


def _check_rescaling_identity(rng, instances: int = 100) -> CheckResult:
    name = "probability_rescaling_identity"
    worst = 0.0
    error = None
    for n in (1, 2, 3):
        draws = _protocol_draws(rng, n, instances)
        phis, pairs = _family_stack([params for params, _, _ in draws])
        psis = sinkhorn.upsilon_ptm(phis, pairs)
        failures = []
        for idx in _shape_groups((len(c), len(m)) for _, c, m in draws):
            phi, psi, a, b = phis[idx], psis[idx], pairs.a[idx], pairs.b[idx]
            code, povm = _code_stack(draws, idx), _povm_stack(draws, idx)
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
        draws = _protocol_draws(rng, n, 30)
        _, pairs = _family_stack([params for params, _, _ in draws])
        failures = []
        for idx in _shape_groups(len(m) for _, _, m in draws):
            a, povm = pairs.a[idx], _povm_stack(draws, idx)
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
        draws = _protocol_draws(rng, n, 50)
        _, pairs = _family_stack([params for params, _, _ in draws])
        failures = []
        for idx in _shape_groups(len(c) for _, c, _ in draws):
            a, b, code = pairs.a[idx], pairs.b[idx], _code_stack(draws, idx)
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
    params = _random_family_interior(rng)
    pair = sinkhorn.family_scaling_pair(params)
    corrupted = sinkhorn.ScalingPair.from_operators(
        pair.a + np.diag([1e-3, 0.0]), pair.b)
    res = sinkhorn.verify_decomposition(params, corrupted)
    return _result("canary_corrupted_pair_accepted", res.max_residual <= 1e-9,
                   f"corrupted pair residual {res.max_residual:.2e} "
                   "(expected to fail)")


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
