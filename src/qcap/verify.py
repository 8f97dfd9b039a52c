"""Runnable invariant suites for the library modules.

Each suite evaluates the structural properties its module is supposed
to guarantee (round trips, dual code paths agreeing, identity checks on
random instances) and reports one named pass/fail result per property.
The same checks back the `qcap verify` command and parts of the pytest
suite.
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
    while True:
        l1, l2, l3 = rng.uniform(-1.0, 1.0, 3)
        t3 = rng.uniform(-1.0, 1.0)
        if abs(t3) + abs(l3) >= 0.98:
            continue
        if 1.0 + l3 < np.hypot(t3, l1 + l2) + 1e-6:
            continue
        if 1.0 - l3 < np.hypot(t3, l1 - l2) + 1e-6:
            continue
        return core.PauliChannelParams(l1, l2, l3, t3)


# ---------------------------------------------------------------------------
# core suite


def _check_bloch_roundtrip(rng) -> CheckResult:
    worst = 0.0
    for _ in range(1000):
        b = core.random_bloch(rng)
        back = core.density_to_bloch(core.bloch_to_density(b))
        worst = max(worst, abs(back.x - b.x), abs(back.y - b.y), abs(back.z - b.z))
    return _result("bloch_density_roundtrip", worst <= 1e-14,
                   f"max deviation {worst:.2e} over 1000 states (tol 1e-14)")


def _ptm_vs_kraus_draws(rng, count: int = 1000):
    """Raw Kraus sets, zero-padded to rank 4, and Bloch vectors, drawn in
    the order of ``random_cptp_channel`` then ``random_bloch`` per pair."""
    ops = np.zeros((count, 4, 2, 2), dtype=complex)
    blochs = np.empty((count, 3))
    for k in range(count):
        rank = int(rng.integers(1, 5))
        ops[k, :rank] = core.random_ginibre(rng, rank)
        blochs[k] = core.random_bloch(rng).as_array()
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
    worst = 0.0
    for _ in range(500):
        b = core.random_bloch(rng)
        s = core.von_neumann_entropy(core.bloch_to_density(b))
        via_bloch = core.binary_entropy((1.0 - b.norm) / 2.0)
        worst = max(worst, abs(s - via_bloch))
    return _result("entropy_matches_bloch_formula", worst <= 1e-12,
                   f"max deviation {worst:.2e} over 500 states (tol 1e-12)")


def _check_norm_inverse_product(rng) -> CheckResult:
    ok = True
    low = np.inf
    for _ in range(500):
        K = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        if abs(np.linalg.det(K)) < 1e-6:
            continue
        prod = core.operator_norm(K) * core.operator_norm(core.inverse_2x2(K))
        low = min(low, prod)
        ok = ok and prod >= 1.0 - 1e-12
    return _result("norm_times_inverse_norm_at_least_one", ok,
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


def _check_gauge_invariance(rng) -> CheckResult:
    worst = 0.0
    for _ in range(50):
        params = _random_family_interior(rng)
        pair = sinkhorn.family_scaling_pair(params)
        c = rng.uniform(0.2, 5.0)
        scaled = sinkhorn.ScalingPair.from_operators(pair.a / c, c * pair.b)
        ups = sinkhorn.upsilon_ptm(params, pair)
        ups_scaled = sinkhorn.upsilon_ptm(params, scaled)
        worst = max(worst, float(np.abs(ups - ups_scaled).max()),
                    abs(pair.norm_ab * pair.norm_ab_inv
                        - scaled.norm_ab * scaled.norm_ab_inv))
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
    worst = 0.0
    for _ in range(200):
        params = _random_family_interior(rng)
        res = sinkhorn.verify_decomposition(params, sinkhorn.family_scaling_pair(params))
        worst = max(worst, res.max_residual)
    return _result("decomposition_residuals", worst <= 1e-9,
                   f"max residual {worst:.2e} over 200 channels (tol 1e-9)")


def _check_upsilon_is_channel(rng) -> CheckResult:
    ok = True
    for _ in range(50):
        params = _random_family_interior(rng)
        ups = sinkhorn.unital_channel(params, sinkhorn.family_scaling_pair(params))
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


def _protocol_instance(rng, n):
    params = _random_family_interior(rng)
    pair = sinkhorn.family_scaling_pair(params)
    phi = core.ptm_from_params(params)
    psi = sinkhorn.upsilon_ptm(params, pair)
    code = protocol.Code.random(rng, size=int(rng.integers(2, 5)), n=n)
    povm = protocol.Povm.random(rng, size=int(rng.integers(2, 5)), dim=2**n)
    return phi, psi, pair, code, povm


# The protocol functions raise when an identity they rely on breaks
# (ValueError from modify_povm, AssertionError from success_probability).
# The checks below report the first such error as a failed check, and
# still draw all their instances, so the later checks see the same ones.


def _check_rescaling_identity(rng, instances: int = 100) -> CheckResult:
    name = "probability_rescaling_identity"
    worst = 0.0
    error = None
    for n in (1, 2, 3):
        for _ in range(instances):
            phi, psi, pair, code, povm = _protocol_instance(rng, n)
            try:
                dev = protocol.verify_rescaling_identity(phi, psi, pair.a, pair.b,
                                                         code, povm)
            except ValueError as exc:
                error = error or f"n={n}: {exc}"
                continue
            worst = max(worst, dev)
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
        for _ in range(30):
            _, _, pair, _, povm = _protocol_instance(rng, n)
            try:
                modified = protocol.modify_povm(povm, pair.a)
            except ValueError as exc:
                error = error or f"n={n}: {exc}"
                continue
            total = modified.elements.sum(axis=0) + modified.completion
            ok = ok and np.abs(total - np.eye(2**n)).max() <= 1e-12
            eig = modified.min_eigenvalue()
            low = min(low, eig)
            ok = ok and eig >= -protocol.completion_tolerance(pair.a, n)
    if error:
        return _result(name, False, error)
    return _result(name, ok, f"elements resolve identity; min eigenvalue {low:.2e}")


def _check_rate_penalty(rng) -> CheckResult:
    name = "per_use_rate_penalty"
    ok = True
    slack = np.inf
    error = None
    for n in (1, 2, 3):
        for _ in range(50):
            _, _, pair, code, _ = _protocol_instance(rng, n)
            try:
                probs, _ = protocol.success_probabilities(code, pair.a, pair.b)
            except AssertionError as exc:
                error = error or f"n={n}, {exc}"
                continue
            rhs = -2.0 * np.log2(pair.norm_ab)
            for prob in probs:
                lhs = np.log2(prob) / n
                slack = min(slack, lhs - rhs)
                ok = ok and lhs >= rhs - 1e-9
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
