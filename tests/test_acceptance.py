"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line with the measured numbers (run with ``pytest -s`` to see them all).
"""

from time import perf_counter

import numpy as np

from qcap import cli
from qcap.capacity import (
    ChiConfig,
    analyze,
    chi_capacity_numeric,
    gad_bounds,
    gad_norm_products,
    gad_params,
)
from qcap.core import (
    NotInterior,
    PauliChannelParams,
    binary_entropy,
    ptm_from_params,
)
from qcap.protocol import Code, Povm, success_probabilities, verify_rescaling_identity
from qcap.render import preset_spec, render_chart
from qcap.sinkhorn import (
    family_scaling_pair,
    sinkhorn_iterate,
    unital_diagonalize,
    upsilon_ptm,
    verify_decomposition,
)

# lower-bound limit of the p = 0.475 sweep at gt -> 0: 1 - (1/2) log2(0.525/0.475)
FIG1_LOWER_LIMIT = 0.9278050453324125


def _report(criterion, ok, detail):
    from conftest import record_acceptance

    line = (f"[acceptance] criterion {criterion}: "
            f"{'PASS' if ok else 'FAIL'} - {detail}")
    print("\n" + line)
    record_acceptance(line)


def _interior_family_grid():
    """Deterministic grid of strictly interior, strictly CP family points."""
    vals = np.linspace(-0.95, 0.95, 10)
    t3s = np.linspace(-0.85, 0.85, 9)
    points = []
    for l1 in vals:
        for l2 in vals:
            for l3 in vals:
                for t3 in t3s:
                    if abs(t3) + abs(l3) >= 0.97:
                        continue
                    if 1 + l3 < np.hypot(t3, l1 + l2) + 1e-6:
                        continue
                    if 1 - l3 < np.hypot(t3, l1 - l2) + 1e-6:
                        continue
                    points.append(PauliChannelParams(l1, l2, l3, t3))
    return points


def _read_sweep_csv(path):
    rows = {}
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    for name in header:
        rows[name] = []
    for line in lines[1:]:
        for name, cell in zip(header, line.split(",")):
            rows[name].append(float(cell) if cell else None)
    return {k: np.array([v for v in vals]) for k, vals in rows.items()}


def test_criterion_1_chi_matches_unital_formula():
    # two pure states achieve the chi-capacity of a unital qubit channel,
    # so the batch restricts the search to ensembles of two states with a
    # reduced start count; the 1e-4 agreement bar is the full requirement
    cfg = ChiConfig(sizes=(2,), starts=4, xatol=1e-7, fatol=1e-12, max_iter=200)
    rng = np.random.default_rng(2024)
    start = perf_counter()
    worst = 0.0
    done = 0
    while done < 1000:
        lam = rng.uniform(-1, 1, 3)
        if 1 + lam[2] < abs(lam[0] + lam[1]) or 1 - lam[2] < abs(lam[0] - lam[1]):
            continue
        done += 1
        expected = 1 - binary_entropy(0.5 * (1 - np.abs(lam).max()))
        got = chi_capacity_numeric(PauliChannelParams(*lam, 0.0), cfg).value
        worst = max(worst, abs(got - expected))
    elapsed = perf_counter() - start
    ok = worst <= 1e-4 and elapsed < 60.0
    _report(1, ok, f"worst |chi - closed form| = {worst:.2e} over 1000 "
                   f"unital channels in {elapsed:.1f}s (tol 1e-4, budget 60s)")
    assert worst <= 1e-4
    assert elapsed < 60.0


def test_criterion_2_decomposition_residuals_on_grid():
    grid = _interior_family_grid()
    assert len(grid) >= 1000
    worst = 0.0
    for params in grid:
        res = verify_decomposition(params, family_scaling_pair(params))
        worst = max(worst, res.max_residual)
    ok = worst <= 1e-9
    _report(2, ok, f"max unitality/TP/reconstruction residual {worst:.2e} "
                   f"over {len(grid)} interior channels (tol 1e-9)")
    assert worst <= 1e-9


def test_criterion_3_closed_form_matches_iteration_on_grid():
    grid = _interior_family_grid()
    worst_lt = 0.0
    worst_sv = 0.0
    for params in grid:
        closed = analyze(params).form
        pair = sinkhorn_iterate(params, tol=1e-12)
        iterated = unital_diagonalize(upsilon_ptm(params, pair), tol=1e-6)
        worst_lt = max(worst_lt, abs(closed.lt1 - iterated.lt1),
                       abs(closed.lt2 - iterated.lt2),
                       abs(closed.lt3 - iterated.lt3))
        worst_sv = max(worst_sv, float(np.abs(
            np.asarray(closed.singular_values)
            - np.asarray(iterated.singular_values)).max()))
    ok = worst_lt <= 1e-8 and worst_sv <= 1e-8
    _report(3, ok, f"two-path agreement over {len(grid)} channels: "
                   f"max lt deviation {worst_lt:.2e}, max singular-value "
                   f"deviation {worst_sv:.2e} (tol 1e-8)")
    assert worst_lt <= 1e-8
    assert worst_sv <= 1e-8


def test_criterion_4_gad_consistency():
    worst_bounds = 0.0
    worst_norm = 0.0
    for p in np.linspace(0.05, 0.5, 20):
        for gt in np.linspace(0.05, 3.0, 20):
            closed = gad_bounds(p, gt)
            via_family = analyze(gad_params(p, gt)).bounds
            worst_bounds = max(
                worst_bounds,
                abs(closed.lower_raw - via_family.lower_raw),
                abs(closed.upper_raw - via_family.upper_raw),
                abs(closed.unital_capacity - via_family.unital_capacity))
            pair = family_scaling_pair(gad_params(p, gt))
            nab, nabi = gad_norm_products(p, gt)
            worst_norm = max(worst_norm, abs(pair.norm_ab - nab),
                             abs(pair.norm_ab_inv - nabi))
    exact_at_half = all(gad_bounds(0.5, gt).lower_raw == gad_bounds(0.5, gt).upper_raw
                        for gt in (0.05, 0.7, 1.9, 3.0))
    ok = worst_bounds <= 1e-10 and worst_norm <= 1e-10 and exact_at_half
    _report(4, ok, f"20x20 grid: closed-form vs family-path bound deviation "
                   f"{worst_bounds:.2e}, norm-product deviation {worst_norm:.2e} "
                   f"(tol 1e-10); bounds coincide exactly at p = 1/2: "
                   f"{exact_at_half}")
    assert worst_bounds <= 1e-10
    assert worst_norm <= 1e-10
    assert exact_at_half


def test_criterion_5_figure1_reproduction(tmp_path):
    out = tmp_path / "fig1.csv"
    start = perf_counter()
    code = cli.main(["sweep", "--gad", "--p", "0.475", "--x", "gamma_t",
                     "--min", "0.05", "--max", "3", "--steps", "60", "--chi",
                     "--seed", "42", "--out", str(out)])
    elapsed = perf_counter() - start
    assert code == 0
    data = _read_sweep_csv(out)
    assert len(data["x"]) == 60

    ordered = bool(np.all(data["c_lower"] <= data["c_chi"] + 1e-6)
                   and np.all(data["c_chi"] <= data["c_upper"] + 1e-6))
    monotone = all(bool(np.all(np.diff(data[col]) < 1e-9))
                   for col in ("c_lower", "c_chi", "c_upper"))
    # lower bound tends to 1 - (1/2) log2(0.525/0.475) as gt -> 0
    approach = [gad_bounds(0.475, gt).lower_raw for gt in (1e-2, 1e-4, 1e-6)]
    deviations = [abs(v - FIG1_LOWER_LIMIT) for v in approach]
    limit_ok = (all(b < a for a, b in zip(deviations, deviations[1:]))
                and deviations[-1] < 1e-4
                and data["c_lower"][0] < FIG1_LOWER_LIMIT)
    ok = ordered and monotone and limit_ok and elapsed < 300.0
    _report(5, ok, f"60-point sweep in {elapsed:.0f}s (budget 300s): "
                   f"lower <= chi <= upper everywhere: {ordered}; all three "
                   f"monotone decreasing: {monotone}; lower-bound gt->0 limit "
                   f"approached to {deviations[-1]:.1e}: {limit_ok}")
    assert ordered
    assert monotone
    assert limit_ok
    assert elapsed < 300.0


def test_criterion_6_figure2_partial_reproduction(tmp_path):
    out = tmp_path / "fig2.csv"
    code = cli.main(["sweep", "--mix", "--x", "p", "--min", "0.02",
                     "--max", "0.98", "--steps", "49", "--chi",
                     "--seed", "42", "--out", str(out)])
    assert code == 0
    data = _read_sweep_csv(out)
    assert len(data["x"]) == 49

    chi_below_upper = bool(np.all(data["c_chi"] <= data["c_upper_raw"] + 1e-6))
    ordered = bool(np.all(data["c_lower_raw"] <= data["c_upper_raw"]))
    lo_end = (data["c_lower_raw"][0], data["c_upper_raw"][0])
    hi_end = (data["c_lower_raw"][-1], data["c_upper_raw"][-1])
    exits_at_one = hi_end[0] < 0.0 and hi_end[1] > 1.0
    exits_at_zero = lo_end[0] < 0.0 and lo_end[1] > 1.0
    ok = chi_below_upper and ordered and exits_at_one and exits_at_zero
    _report(6, ok, "chi <= upper_raw everywhere: "
                   f"{chi_below_upper}; lower_raw <= upper_raw everywhere: "
                   f"{ordered}; bounds exit [0,1] near p->1 "
                   f"(raw bounds at p=0.98: [{hi_end[0]:.3f}, {hi_end[1]:.3f}]): "
                   f"{exits_at_one}; bounds exit [0,1] near p->0 "
                   f"(raw bounds at p=0.02: [{lo_end[0]:.3f}, {lo_end[1]:.3f}]): "
                   f"{exits_at_zero}")
    assert chi_below_upper
    assert ordered
    assert exits_at_one
    # the mixture becomes asymptotically unital as p -> 0 (t3 = p^2 decays
    # faster than 1 - lambda3), so both raw bounds converge to 1 from
    # below and never leave [0, 1] at the low end; asserted as stated
    assert exits_at_zero


def test_criterion_7_protocol_identities():
    rng = np.random.default_rng(99)
    start = perf_counter()
    worst = 0.0
    bound_ok = True
    for n in (1, 2, 3):
        for _ in range(100):
            while True:
                l1, l2, l3 = rng.uniform(-1, 1, 3)
                t3 = rng.uniform(-1, 1)
                if (abs(t3) + abs(l3) < 0.95
                        and 1 + l3 >= np.hypot(t3, l1 + l2) + 1e-6
                        and 1 - l3 >= np.hypot(t3, l1 - l2) + 1e-6):
                    break
            params = PauliChannelParams(l1, l2, l3, t3)
            pair = family_scaling_pair(params)
            phi = ptm_from_params(params)
            psi = upsilon_ptm(params, pair)
            code = Code.random(rng, size=int(rng.integers(2, 5)), n=n)
            povm = Povm.random(rng, size=int(rng.integers(2, 5)), dim=2**n)
            worst = max(worst, verify_rescaling_identity(phi, psi, pair.a,
                                                         pair.b, code, povm))
            probs, bound = success_probabilities(code, pair.a, pair.b)
            for i in range(code.size):
                bound_ok = bound_ok and probs[i] >= bound - 1e-12
    elapsed = perf_counter() - start
    ok = worst <= 1e-11 and bound_ok and elapsed < 30.0
    _report(7, ok, f"rescaling identity max deviation {worst:.2e} over 300 "
                   f"instances (tol 1e-11); success bound held: {bound_ok}; "
                   f"{elapsed:.1f}s (budget 30s)")
    assert worst <= 1e-11
    assert bound_ok
    assert elapsed < 30.0


def test_criterion_8_amplitude_damping_degeneracy():
    products = [family_scaling_pair(gad_params(p, 1.0)).norm_ab
                for p in (1e-3, 1e-4, 1e-5, 1e-6)]
    growing = all(b > a for a, b in zip(products, products[1:]))
    rejected = False
    try:
        gad_params(0.0, 1.0)
    except NotInterior:
        rejected = True
    ok = products[0] > 5.0 and growing and rejected
    _report(8, ok, f"|A||B| at p=1e-3..1e-6: "
                   f"{', '.join(f'{v:.3g}' for v in products)} (all > 5, "
                   f"growing: {growing}); p = 0 rejected as NotInterior: "
                   f"{rejected}")
    assert products[0] > 5.0
    assert growing
    assert rejected


def test_criterion_9_byte_identical_outputs(tmp_path):
    args = ["sweep", "--gad", "--p", "0.3", "--x", "gamma_t", "--min", "0.1",
            "--max", "1.5", "--steps", "5", "--chi", "--seed", "42"]
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    assert cli.main(args + ["--out", str(first)]) == 0
    assert cli.main(args + ["--out", str(second)]) == 0
    csv_same = first.read_bytes() == second.read_bytes()

    svg_a = tmp_path / "a.svg"
    svg_b = tmp_path / "b.svg"
    render_chart(preset_spec("fig1", str(first), str(svg_a)))
    render_chart(preset_spec("fig1", str(first), str(svg_b)))
    svg_same = svg_a.read_bytes() == svg_b.read_bytes()
    ok = csv_same and svg_same
    _report(9, ok, f"repeated sweep CSV byte-identical: {csv_same}; "
                   f"repeated render SVG byte-identical: {svg_same}")
    assert csv_same
    assert svg_same
