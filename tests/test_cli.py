import hashlib
import json
import re
import traceback
from decimal import Decimal, localcontext

import numpy as np
import pytest

from qcap import cli, protocol
from qcap.capacity import chi_capacity_numeric

GAD_ARGS = ["--gad", "--p", "0.475", "--gamma-t", "1.0"]


def run(args, capsys):
    code = cli.main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_report(capsys):
    code, out, err = run(["analyze", *GAD_ARGS], capsys)
    assert code == 0
    for key in ("lambda_tilde", "|A||B|", "unital capacity", "bounds raw",
                "bounds clamped", "residuals"):
        assert key in out


def test_analyze_boundary_exit_2(capsys):
    code, out, err = run(["analyze", "--lambda", "1", "1", "1", "--t3", "0"], capsys)
    assert code == 2
    assert "not interior" in err


def test_analyze_non_cp_exit_3(capsys):
    code, out, err = run(["analyze", "--lambda", "1", "1", "-1", "--t3", "0"], capsys)
    assert code == 3
    assert "completely positive" in err


def test_analyze_json_with_chi(capsys):
    code, out, err = run(["analyze", "--lambda", "0.5", "0.4", "0.3",
                          "--t3", "0.2", "--chi", "--json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["interior"] is True
    assert payload["c_lower_raw"] <= payload["c_chi"] + 1e-6 <= payload["c_upper_raw"] + 2e-6
    assert payload["residuals"]["unitality"] < 1e-12


def test_sweep_csv_columns_and_determinism(tmp_path, capsys):
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    args = ["sweep", "--gad", "--p", "0.3", "--x", "gamma_t", "--min", "0.2",
            "--max", "1.2", "--steps", "5", "--chi"]
    assert cli.main(args + ["--out", str(out_a)]) == 0
    assert cli.main(args + ["--out", str(out_b)]) == 0
    capsys.readouterr()
    assert out_a.read_bytes() == out_b.read_bytes()
    header = out_a.read_text().splitlines()[0]
    assert header == ("x,lambda_t1,lambda_t2,lambda_t3,norm_AB,norm_AinvBinv,"
                      "c_unital,c_lower_raw,c_upper_raw,c_lower,c_upper,c_chi")


def test_sweep_without_chi_leaves_column_empty(capsys):
    code, out, err = run(["sweep", "--gad", "--p", "0.3", "--x", "gamma_t",
                          "--min", "0.2", "--max", "1.0", "--steps", "3"], capsys)
    assert code == 0
    rows = out.strip().splitlines()[1:]
    assert len(rows) == 3
    assert all(row.endswith(",") for row in rows)


def test_sweep_drops_boundary_endpoints_with_warning(capsys):
    code, out, err = run(["sweep", "--mix", "--x", "p", "--min", "0", "--max", "1",
                          "--steps", "6"], capsys)
    assert code == 0
    assert err.count("dropping boundary grid point") == 2
    rows = out.strip().splitlines()[1:]
    assert len(rows) == 4


def test_sweep_config_validation(capsys):
    code, _, err = run(["sweep", "--gad", "--p", "0.3", "--x", "gamma_t",
                        "--min", "0.2", "--max", "1.0", "--steps", "1"], capsys)
    assert code == 2 and "at least 2 steps" in err
    code, _, err = run(["sweep", "--gad", "--p", "0.3", "--x", "gamma_t",
                        "--min", "2.0", "--max", "1.0", "--steps", "4"], capsys)
    assert code == 2 and "min < max" in err
    code, _, err = run(["sweep", "--mix", "--x", "gamma_t", "--min", "0.1",
                        "--max", "0.9", "--steps", "4"], capsys)
    assert code == 2 and "sweeps over" in err


def test_sweep_interior_violation_mid_grid_exit_2(capsys):
    # t3 sweep crosses |t3| + |lambda3| = 1 in the middle of the range
    code, out, err = run(["sweep", "--lambda", "0.5", "0.4", "0.3", "--t3", "0",
                          "--x", "t3", "--min", "0.0", "--max", "0.9",
                          "--steps", "7"], capsys)
    assert code == 2
    assert "non-interior grid point" in err


def test_sweep_gad_half_lower_equals_upper(capsys):
    code, out, err = run(["sweep", "--gad", "--p", "0.5", "--x", "gamma_t",
                          "--min", "0.1", "--max", "2.0", "--steps", "6"], capsys)
    assert code == 0
    for row in out.strip().splitlines()[1:]:
        cells = row.split(",")
        lower, upper = cells[9], cells[10]
        assert lower == upper


def test_sweep_json_meta_and_seed_resolution(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("QCAP_SEED", "7")
    code, out, err = run(["sweep", "--gad", "--p", "0.3", "--x", "gamma_t",
                          "--min", "0.2", "--max", "1.0", "--steps", "3",
                          "--format", "json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["meta"]["seed"] == 7
    assert payload["columns"][0] == "x"
    assert len(payload["rows"]) == 3

    code, out, err = run(["sweep", "--gad", "--p", "0.3", "--x", "gamma_t",
                          "--min", "0.2", "--max", "1.0", "--steps", "3",
                          "--format", "json", "--seed", "9"], capsys)
    assert json.loads(out)["meta"]["seed"] == 9


@pytest.mark.parametrize("args", [
    ["--mix", "--x", "p", "--min", "0.1", "--max", "0.9", "--steps", "6"],
    ["--gad", "--p", "0.3", "--x", "gamma_t", "--min", "0.2", "--max", "1.2",
     "--steps", "4", "--chi"],
], ids=["bounds", "chi"])
def test_sweep_worker_pool_matches_serial(args, tmp_path, capsys):
    serial = tmp_path / "serial.csv"
    pooled = tmp_path / "pooled.csv"
    assert cli.main(["sweep", *args, "--out", str(serial)]) == 0
    assert cli.main(["sweep", *args, "--workers", "3", "--out", str(pooled)]) == 0
    capsys.readouterr()
    assert serial.read_bytes() == pooled.read_bytes()


def test_sweep_pool_has_at_most_one_worker_per_point(monkeypatch, capsys):
    # a stand-in pool that records its size and maps in this process, so
    # no large pool is ever started
    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    args = ["sweep", "--gad", "--p", "0.3", "--x", "gamma_t", "--min", "0.2",
            "--max", "1.0", "--steps", "3"]
    code, serial, _ = run(args, capsys)
    assert code == 0
    monkeypatch.setattr(cli, "ProcessPoolExecutor", SerialPool)
    code, pooled, _ = run([*args, "--workers", "64"], capsys)
    assert (code, sizes, pooled) == (0, [3], serial)


def test_sweep_builds_each_grid_point_once(monkeypatch, capsys):
    # 6 grid points, both endpoints outside the mixture's domain: each
    # point's channel is built once, and the chi solve builds none
    names, label, make = cli._FAMILIES["mix"]
    calls = []

    def counting(**values):
        calls.append(values)
        return make(**values)

    monkeypatch.setitem(cli._FAMILIES, "mix", (names, label, counting))
    code, out, err = run(["sweep", "--mix", "--x", "p", "--min", "0", "--max", "1",
                          "--steps", "6", "--chi"], capsys)
    assert code == 0
    assert len(out.strip().splitlines()) == 1 + 4
    assert len(calls) == 6


def test_sinkhorn_both_methods_agree(capsys):
    code, out, err = run(["sinkhorn", "--lambda", "0.5", "0.4", "0.3",
                          "--t3", "0.3", "--method", "both"], capsys)
    assert code == 0
    match = re.search(r"method agreement \|A\|\|B\| gap: (\S+)", out)
    assert match and float(match.group(1)) < 1e-8


def test_sinkhorn_near_boundary_warns(capsys):
    code, out, err = run(["sinkhorn", "--lambda", "0.3", "0.3", "0.499",
                          "--t3", "0.5", "--method", "iterate",
                          "--tol", "1e-13"], capsys)
    assert code == 0
    assert "sweeps:" in out
    assert "converges slowly" in err


def test_sinkhorn_exit_codes(capsys):
    code, _, err = run(["sinkhorn", "--lambda", "1", "1", "1", "--t3", "0"], capsys)
    assert code == 2
    code, _, err = run(["sinkhorn", "--lambda", "0.5", "0.4", "0.3", "--t3", "0.3",
                        "--method", "iterate", "--max-iter", "2",
                        "--tol", "1e-14"], capsys)
    assert code == 4


def test_sinkhorn_iterate_rejects_a_pole_boundary_channel(capsys):
    # |t3| + |lambda3| = 1 with the farthest output at the pole: the
    # generic interior test must see the boundary instead of iterating
    code, _, err = run(["sinkhorn", "--lambda", "0.3", "0.3", "0.7", "--t3", "0.3",
                        "--method", "iterate"], capsys)
    assert code == 2
    assert "touches the Bloch sphere" in err


def test_verify_all_suites_pass(capsys):
    code, out, err = run(["verify", "--suite", "all", "--seed", "7"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["all_passed"] is True
    assert payload["counts"]["failed"] == 0
    assert set(payload["suites"]) == {"core", "sinkhorn", "protocol"}
    assert all(body["checks"] for body in payload["suites"].values())
    # details that measure no round-off move only if the instance stream does
    details = {c["name"]: c["detail"] for body in payload["suites"].values()
               for c in body["checks"]}
    assert details["cp_check_matches_unital_inequality"] == (
        "50^3 grid agreement=True, production-path subsample agreement=True (tol 1e-10)")
    assert details["norm_times_inverse_norm_at_least_one"] == (
        "min product 1.094615 over random invertible operators")
    assert details["per_use_rate_penalty"] == (
        "min slack 1.95e-04 of log2(P)/n over the penalty bound")
    assert details["norm_product_diverges_toward_boundary"] == (
        "|A||B| grows 4.63 -> 5.21e+06 as p -> 0; routes agree within "
        "cancellation-scaled tolerance")


def _protocol_checks(capsys):
    code, out, err = run(["verify", "--suite", "protocol", "--seed", "7"], capsys)
    payload = json.loads(out)
    return code, {c["name"]: c for c in payload["suites"]["protocol"]["checks"]}


def test_verify_reports_a_broken_povm_completion(monkeypatch, capsys):
    # a negative tolerance makes modify_povm raise on every instance
    monkeypatch.setattr(protocol, "completion_tolerance", lambda scaling, n: -1.0)
    code, checks = _protocol_checks(capsys)
    assert code == 1
    for name in ("probability_rescaling_identity", "modified_povm_complete_and_psd"):
        assert not checks[name]["passed"]
        assert "modified completion element has eigenvalue" in checks[name]["detail"]
    assert checks["per_use_rate_penalty"]["passed"]


def test_verify_reports_a_success_probability_below_the_bound(monkeypatch, capsys):
    # inflated codeword traces push the success probability below its bound
    traces = protocol.code_scaling_traces
    monkeypatch.setattr(protocol, "code_scaling_traces",
                        lambda code, scaling: 10.0 * traces(code, scaling))
    code, checks = _protocol_checks(capsys)
    assert code == 1
    check = checks["per_use_rate_penalty"]
    assert not check["passed"]
    assert "fell below bound" in check["detail"]
    assert checks["modified_povm_complete_and_psd"]["passed"]


def test_verify_near_degenerate_scaling_prints_json(capsys):
    # at this seed a rescaling-identity instance draws an A whose two
    # singular values agree to 2.4e-7, so |A|^6 rounds low and the
    # modified completion's least eigenvalue reaches -6.5e-10
    code, out, err = run(["verify", "--suite", "protocol", "--seed", "1704011245"], capsys)
    assert code == 0
    assert json.loads(out)["all_passed"] is True
    assert err == ""


def test_verify_canary_fails(capsys):
    code, out, err = run(["verify", "--suite", "sinkhorn", "--canary"], capsys)
    assert code == 1
    payload = json.loads(out)
    names = [c["name"] for c in payload["suites"]["sinkhorn"]["checks"]
             if not c["passed"]]
    assert names == ["canary_corrupted_pair_accepted"]


def test_render_cli_roundtrip(tmp_path, capsys):
    csv_path = tmp_path / "sweep.csv"
    svg_path = tmp_path / "fig.svg"
    assert cli.main(["sweep", "--gad", "--p", "0.4", "--x", "gamma_t",
                     "--min", "0.2", "--max", "1.4", "--steps", "4",
                     "--out", str(csv_path)]) == 0
    capsys.readouterr()
    code, out, err = run(["render", "--preset", "fig1", "--in", str(csv_path),
                          "--out", str(svg_path)], capsys)
    assert code == 0
    text = svg_path.read_text()
    assert text.startswith("<?xml")
    assert "<polyline" in text


def test_render_missing_column_exit_1(tmp_path, capsys):
    csv_path = tmp_path / "bad.csv"
    csv_path.write_text("x,y\n1,2\n")
    code, out, err = run(["render", "--preset", "fig1", "--in", str(csv_path),
                          "--out", str(tmp_path / "no.svg")], capsys)
    assert code == 1
    assert "c_lower" in err


@pytest.mark.parametrize("family, fixed, x_name, lo, hi, steps, pins", [
    ("gad", (("p", 0.475),), "gamma_t", 0.05, 3.0, 60, {
        0: "0.834626648016", 12: "0.206772268045", 24: "0.0600936175054",
        36: "0.0179228519224", 48: "0.00538269718209", 59: "0.00179026824716"}),
    ("mix", (), "p", 0.02, 0.98, 49, {
        0: "0.898875567613", 16: "0.318721066841", 32: "0.146013426938",
        48: "0.0264685558935"}),
], ids=["fig1", "fig2"])
def test_sweep_chi_values_pinned(family, fixed, x_name, lo, hi, steps, pins):
    # c_chi cells of the full fig1 and fig2 `sweep --chi --seed 42`
    grid = np.linspace(lo, hi, steps)
    make = cli._FAMILIES[family][2]
    for i, expected in pins.items():
        x = float(grid[i])
        params = make(**dict(fixed), **{x_name: x})
        row = cli._sweep_point((x, params, True))
        assert cli._fmt(row["c_chi"]) == expected


@pytest.mark.parametrize("args, digest", [
    (["--gad", "--p", "0.475", "--x", "gamma_t", "--min", "0.05", "--max", "3",
      "--steps", "60"], "a80ba3fdeb9da63482a10e1e740e30d9018fdeee08a148092cf9e32d08629f59"),
    (["--mix", "--x", "p", "--min", "0.02", "--max", "0.98", "--steps", "49"],
     "8bbf0829cdf04db66ff54193bec96cbd17c16a915e12c7330d9d51ba14c88b8a"),
], ids=["fig1", "fig2"])
def test_figure_bounds_csv_pinned(args, digest, capsys):
    # the full fig1 and fig2 grids without --chi: every bounds column of
    # the figure CSVs, byte for byte
    code, out, err = run(["sweep", *args], capsys)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("args, digest", [
    (["--gad", "--p", "0.475", "--x", "gamma_t", "--min", "0.05", "--max", "3",
      "--steps", "60"], "7badc79d0c07fcd8c2f0c6b5180d5c9b9a57c5bdfc9a60d83c53287f57d30c18"),
    (["--mix", "--x", "p", "--min", "0.02", "--max", "0.98", "--steps", "49"],
     "490e89902a1dee239e3e7fb10f078163c6e9a033bc2b0fda0e6241f17555ddff"),
], ids=["fig1", "fig2"])
def test_figure_chi_csv_pinned(args, digest, capsys):
    # the figure CSVs themselves, the chi column included, byte for byte
    code, out, err = run(["sweep", *args, "--chi", "--seed", "42"], capsys)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def _holevo_50_digits(params, ensemble) -> Decimal:
    # the Holevo quantity of an ensemble through a family channel, in
    # 50-digit decimal arithmetic on the exact values of its doubles
    with localcontext() as ctx:
        ctx.prec = 50
        lam = [Decimal(params.lambda1), Decimal(params.lambda2), Decimal(params.lambda3)]
        shift = [Decimal(0), Decimal(0), Decimal(params.t3)]
        outs = [[lam[i] * Decimal(float(n[i])) + shift[i] for i in range(3)]
                for n in ensemble.states]
        weights = [Decimal(float(w)) for w in ensemble.weights]

        def entropy(vector):
            r = min(sum(c * c for c in vector).sqrt(), Decimal(1))
            x = (1 - r) / 2
            return -sum(p * p.ln() for p in (x, 1 - x) if p > 0) / Decimal(2).ln()

        average = [sum(w * o[i] for w, o in zip(weights, outs)) for i in range(3)]
        return entropy(average) - sum(w * entropy(o) for w, o in zip(weights, outs))


@pytest.mark.parametrize("index, cell", [(44, "0.00803493451198")], ids=["fig1-44"])
def test_moved_chi_cells_are_correctly_rounded(index, cell):
    # fig1 c_chi cells within a double's rounding of a 12-digit boundary
    # must be their ensemble's 50-digit Holevo quantity, correctly
    # rounded.  At gamma_t = 2.25 that value is 0.0080349345119848...,
    # 1.5e-19 below the boundary, and the cell once read ...199
    gamma_t = float(np.linspace(0.05, 3.0, 60)[index])
    params = cli._FAMILIES["gad"][2](p=0.475, gamma_t=gamma_t)
    result = chi_capacity_numeric(params)
    exact = _holevo_50_digits(params, result.ensemble)
    assert cli._fmt(cli._sweep_point((gamma_t, params, True))["c_chi"]) == cell
    assert format(exact, ".12g") == cell
    assert abs(exact - Decimal(result.value)) <= Decimal("1e-15")  # entropies near 1 in doubles


GOLDEN_ANALYZE_JSON = """\
{
  "channel": "custom lambda=(0.5,0.4,0.3) t3=0.2",
  "lambda": [
    0.5,
    0.4,
    0.3
  ],
  "t3": 0.2,
  "completely_positive": true,
  "interior": true,
  "lambda_tilde": [
    0.5114190538471467,
    0.40913524307771737,
    0.31385933836549285
  ],
  "norm_AB": 1.1714441187137419,
  "norm_AinvBinv": 1.1452879100823092,
  "c_unital": 0.19789731997143412,
  "c_lower_raw": -0.2586789502276268,
  "c_upper_raw": 0.5893179563273236,
  "c_lower": 0.0,
  "c_upper": 0.5893179563273236,
  "residuals": {
    "unitality": 4.440892098500626e-16,
    "trace_preservation": 2.220446049250313e-16,
    "reconstruction": 3.3306690738754696e-16
  }
}
"""

GOLDEN_ANALYZE_TEXT = """\
channel: gad p=0.475 gamma_t=1
lambda: 0.367879441171 0.367879441171 0.135335283237  t3: -0.0432332358382
completely positive: yes
interior: yes
lambda_tilde: 0.368230173116 0.368230173116 0.135593460393
norm products: |A||B| = 1.02582516904  |A^-1||B^-1| = 1.02484809089
unital capacity: 0.100149810835
bounds raw: [0.0265800628862, 0.170969972221]
bounds clamped: [0.0265800628862, 0.170969972221]
decomposition residuals: unitality 2.220e-16  tp 3.092e-16  reconstruction 3.331e-16
"""

GOLDEN_SWEEP_CSV = """\
x,lambda_t1,lambda_t2,lambda_t3,norm_AB,norm_AinvBinv,c_unital,c_lower_raw,c_upper_raw,c_lower,c_upper,c_chi
0.2,0.832355191198,0.832355191198,0.692815164313,1.24617200516,1.22577399053,0.584493496474,-0.0505129289623,1.17187949237,0,1,
0.45,0.660657529895,0.660657529895,0.436468371807,1.25805216478,1.21419864328,0.343047849108,-0.319335639695,0.903056781642,0,0.903056781642,
0.7,0.522686352678,0.522686352678,0.273201023276,1.26799588869,1.20467680162,0.207200519875,-0.477899615603,0.744492805734,0,0.744492805734,
0.95,0.411970460048,0.411970460048,0.169719659953,1.27560764519,1.1974883009,0.126148925944,-0.576220372718,0.646172048619,0,0.646172048619,
1.2,0.323575971204,0.323575971204,0.10470140914,1.28102916434,1.19242033997,0.0769025597503,-0.637704082109,0.584688339227,0,0.584688339227,
"""


@pytest.mark.parametrize("args, expected", [
    (["analyze", "--lambda", "0.5", "0.4", "0.3", "--t3", "0.2", "--json"],
     GOLDEN_ANALYZE_JSON),
    (["analyze", *GAD_ARGS], GOLDEN_ANALYZE_TEXT),
    (["sweep", "--gad", "--p", "0.3", "--x", "gamma_t", "--min", "0.2",
      "--max", "1.2", "--steps", "5"], GOLDEN_SWEEP_CSV),
], ids=["analyze-json", "analyze-text", "sweep-csv"])
def test_outputs_are_pinned(args, expected, capsys):
    code, out, err = run(args, capsys)
    assert (code, out, err) == (0, expected, "")


CHANNEL = ["--lambda", "0.5", "0.4", "0.3", "--t3", "0.3"]
GAD_SWEEP = ["--gad", "--p", "0.3", "--x", "gamma_t", "--min", "0.2",
             "--max", "1.0", "--steps", "3"]


@pytest.mark.parametrize("args, exit_code, phrase", [
    (["analyze", "--gad", "--p", "0.3", "--gamma-t", "nan"], 2, "finite"),
    (["analyze", "--lambda", "0.5", "0.4", "0.3", "--t3", "nan"], 2, "finite"),
    (["sinkhorn", "--gad", "--p", "nan", "--gamma-t", "1"], 2, "finite"),
    (["sweep", "--lambda", "0.5", "0.4", "nan", "--x", "t3", "--min", "0",
      "--max", "0.5", "--steps", "4"], 2, "finite"),
    (["sweep", "--gad", "--p", "0.3", "--x", "gamma_t", "--min", "0",
      "--max", "inf", "--steps", "4"], 2, "finite"),
    # the removed chi search flags are refused by name
    (["analyze", *CHANNEL, "--chi", "--chi-sizes", "5"], 2, "sizes"),
    (["analyze", *CHANNEL, "--chi", "--chi-sizes", "0"], 2, "sizes"),
    (["analyze", *CHANNEL, "--chi", "--chi-starts", "-1"], 2, "starts"),
    (["analyze", "--json"], 2, "select a channel"),
    (["analyze", "--gad", "--p", "0.3"], 2, "--gad requires --gamma-t"),
    (["sweep", *GAD_SWEEP, "--chi", "--chi-sizes", "5"], 2, "sizes"),
    (["sweep", *GAD_SWEEP, "--chi", "--chi-starts", "-1"], 2, "starts"),
    (["sinkhorn", *CHANNEL, "--method", "iterate", "--max-iter", "0"], 4,
     "after 0 sweeps"),
    (["QCAP_SEED=abc", "sweep", "--mix", "--x", "p", "--min", "0.1", "--max", "0.9",
      "--steps", "3"], 2, "QCAP_SEED"),
    # analyze takes no seed; the sweep without --chi still reads it for its JSON meta
    (["QCAP_SEED=abc", "sweep", *GAD_SWEEP, "--format", "json"], 2, "QCAP_SEED"),
    (["QCAP_SEED=abc", "verify", "--suite", "core"], 2, "QCAP_SEED"),
    (["analyze", "--gad", "--p", "x", "--gamma-t", "1"], 2, "invalid float value"),
    (["analyze", "--gad", "--p", "0.3", "--gamma-t", "1", "--chi", "--chi-xatol", "nan"],
     2, "xatol"),
    (["analyze", "--gad", "--p", "0.3", "--gamma-t", "1", "--chi", "--chi-xatol", "-1"],
     2, "xatol"),
    (["sweep", *GAD_SWEEP, "--chi", "--chi-xatol", "nan"], 2, "xatol"),
    (["sweep", *GAD_SWEEP, "--workers", "0"], 2, "--workers"),
    (["sweep", *GAD_SWEEP, "--workers", "-4"], 2, "--workers"),
    (["sweep", *GAD_SWEEP, "--chi", "--seed", "-1"], 2, "non-negative"),
    (["sweep", *GAD_SWEEP, "--format", "json", "--seed", "-1"], 2, "non-negative"),
    (["verify", "--suite", "core", "--seed", "-1"], 2, "non-negative"),
    (["QCAP_SEED=-3", "verify"], 2, "non-negative"),
    (["sweep", *GAD_SWEEP, "--chi", "--chi-sizes", "2"], 2, "unrecognized arguments"),
    (["analyze", "--gad", "--p", "0.7", "--gamma-t", "1"], 2, "0 < p <= 1/2"),
    (["analyze", "--mix", "--p", "1.5"], 2, "0 < p < 1"),
    (["sweep", "--gad", "--x", "gamma_t", "--min", "0.2", "--max", "1", "--steps", "3"],
     2, "--gad requires --p"),
    (["analyze", "--gad", "--p", "0", "--gamma-t", "1"], 2, "boundary amplitude damping"),
    (["analyze", "--gad", "--p", "0.3", "--gamma-t", "-1"], 2, "dimensionless time"),
    (["render", "--in", "sweep.csv", "--out", "chart.svg"], 1, "explicit charts need"),
    (["render", "--in", "sweep.csv", "--out", "chart.svg", "--x", "x", "--series", "c_chi"],
     1, "COLUMN:STYLE:LABEL"),
    (["analyze", *GAD_ARGS, "--chi", "--seed", "1"], 2, "unrecognized arguments: --seed"),
    # a tolerance that is not finite and above 0 never ends the iteration right
    (["sinkhorn", *CHANNEL, "--method", "iterate", "--tol", "nan"], 2, "--tol"),
    (["sinkhorn", *CHANNEL, "--method", "iterate", "--tol", "-1"], 2, "--tol"),
    (["sinkhorn", *CHANNEL, "--method", "iterate", "--tol", "0"], 2, "--tol"),
    (["sinkhorn", *CHANNEL, "--method", "iterate", "--tol", "inf"], 2, "--tol"),
    # one channel selector per command
    (["analyze", "--gad", "--mix", "--p", "0.3", "--gamma-t", "1"], 2, "not allowed with"),
    (["analyze", "--mix", "--p", "0.3", "--lambda", "1", "1", "1"], 2, "not allowed with"),
    (["sweep", "--gad", "--p", "0.3", "--lambda", "0.5", "0.4", "0.3", "--x", "gamma_t",
      "--min", "0.2", "--max", "1.0", "--steps", "3"], 2, "not allowed with"),
])
def test_bad_input_exits_with_its_code(args, exit_code, phrase, capsys, monkeypatch):
    while "=" in args[0]:  # a leading NAME=value sets the environment, as in a shell
        name, value = args[0].split("=", 1)
        monkeypatch.setenv(name, value)
        args = args[1:]
    # an uncaught exception would end the command with a traceback and exit 1
    try:
        code = cli.main(args)
    except SystemExit as exc:  # argparse rejects a flag value
        code = exc.code
    except Exception:
        traceback.print_exc()
        code = 1
    err = capsys.readouterr().err
    assert code == exit_code
    assert "Traceback" not in err
    assert "error:" in err and phrase in err


def test_parser_is_built_once():
    # main() parses with the one cached parser instead of rebuilding it
    assert cli.build_parser() is cli.build_parser()
