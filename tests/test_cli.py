import json
import re

import pytest

from qcap import cli

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
                          "--t3", "0.2", "--chi", "--json",
                          "--chi-sizes", "2", "--chi-starts", "8",
                          "--chi-max-iter", "200"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["interior"] is True
    assert payload["c_lower_raw"] <= payload["c_chi"] + 1e-6 <= payload["c_upper_raw"] + 2e-6
    assert payload["residuals"]["unitality"] < 1e-12


def test_sweep_csv_columns_and_determinism(tmp_path, capsys):
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    args = ["sweep", "--gad", "--p", "0.3", "--x", "gamma_t", "--min", "0.2",
            "--max", "1.2", "--steps", "5", "--chi", "--chi-sizes", "2",
            "--chi-starts", "4", "--chi-max-iter", "150"]
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


def test_sweep_worker_pool_matches_serial(tmp_path, capsys):
    serial = tmp_path / "serial.csv"
    pooled = tmp_path / "pooled.csv"
    args = ["sweep", "--mix", "--x", "p", "--min", "0.1", "--max", "0.9",
            "--steps", "6"]
    assert cli.main(args + ["--out", str(serial)]) == 0
    assert cli.main(args + ["--workers", "3", "--out", str(pooled)]) == 0
    capsys.readouterr()
    assert serial.read_bytes() == pooled.read_bytes()


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
    # c_chi cells of the full fig1 and fig2 `sweep --chi --seed 42`; each
    # grid point i has its own chi seed (42, i), so the full grid is kept
    cfg = cli.SweepConfig(family, fixed, x_name, lo, hi, steps, 42, True, ())
    grid = cfg.grid()
    for i, expected in pins.items():
        row = cli._sweep_point((cfg, i, float(grid[i])))
        assert cli._fmt(row["c_chi"]) == expected
