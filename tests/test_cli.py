import argparse
import hashlib
import json
import os
import re
import subprocess
import sys
import traceback
from decimal import Decimal, localcontext
from pathlib import Path

import numpy as np
import pytest

from qcap import capacity, cli, protocol
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


@pytest.mark.parametrize("chi", [[], ["--chi"]], ids=["bounds", "chi"])
def test_analyze_reports_the_pipelines_boundary_refusal(capsys, chi):
    # the closed forms refuse the channel, as one channel (no stack
    # position), and nothing reaches stdout
    code, out, err = run(["analyze", "--lambda", "0", "0", "0.3", "--t3", "0.7", *chi], capsys)
    assert (code, out, err) == (2, "", "error: channel is not interior: |t3| + |lambda3| = 1 "
                                       ">= 1; no scaling pair for boundary channels\n")


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
    # the second sweep ends on |t3| + |lambda3| = 0.7 + 0.3, which rounds to 1
    for args, kept in ((["--mix", "--x", "p", "--min", "0", "--max", "1", "--steps", "6"], 4),
                       (["--lambda", "0.2", "0.2", "0.3", "--x", "t3", "--min", "-0.7",
                         "--max", "0.7", "--steps", "15"], 13)):
        code, out, err = run(["sweep", *args], capsys)
        assert code == 0
        assert err.count("dropping boundary grid point") == 2
        rows = out.strip().splitlines()[1:]
        assert len(rows) == kept


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
    code, out, err = run(["sweep", "--lambda", "0.5", "0.4", "0.3",
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


@pytest.mark.parametrize("workers", ["1", "3"])
@pytest.mark.parametrize("extra", [[], ["--format", "json"], ["--chi"]],
                         ids=["csv", "json", "chi"])
@pytest.mark.parametrize("args", [
    ["--gad", "--p", "0.3", "--x", "gamma_t", "--min", "0.2", "--max", "1.2"],
    ["--mix", "--x", "p", "--min", "0", "--max", "1"],
    ["--lambda", "0.5", "0.4", "0.3", "--x", "t3", "--min", "-0.4", "--max", "0.4"],
], ids=["gad", "mix", "custom"])
def test_sweep_runs_one_stacked_pass(args, extra, workers, monkeypatch, capsys):
    # one analyze call on the stack of all points, whatever the format,
    # chi or --workers
    from qcap import capacity
    calls = []

    def counting(params):
        calls.append(params)
        return capacity.analyze(params)

    argv = ["sweep", *args, "--steps", "6", *extra]
    code, expected, _ = run(argv, capsys)
    assert code == 0
    monkeypatch.setattr(cli, "analyze", counting)
    code, out, _ = run([*argv, "--workers", workers], capsys)
    assert (code, out) == (0, expected)
    rows = json.loads(out)["rows"] if "json" in extra else out.splitlines()[1:]
    assert len(calls) == 1 and calls[0].lambda3.shape == (len(rows),)


def test_sweep_builds_each_grid_point_once(monkeypatch, capsys):
    # 6 grid points, both endpoints outside the mixture's domain: each
    # point's channel is built once, and the chi solve builds none
    names, label, make = cli._FAMILIES["mix"]
    calls = []

    def counting(*values):
        calls.append(values)
        return make(*values)

    monkeypatch.setitem(cli._FAMILIES, "mix", (names, label, counting))
    code, out, err = run(["sweep", "--mix", "--x", "p", "--min", "0", "--max", "1",
                          "--steps", "6", "--chi"], capsys)
    assert code == 0
    assert len(out.strip().splitlines()) == 1 + 4
    assert len(calls) == 6


def test_fig1_sweep_with_chi_calls_no_holevo_quantity(monkeypatch, capsys):
    # a timing-free guard for the exact chi's single-pair value: every
    # fig1 point is one +- pair, whose value is computed on floats; a
    # two-pair channel still counts, so the counter is live
    calls = []
    original = capacity.holevo_quantity

    def counting(channel, ensemble):
        calls.append(channel)
        return original(channel, ensemble)

    monkeypatch.setattr(capacity, "holevo_quantity", counting)
    code, out, _ = run(["sweep", "--gad", "--p", "0.475", "--x", "gamma_t", "--min", "0.05",
                        "--max", "3", "--steps", "60", "--chi"], capsys)
    assert code == 0 and len(out.splitlines()) == 1 + 60
    assert calls == []
    two_pairs = capacity.PauliChannelParams(-0.376, -0.034, 0.322, 0.565)
    assert capacity._family_chi(two_pairs).ensemble.size == 4 and len(calls) == 1


@pytest.mark.parametrize("args, make, xs", [
    (["--gad", "--p", "0.475", "--x", "gamma_t"], lambda x: capacity.gad_params(0.475, x),
     (float(np.linspace(0.05, 3.0, 60)[24]), 3.0)),
    (["--mix", "--x", "p"], capacity.mix_params,
     (float(np.linspace(0.02, 0.98, 49)[16]), float(np.linspace(0.02, 0.98, 49)[32]))),
], ids=["fig1", "fig2"])
def test_sweep_chi_calls_cli_chi_once_per_row(args, make, xs, monkeypatch, capsys):
    # the sweep_chi benchmark wraps cli.chi_capacity_numeric and counts
    # an item as failed unless it sees exactly one call per CSV row, in
    # row order, on the row's family channel, whose value is the row's
    # c_chi cell
    seen = []
    original = cli.chi_capacity_numeric

    def recording(channel, config=None):
        result = original(channel, config)
        seen.append((channel, result))
        return result

    monkeypatch.setattr(cli, "chi_capacity_numeric", recording)
    lo, hi = xs
    code, out, err = run(["sweep", *args, f"--min={lo!r}", f"--max={hi!r}", "--steps", "2",
                          "--chi", "--workers", "1", "--seed", "42"], capsys)
    assert (code, err) == (0, "")
    header, *rows = [line.split(",") for line in out.splitlines()]
    assert len(rows) == len(seen) == 2
    for x, row, (channel, result) in zip(xs, rows, seen):
        cells = dict(zip(header, row))
        assert cells["x"] == f"{x:.12g}" and channel == make(x)
        assert cells["c_chi"] == f"{result.value:.12g}"


def test_sweep_builds_no_scaling_pair(monkeypatch, capsys):
    # sweep rows take the norm products from analyze's float pass; only
    # analyze's residuals line builds the operators
    from qcap import capacity, sinkhorn
    calls = []
    original = sinkhorn.family_scaling_pair

    def counting(params):
        calls.append(params)
        return original(params)

    for module in (sinkhorn, capacity, cli):
        if hasattr(module, "family_scaling_pair"):
            monkeypatch.setattr(module, "family_scaling_pair", counting)
    for args in (["--gad", "--p", "0.3", "--x", "gamma_t", "--min", "0.2", "--max", "1.2"],
                 ["--mix", "--x", "p", "--min", "0.02", "--max", "0.98"],
                 [*CHANNEL[:4], "--x", "t3", "--min", "-0.3", "--max", "0.3"]):
        for extra in ([], ["--chi"], ["--format", "json"]):
            assert cli.main(["sweep", *args, "--steps", "7", *extra]) == 0
    assert calls == []
    assert cli.main(["analyze", *GAD_ARGS]) == 0
    assert len(calls) == 1
    capsys.readouterr()


@pytest.mark.parametrize("args", [
    ["--gad", "--p", "0.475", "--x", "gamma_t", "--min", "0.05", "--max", "3",
     "--steps", "12", "--chi"],
    ["--mix", "--x", "p", "--min", "0.02", "--max", "0.98", "--steps", "9"],
    ["--lambda", "0.5", "0.4", "0.3", "--x", "t3", "--min", "-0.4", "--max", "0.4",
     "--steps", "5", "--chi"],
], ids=["gad-chi", "mix", "custom-chi"])
def test_sweep_json_rows_are_the_csv_cells(args, monkeypatch, capsys):
    # the JSON rows hold plain Python floats (None for an empty c_chi),
    # and after a round trip through json they print as the CSV cells
    built = []
    to_json = cli._rows_to_json

    def capturing(rows, *rest):
        built.extend(rows)
        return to_json(rows, *rest)

    monkeypatch.setattr(cli, "_rows_to_json", capturing)
    code, text, _ = run(["sweep", *args], capsys)
    assert code == 0
    code, out, _ = run(["sweep", *args, "--format", "json"], capsys)
    assert code == 0
    chi = "--chi" in args
    assert built and all(type(v) is float for row in built for v in row.values()
                         if v is not None)
    payload = json.loads(out)
    lines = text.splitlines()
    assert payload["columns"] == lines[0].split(",")
    assert len(payload["rows"]) == len(lines) - 1
    for row, line in zip(payload["rows"], lines[1:]):
        assert list(row) == payload["columns"]
        cells = ["" if v is None else cli._fmt(v) for v in row.values()]
        assert all(type(v) is float for v in row.values() if v is not None)
        assert (row["c_chi"] is None) != chi
        assert ",".join(cells) == line


def test_sinkhorn_both_methods_agree(capsys):
    code, out, err = run(["sinkhorn", "--lambda", "0.5", "0.4", "0.3",
                          "--t3", "0.3", "--method", "both"], capsys)
    assert code == 0
    match = re.search(r"method agreement \|A\|\|B\| gap: (\S+)", out)
    assert match and float(match.group(1)) < 1e-8


def test_sinkhorn_near_boundary_takes_few_newton_steps(capsys):
    # |t3| + |lambda3| = 0.999: the alternating loop needed hundreds of sweeps
    code, out, err = run(["sinkhorn", "--lambda", "0.3", "0.3", "0.499",
                          "--t3", "0.5", "--method", "iterate",
                          "--tol", "1e-13"], capsys)
    assert (code, err) == (0, "")
    steps = re.search(r"Newton steps: (\d+)", out)
    assert steps and int(steps.group(1)) <= 10


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


@pytest.mark.parametrize("args, digest", [
    (["--gad", "--p", "1e-4", "--gamma-t", "1"],
     "cd852795830a59be193c6acb9b1ffa02a7ed7f7d98bda8ba328c40a0b5cbcb68"),
    (["--lambda", "0.5", "0.4", "0.3", "--t3", "0.2"],
     "6775daabbffe37d745fe6e04a1ed3d4f91d9935d872213849c67d0213330a8ab"),
], ids=["gad", "lambda"])
def test_sinkhorn_output_is_pinned(args, digest, capsys):
    # both methods' operators, norm products, Newton steps and residuals
    code, out, err = run(["sinkhorn", *args], capsys)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_sinkhorn_without_newton_steps_fails_with_the_single_channel_error(capsys):
    code, out, err = run(["sinkhorn", "--lambda", "0.5", "0.4", "0.3", "--t3", "0.3",
                          "--method", "iterate", "--max-iter", "0"], capsys)
    assert (code, out, err) == (4, "", "error: residual inf > 1.0e-12 after 0 Newton steps\n")


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
        "min product 1.255909 over random invertible operators")
    assert details["per_use_rate_penalty"] == (
        "min slack 4.82e-05 of log2(P)/n over the penalty bound")
    assert details["norm_product_diverges_toward_boundary"] == (
        "|A||B| grows 4.63 -> 5.21e+06 as p -> 0; routes agree within "
        "cancellation-scaled tolerance")


@pytest.mark.parametrize("seed, digest", [
    ("7", "26f13b9fae7eef98e09dbfe47cdc7a246dbef17e12e218b5c87110177bcadb05"),
    ("1704011245", "f4b73983c5e64b3d6f4c6c4059ad71f6ab2e91b5a98c4a8331a61e2d5674ee72"),
    ("216046928", "32e165aaa99f2a4318b80a1a7c5df1836a32d9babdab6c613190d24f88e77bcc"),
], ids=["7", "1704011245", "216046928"])
def test_verify_output_is_pinned(seed, digest, capsys):
    # every check detail, round-off ones included: a kernel change that
    # moves any of them has to show it here.  Seeds 1704011245 and
    # 216046928 drew, before the draws were stacked, the two instances that
    # test_verify.py now holds by their parameters
    code, out, err = run(["verify", "--suite", "all", "--seed", seed], capsys)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


PROTOCOL_DIGESTS = {
    "11": "fa9f34e9c2511f0aef478b4ca65b4f91a1feffe880599e5640b931a9223e5d54",
    "2024": "663c7a2fcc9306ebe8c95f18338a5c7c3f75f6ab10ae8bcd239e43602651fe10",
    "31337": "b8e723fb577ec4b45b14bc30c6aa0081b7b9c63c550fe42699fd0e9536f6d26b",
    "99991": "36617d50400cfe394ed31cc5588b4d3f084e17db7df4e7325ca2a965ea47afd6",
    "123456789": "30c5072c25bdebc0fb8f994e7127e0dc7ca47a7a2594b48890510f05c7fb37bf",
    "4000000007": "ddc396f5c444f778ea2097b8be9b8dd1661650d2f621e993bcc2eeab1430f0fa",
    "271828": "5c8d46aafa732a09c9d911d4f4412623019877c8d3e48d785995ffdc2314c683",
    "1618033": "79e0219d9aae05b6808089447f5f35b507b79a628c0436280e4a0abfe12a8935",
}


@pytest.mark.parametrize("seed", list(PROTOCOL_DIGESTS))
def test_verify_protocol_output_is_pinned(seed, capsys):
    # the protocol checks' details, round-off ones included, at seeds whose
    # digests were taken before the checks ran once per block length on
    # padded instances: the padding must not reach a reported number
    code, out, err = run(["verify", "--suite", "protocol", "--seed", seed], capsys)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == PROTOCOL_DIGESTS[seed]


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
        assert cli._fmt(chi_capacity_numeric(params).value) == expected


@pytest.mark.parametrize("args, digest", [
    (["--gad", "--p", "0.475", "--x", "gamma_t", "--min", "0.05", "--max", "3",
      "--steps", "60"], "55f6d318f1cd299d586469ec507299dee02f96500529ea5ad090bf5d25ace224"),
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
      "--steps", "60"], "0cf4262c969bf6e9db4335c145e287d0174bdd207c47c969cac159a8bfca276d"),
    (["--mix", "--x", "p", "--min", "0.02", "--max", "0.98", "--steps", "49"],
     "490e89902a1dee239e3e7fb10f078163c6e9a033bc2b0fda0e6241f17555ddff"),
], ids=["fig1", "fig2"])
def test_figure_chi_csv_pinned(args, digest, capsys):
    # the figure CSVs themselves, the chi column included, byte for byte
    code, out, err = run(["sweep", *args, "--chi", "--seed", "42"], capsys)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("preset, args, digest", [
    ("fig1", ["--gad", "--p", "0.475", "--x", "gamma_t", "--min", "0.05", "--max", "3",
              "--steps", "60"],
     "8de85f229402a7c238a328943a5c197d810a54af2ad9e03bb7f0296307601435"),
    ("fig2", ["--mix", "--x", "p", "--min", "0.02", "--max", "0.98", "--steps", "49"],
     "4fa173a320d6a96c913dcb822aab3dd6bdfe07dca97b6aae6ba1e9f21cf4af03"),
], ids=["fig1", "fig2"])
def test_figure_svg_pinned(preset, args, digest, tmp_path, capsys):
    # the figures themselves: each preset rendered from its pinned figure
    # CSV, byte for byte
    csv_path, svg_path = tmp_path / f"{preset}.csv", tmp_path / f"{preset}.svg"
    assert cli.main(["sweep", *args, "--chi", "--seed", "42", "--out", str(csv_path)]) == 0
    code, out, err = run(["render", "--preset", preset, "--in", str(csv_path),
                          "--out", str(svg_path)], capsys)
    assert (code, out, err) == (0, "", "")
    assert hashlib.sha256(svg_path.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("sweep_args, render_args, digest", [
    (["--gad", "--p", "0.3135671843055624", "--x", "gamma_t", "--min=0.05", "--max=3.0"],
     ["--preset", "fig1"], "0457af394bf81781e575c2507640e4fcea42591376871c0b66bc9ae32d11ab1a"),
    (["--mix", "--x", "p", "--min=0.02", "--max=0.98"],
     ["--preset", "fig2"], "2af244596ca8c574169d84af759d7e4540f21f86b24a38f1b86a55f66b59f40e"),
    (["--lambda", "0.418366", "-0.367108", "-0.220811", "--x", "t3",
      "--min=-0.6179790587404281", "--max=0.6179790587404281"],
     ["--x", "x", "--series", "c_lower_raw:solid:lower",
      "--series", "c_upper_raw:dashed:upper"],
     "48c80bc4b2b7210ded603b4bff3fdf6f98b35bca1086bd0e438ff0d31d4febab"),
], ids=["gad-fig1", "mix-fig2", "custom"])
def test_closed_form_sweep_charts_pinned(sweep_args, render_args, digest, tmp_path, capsys):
    # 100-point sweeps without --chi, drawn by a preset or by explicit
    # series, byte for byte
    csv_path, svg_path = tmp_path / "sweep.csv", tmp_path / "chart.svg"
    assert cli.main(["sweep", *sweep_args, "--steps", "100", "--out", str(csv_path)]) == 0
    code, out, err = run(["render", "--in", str(csv_path), "--out", str(svg_path),
                          *render_args], capsys)
    assert (code, out, err) == (0, "", "")
    assert hashlib.sha256(svg_path.read_bytes()).hexdigest() == digest


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
    assert cli._fmt(result.value) == cell
    assert format(exact, ".12g") == cell
    assert abs(exact - Decimal(result.value)) <= Decimal("1e-15")  # entropies near 1 in doubles


FIG1_COLUMNS = ("lambda_t1", "lambda_t2", "lambda_t3", "norm_AB", "norm_AinvBinv",
                "c_unital", "c_lower_raw", "c_upper_raw", "c_lower", "c_upper")


def _gad_row_50_digits(mpmath, p, gamma_t) -> dict:
    # the GAD closed form of every bounds column, in 50-digit arithmetic on
    # the exact values of the doubles p and gamma_t
    p, gt = mpmath.mpf(p), mpmath.mpf(gamma_t)
    u = mpmath.exp(-2 * gt)
    f = mpmath.sqrt(p * (1 - p)) * (1 - u) + mpmath.sqrt((1 - p + p * u) * (p + (1 - p) * u))
    lt1 = mpmath.exp(-gt) / f
    x = (1 - lt1) / 2
    unital = 1 + x * mpmath.log(x, 2) + (1 - x) * mpmath.log(1 - x, 2)
    half_log_ratio = mpmath.log((1 - p) / p, 2) / 2
    lower = unital - half_log_ratio + mpmath.log(f, 2)
    upper = unital + half_log_ratio + mpmath.log(f, 2)
    quarter = ((1 - p) / p) ** mpmath.mpf(0.25)
    values = (lt1, lt1, u / f**2, quarter / mpmath.sqrt(f), quarter * mpmath.sqrt(f),
              unital, lower, upper, min(max(lower, 0), 1), min(max(upper, 0), 1))
    return dict(zip(FIG1_COLUMNS, values))


def test_fig1_bounds_cells_are_correctly_rounded(capsys):
    # every bounds cell of the fig1 CSV is its 50-digit value correctly
    # rounded to 12 digits, except the lower bound at gamma_t = 1.15
    mpmath = pytest.importorskip("mpmath")
    code, out, err = run(["sweep", "--gad", "--p", "0.475", "--x", "gamma_t", "--min", "0.05",
                          "--max", "3", "--steps", "60"], capsys)
    assert (code, err) == (0, "")
    header, *lines = out.splitlines()
    names = header.split(",")
    grid = np.linspace(0.05, 3.0, 60).tolist()
    assert len(lines) == len(grid)
    off = []
    with mpmath.workdps(50):
        for i, (gamma_t, line) in enumerate(zip(grid, lines)):
            row = dict(zip(names, line.split(",")))
            for name, exact in _gad_row_50_digits(mpmath, 0.475, gamma_t).items():
                if float(row[name]) != float(mpmath.nstr(exact, 12)):
                    off.append((i, name, row[name], exact))
    # lower_raw = unital - gap cancels there (6.3e-5 from values near 0.01),
    # so the cell is one unit of its 12th digit off; its unrounded error
    # was 1.1e-15 with the Gram-discriminant norms
    assert [(i, name) for i, name, *_ in off] == [(22, "c_lower_raw"), (22, "c_lower")]
    params = cli._FAMILIES["gad"][2](p=0.475, gamma_t=grid[22])
    lower_raw = capacity.analyze(params).bounds.lower_raw
    with mpmath.workdps(50):
        for _, _, cell, exact in off:
            assert abs(mpmath.mpf(cell) - exact) <= mpmath.mpf("1.01e-16")
            assert abs(mpmath.mpf(lower_raw) - exact) <= mpmath.mpf("1e-16")


def _family_json_50_digits(mpmath, l1, l2, l3, t3) -> dict:
    # norm_AB and c_lower_raw of `analyze --json` from the family closed
    # forms, in 50-digit arithmetic
    l1, l2, l3, t3 = (mpmath.mpf(v) for v in (l1, l2, l3, t3))
    p, m, r, s = (mpmath.sqrt(1 + t3 + l3), mpmath.sqrt(1 - t3 - l3),
                  mpmath.sqrt(1 + t3 - l3), mpmath.sqrt(1 - t3 + l3))
    denom = p * s + m * r
    g = mpmath.sqrt(2 / denom)
    norm_ab = (max(mpmath.sqrt(m * s), mpmath.sqrt(p * r))
               * max(g / mpmath.sqrt(p * m), g / mpmath.sqrt(r * s)))
    x = (1 - max(abs(2 * l1 / denom), abs(2 * l2 / denom), abs(4 * l3 / denom**2))) / 2
    unital = 1 + x * mpmath.log(x, 2) + (1 - x) * mpmath.log(1 - x, 2)
    return {"norm_AB": norm_ab, "c_lower_raw": unital - 2 * mpmath.log(norm_ab, 2)}


def test_analyze_json_values_are_no_farther_from_50_digits():
    # the two values the exact operator norm moved, against what the
    # Gram-discriminant norm printed for them
    mpmath = pytest.importorskip("mpmath")
    printed = json.loads(GOLDEN_ANALYZE_JSON)
    before = {"norm_AB": 1.1714441187137419, "c_lower_raw": -0.2586789502276268}
    with mpmath.workdps(50):
        exact = _family_json_50_digits(mpmath, 0.5, 0.4, 0.3, 0.2)
        for name, old in before.items():
            assert printed[name] != old
            assert abs(mpmath.mpf(printed[name]) - exact[name]) <= abs(mpmath.mpf(old) - exact[name])


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
  "norm_AB": 1.1714441187137417,
  "norm_AinvBinv": 1.1452879100823092,
  "c_unital": 0.19789731997143412,
  "c_lower_raw": -0.25867895022762627,
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


BAD_INPUT = [
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
     "after 0 Newton steps"),
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
    # a channel value the family does not take, or that the sweep sweeps
    (["analyze", *GAD_ARGS, "--t3", "0.5"], 2, "does not take --t3"),
    (["analyze", "--mix", "--p", "0.3", "--gamma-t", "7"], 2, "does not take --gamma-t"),
    (["analyze", "--lambda", "0.5", "0.4", "0.3", "--p", "0.3"], 2, "does not take --p"),
    (["sinkhorn", *CHANNEL, "--gamma-t", "1"], 2, "does not take --gamma-t"),
    (["sweep", "--mix", "--p", "0.3", "--x", "p", "--min", "0.1", "--max", "0.9",
      "--steps", "3"], 2, "--p is the swept variable"),
    (["sweep", *GAD_SWEEP, "--gamma-t", "1"], 2, "--gamma-t is the swept variable"),
    (["sweep", *CHANNEL, "--x", "t3", "--min", "0", "--max", "0.5", "--steps", "3"], 2,
     "--t3 is the swept variable"),
    # a non-finite y range is a bad flag value, like every other numeric flag
    (["render", "--preset", "fig1", "--in", "sweep.csv", "--out", "chart.svg",
      "--ymin", "nan"], 2, "finite"),
    (["render", "--preset", "fig1", "--in", "sweep.csv", "--out", "chart.svg",
      "--ymax", "inf"], 2, "finite"),
    # -inf reads as a flag, not as a negative number
    (["analyze", *CHANNEL[:-1], "-inf"], 2, "--t3: expected one argument"),
    # finite ends whose distance is not finite
    (["sweep", "--gad", "--p", "0.3", "--x", "gamma_t", "--min=-1e308", "--max", "1.7e308",
      "--steps", "3"], 2, "overflows"),
    # |t3| + |lambda3| rounds to 1: the closed forms refuse these channels
    (["analyze", "--lambda", "0", "0", "0.3", "--t3", "0.7"], 2, "not interior"),
    (["analyze", "--gad", "--p", "1e-17", "--gamma-t", "0.97"], 2, "not interior"),
]


def _set_env(args, monkeypatch):
    # a leading NAME=value sets the environment, as in a shell; returns the rest
    while args and "=" in args[0]:
        name, value = args[0].split("=", 1)
        monkeypatch.setenv(name, value)
        args = args[1:]
    return args


@pytest.mark.parametrize("args, exit_code, phrase", BAD_INPUT)
def test_bad_input_exits_with_its_code(args, exit_code, phrase, capsys, monkeypatch):
    args = _set_env(args, monkeypatch)
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


@pytest.mark.parametrize("args", [
    ["analyze", "--lambda", "0.5", "0.4", "0.3", "--t3", "0.2"],
    ["sweep", *GAD_SWEEP],
    ["sinkhorn", *CHANNEL, "--method", "closed-form"],
    ["verify", "--suite", "core"],
], ids=["analyze", "sweep", "sinkhorn", "verify"])
def test_unwritable_out_exits_2(args, tmp_path, capsys):
    # a bad --out is a bad flag value, not a traceback, and for verify not
    # a failed check
    code, out, err = run([*args, "--out", str(tmp_path / "missing" / "out")], capsys)
    assert code == 2
    assert "error: cannot write --out" in err and "Traceback" not in err


def test_parser_is_built_once():
    # main() parses with the one cached parser instead of rebuilding it
    assert cli.build_parser() is cli.build_parser()


def test_cli_imports_no_reference_library():
    # numpy is the only runtime dependency; scipy and mpmath serve the
    # tests as references only
    script = ("import sys; from qcap import cli; "
              "code = cli.main(['sweep', '--gad', '--p', '0.3', '--x', 'gamma_t', '--min', '0.2', "
              "'--max', '1.0', '--steps', '3', '--chi']); "
              "print(code, sorted({'scipy', 'mpmath'} & {m.split('.')[0] for m in sys.modules}))")
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "0 []"


def test_cli_imports_no_pool_machinery():
    # a sweep runs in one process, whatever --workers says, so no start
    # pays for the process pool modules
    script = ("import sys; from qcap import cli; "
              "code = cli.main(['sweep', '--gad', '--p', '0.3', '--x', 'gamma_t', '--min', '0.2', "
              "'--max', '1.0', '--steps', '3', '--chi', '--workers', '3']); "
              "print(code, sorted({'concurrent', 'multiprocessing'} "
              "& {m.split('.')[0] for m in sys.modules}))")
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "0 []"


def test_cli_imports_render_and_verify_only_for_their_commands(tmp_path):
    # render (and with it csv) and verify are imported by the commands that
    # use them, so a sweep starts without them
    script = ("import sys; from qcap import cli; csv_path, svg_path = sys.argv[1:]; "
              "code = cli.main(['sweep', '--gad', '--p', '0.3', '--x', 'gamma_t', '--min', '0.2', "
              "'--max', '1.0', '--steps', '3', '--chi', '--out', csv_path]); "
              "loaded = sorted({'qcap.render', 'qcap.verify', 'csv'} & set(sys.modules)); "
              "rendered = cli.main(['render', '--preset', 'fig1', '--in', csv_path, "
              "'--out', svg_path]); "
              "print(code, loaded, rendered, 'qcap.render' in sys.modules)")
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", script, str(tmp_path / "sweep.csv"),
                           str(tmp_path / "chart.svg")], capture_output=True, text=True,
                          env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "0 [] 0 True"


@pytest.mark.parametrize("exponent, decimal", [
    (["analyze", "--lambda", "0.5", "0.4", "-1e-3", "--t3", "0.1"],
     ["analyze", "--lambda", "0.5", "0.4", "-0.001", "--t3", "0.1"]),
    (["analyze", "--lambda", "-1.5E-1", "0.4", "0.3", "--t3", "0.1", "--json"],
     ["analyze", "--lambda", "-0.15", "0.4", "0.3", "--t3", "0.1", "--json"]),
    (["analyze", "--lambda", "0.5", "0.4", "0.3", "--t3", "-.5e-1"],
     ["analyze", "--lambda", "0.5", "0.4", "0.3", "--t3", "-0.05"]),
    (["analyze", "--lambda", "0.5", "0.4", "0.3", "--t3", "-0.001e+2"],
     ["analyze", "--lambda", "0.5", "0.4", "0.3", "--t3", "-0.1"]),
    (["sweep", "--lambda", "0.5", "0.4", "0.3", "--x", "t3", "--min", "-2.5E-1",
      "--max", "0.2", "--steps", "4"],
     ["sweep", "--lambda", "0.5", "0.4", "0.3", "--x", "t3", "--min", "-0.25",
      "--max", "0.2", "--steps", "4"]),
], ids=["lambda", "lambda-upper-e", "t3-leading-dot", "t3-plus-exponent", "sweep-min"])
def test_negative_exponent_notation_reads_as_a_value(exponent, decimal, capsys):
    # a negative number in exponent notation is a value, as in decimal notation
    expected = run(decimal, capsys)
    assert expected[0] == 0
    assert run(exponent, capsys) == expected


def _exit_code(main, argv):
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def _parse_twice(argv):
    # the reference: the top-level parser's parse_args, which hands a
    # subcommand's arguments on to that subcommand's parser
    args = cli.build_parser().parse_args(argv)
    return args.func(args)


DISPATCH_EDGES = {
    "unknown-flag": ["analyze", *CHANNEL, "--bogus"],
    "version-after-command": ["sweep", "--version"],
    "abbreviated-flag": ["analyze", "--lamb", "0.5", "0.4", "0.3", "--t3", "0.2"],
    "help": ["-h"],
    "command-help": ["sweep", "-h"],
    "version": ["--version"],
    "no-command": [],
    "unknown-command": ["plot", "--x", "p"],
    "missing-value": ["analyze", "--gad", "--p"],
    "missing-required": ["sweep", "--gad", "--p", "0.3"],
    "bad-type": ["sweep", *GAD_SWEEP[:-1], "three"],
    "extra-positionals": ["sweep", *GAD_SWEEP, "a", "b"],
    "extras-between-flags": ["analyze", "x", *CHANNEL, "--y", "z"],
    "option-before-command": ["--version", "sweep"],
    "ok": ["analyze", *CHANNEL],
}


@pytest.mark.parametrize("argv", [*DISPATCH_EDGES.values(), *(a for a, _, _ in BAD_INPUT)],
                         ids=[*DISPATCH_EDGES, *(f"bad{i}" for i in range(len(BAD_INPUT)))])
def test_one_pass_dispatch_matches_parse_args(argv, capsys, monkeypatch):
    # cli.main parses a subcommand's arguments with that subcommand's
    # parser alone: same exit code, stdout and stderr as parse_args
    argv = _set_env(argv, monkeypatch)
    expected = (_exit_code(_parse_twice, argv), *capsys.readouterr())
    assert (_exit_code(cli.main, argv), *capsys.readouterr()) == expected


@pytest.mark.parametrize("command", ["sweep", "render"])
def test_a_command_is_parsed_once(command, tmp_path, capsys, monkeypatch):
    # a timing-free guard: one parse_known_args call, by the subcommand's
    # own parser, where parse_args made two
    csv_path = tmp_path / "sweep.csv"
    assert cli.main(["sweep", *GAD_SWEEP, "--out", str(csv_path)]) == 0
    argv = {"sweep": ["sweep", *GAD_SWEEP],
            "render": ["render", "--preset", "fig1", "--in", str(csv_path),
                       "--out", str(tmp_path / "chart.svg")]}[command]
    parsers = []
    parse = argparse.ArgumentParser.parse_known_args

    def counting(self, *args, **kwargs):
        parsers.append(self.prog)
        return parse(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counting)
    assert cli.main(argv) == 0
    assert parsers == [f"qcap {command}"]


def test_sweep_grid_is_numpy_linspace():
    # the float grid gives np.linspace's bits, subnormal steps included
    rng = np.random.default_rng(27)
    cases = [(0.05, 3.0, 60), (0.02, 0.98, 49), (0.0, 5e-324, 7), (-1e-310, 1e-310, 11),
             (-0.0, 1.0, 3), (-1e300, 1e300, 4)]
    for _ in range(3000):
        lo, hi = sorted((rng.standard_normal(2) * 10.0 ** rng.integers(-325, 300, 2)).tolist())
        if lo < hi:
            cases.append((lo, hi, int(rng.integers(2, 40))))
    for _ in range(1000):  # a few units of the least subnormal apart: the step is often 0
        lo, hi = (m * 5e-324 for m in sorted(rng.integers(-60, 60, 2).tolist()))
        if lo < hi:
            cases.append((lo, hi, int(rng.integers(2, 200))))
    assert sum((hi - lo) / (steps - 1) == 0.0 for lo, hi, steps in cases) > 300
    for lo, hi, steps in cases:
        grid = cli._grid(lo, hi, steps)
        assert [x.hex() for x in grid] == [x.hex() for x in np.linspace(lo, hi, steps).tolist()]
