import csv
import dataclasses
import enum
import io
import json
import math
import os
import subprocess
import sys
from contextlib import redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cknlab
from cknlab import energy
from cknlab.cli import run_command
from cknlab.params import InvalidParameters, make_params


def run_cli(argv):
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = run_command(argv)
    return code, buffer.getvalue()


def test_gap_command_reference_point():
    code, out = run_cli(["gap", "4", "0", "0.5"])
    assert code == 0
    doc = json.loads(out)
    assert doc["region"] == "CaseII"
    assert doc["lambda_star"] == pytest.approx(1.0 / 3.0, rel=1e-12)
    assert doc["winner"] == [0, 2]
    # the alternative published branch is surfaced alongside the used value
    assert "lambda_star_variant" in doc


def test_gap_command_remaining_point_surfaces_both_branches():
    code, out = run_cli(["gap", "4", "0", "0.3"])
    assert code == 0
    doc = json.loads(out)
    assert doc["lambda_star"] == pytest.approx(53.0 / 143.0, rel=1e-12)
    assert doc["lambda_star_variant"] == pytest.approx(1338.0 / 1716.0, rel=1e-12)


def test_bounds_command_surfaces_both_exponents():
    code, out = run_cli(["bounds", "4", "0", "0.5"])
    assert code == 0
    doc = json.loads(out)
    p = make_params(4, 0.0, 0.5).p
    assert doc["bounds"]["bound_two_bubble"] == pytest.approx(2.0 - 2.0 ** (2.0 / (p + 1.0)))
    assert doc["bounds"]["bound_two_bubble_variant"] == pytest.approx(
        2.0 - 2.0 ** (1.0 / (p + 1.0))
    )


def test_invalid_point_exit_code_and_message():
    code, out = run_cli(["region", "4", "0", "1.0"])
    assert code == 2
    doc = json.loads(out)
    assert doc["error"] == "b < a+1 violated"
    assert doc["kind"] == "InvalidParameters"


def test_degenerate_point_exit_code():
    from cknlab.params import felli_schneider

    b_fs = felli_schneider(3, -1.0)
    code, out = run_cli(["region", "3", "-1", str(b_fs)])
    assert code == 2
    assert json.loads(out)["kind"] == "DegenerateBoundary"


def test_spectrum_command_shape():
    code, out = run_cli(["spectrum", "4", "0", "0.5", "--imax", "1", "--jmax", "1"])
    assert code == 0
    doc = json.loads(out)
    assert len(doc["eigenvalues"]) == 4
    lam01 = [e for e in doc["eigenvalues"] if e["i"] == 0 and e["j"] == 1][0]
    assert lam01["lambda"] == pytest.approx(1.0, rel=1e-12)


def test_output_is_reproducible():
    _, first = run_cli(["zhat", "4", "0", "0.3"])
    _, second = run_cli(["zhat", "4", "0", "0.3"])
    assert first == second


def test_json_round_trip_recomputes_identically():
    _, out = run_cli(["gap", "5", "-0.4", "0.35"])
    doc = json.loads(out)
    _, again = run_cli(["gap", str(doc["N"]), str(doc["a"]), str(doc["b"])])
    assert json.loads(again)["lambda_star"] == doc["lambda_star"]


def test_energy_command(params_p3):
    code, out = run_cli(["energy", "4", "0.5", "0.5", "--s", "8", "--eps", "0.01"])
    assert code == 0
    doc = json.loads(out)
    assert doc["two_bubble"]["value"] < doc["two_bubble"]["bounds"]["bound_two_bubble"]
    assert doc["a0"] == pytest.approx(39.47841760435743, rel=1e-10)


def test_sweep_csv(tmp_path):
    config = {
        "N": 4,
        "a_range": {"min": -1.0, "max": 0.9, "steps": 50},
        "b_rule": {"type": "absolute", "min": -0.8, "max": 1.8, "steps": 50},
        "tasks": ["gap", "bounds"],
        "format": "csv",
        "output": str(tmp_path / "sweep.csv"),
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    os.environ["CKNLAB_WORKERS"] = "1"
    try:
        code, out = run_cli(["sweep", "--config", str(path)])
    finally:
        del os.environ["CKNLAB_WORKERS"]
    assert code == 0
    with open(tmp_path / "sweep.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    header, data = rows[0], rows[1:]
    assert header == [
        "N",
        "a",
        "b",
        "region",
        "lambda_star",
        "gap_winner",
        "lambda_star_variant",
        "bound_two_bubble",
        "bound_two_bubble_variant",
        "bound_gap",
        "effective_bound",
    ]
    assert len(data) == 2500
    # row count of valid points equals an independent validation pass
    valid = 0
    for a in [(-1.0 + i * (1.9 / 49)) for i in range(50)]:
        for b in [(-0.8 + j * (2.6 / 49)) for j in range(50)]:
            try:
                make_params(4, a, b)
                valid += 1
            except Exception:
                pass
    flagged = [r for r in data if r[3] in ("Invalid", "DegenerateBoundary")]
    assert len(data) - len(flagged) == valid
    # invalid rows have empty task columns; valid rows carry 17-digit floats
    for r in flagged:
        assert all(cell == "" for cell in r[4:])
    sample = next(r for r in data if r[3] == "CaseII")
    assert float(sample[4]) > 0.0
    assert len(sample[4].replace("-", "").replace(".", "").replace("e", "").lstrip("0")) >= 15


def test_sweep_config_validation(tmp_path):
    bad_configs = [
        {"N": 4, "a_range": {"min": 0.0, "max": 1.0, "steps": 0},
         "b_rule": {"type": "absolute", "min": 0.0, "max": 1.0, "steps": 2}},
        {"N": 4, "a_range": {"min": 1.0, "max": 0.0, "steps": 2},
         "b_rule": {"type": "absolute", "min": 0.0, "max": 1.0, "steps": 2}},
        {"N": 4, "a_range": {"min": 0.0, "max": 1.0, "steps": 2},
         "b_rule": {"type": "absolute", "min": 1.0, "max": 0.0, "steps": 2}},
        {"N": 4, "a_range": {"min": 0.0, "max": 1.0, "steps": 2},
         "b_rule": {"type": "offset_fs", "offsets": []}},
        {"N": 4, "a_range": {"min": 0.0, "max": 1.0, "steps": 2},
         "b_rule": {"type": "absolute", "min": 0.0, "max": 1.0, "steps": 2},
         "tasks": ["no_such_task"]},
        {"a_range": {"min": 0.0, "max": 1.0, "steps": 2},
         "b_rule": {"type": "absolute", "min": 0.0, "max": 1.0, "steps": 2}},
        {"N": 4, "a_range": {"max": 1.0, "steps": 2},
         "b_rule": {"type": "absolute", "min": 0.0, "max": 1.0, "steps": 2}},
        [4, 0.0, 1.0],
        {"N": 4, "a_range": {"min": "x", "max": 1.0, "steps": 2},
         "b_rule": {"type": "absolute", "min": 0.0, "max": 1.0, "steps": 2}},
        {"N": 4, "a_range": [0, 1, 2],
         "b_rule": {"type": "absolute", "min": 0.0, "max": 1.0, "steps": 2}},
        {"N": 4, "a_range": {"min": 0.0, "max": 1.0, "steps": 2},
         "b_rule": {"type": "absolute", "min": 0.0, "max": 1.0, "steps": 2}, "format": "xml"},
        {"N": 4, "a_range": {"min": 0.0, "max": 1.0, "steps": 3.7},
         "b_rule": {"type": "absolute", "min": 0.0, "max": 1.0, "steps": 2}},
        {"N": True, "a_range": {"min": 0.0, "max": 1.0, "steps": 2},
         "b_rule": {"type": "absolute", "min": 0.0, "max": 1.0, "steps": 2}},
    ]
    paths = []
    for k, config in enumerate(bad_configs):
        path = tmp_path / f"bad{k}.json"
        path.write_text(json.dumps(config))
        paths.append(path)
    not_json = tmp_path / "not_json.json"
    not_json.write_text("{N: 4")
    paths += [not_json, tmp_path / "missing.json"]
    errors = []
    for path in paths:
        code, out = run_cli(["sweep", "--config", str(path)])
        assert code == 2
        doc = json.loads(out)
        assert doc["kind"] == "InvalidParameters"
        errors.append(doc["error"])
    # a missing key is named; an unreadable file says why
    assert errors[5:7] == ["sweep config lacks N", "a_range lacks min"]
    # a malformed value names its key
    assert errors[8:13] == [
        "a_range.min is not a number: 'x'",
        "a_range is not a JSON object",
        "unknown format 'xml'",
        "a_range.steps is not an integer: 3.7",
        "N is not an integer: True",
    ]
    assert "No such file" in errors[-1]
    # numeric strings and integral floats are read as integers
    plain = {"N": 4, "a_range": {"min": 0.0, "max": 0.3, "steps": 2},
             "b_rule": {"type": "absolute", "min": 0.35, "max": 0.9, "steps": 3}}
    spelled = {"N": "4", "a_range": {"min": 0.0, "max": 0.3, "steps": 2.0},
               "b_rule": {"type": "absolute", "min": 0.35, "max": 0.9, "steps": "3"}}
    outputs = []
    for k, config in enumerate((plain, spelled)):
        path = tmp_path / f"good{k}.json"
        path.write_text(json.dumps(config))
        outputs.append(run_cli(["sweep", "--config", str(path)]))
    assert outputs[0] == outputs[1] and outputs[0][0] == 0


def test_sweep_offsets_mode(tmp_path):
    config = {
        "N": 4,
        "a_range": {"min": -1.0, "max": -0.5, "steps": 3},
        "b_rule": {"type": "offset_fs", "offsets": [1e-2, 1e-4]},
        "tasks": ["gap"],
        "format": "json",
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    code, out = run_cli(["sweep", "--config", str(path)])
    assert code == 0
    doc = json.loads(out)
    assert len(doc["rows"]) == 6
    assert all(row["region"] == "Remaining" for row in doc["rows"])
    by_a = {}
    for row in doc["rows"]:
        by_a.setdefault(row["a"], []).append(row["lambda_star"])
    for values in by_a.values():
        assert values[0] > values[1]  # gap constant shrinks toward the curve


def null_fields(doc, prefix=""):
    """Dotted paths of the null values in a JSON document."""
    if not isinstance(doc, dict):
        return [prefix.rstrip(".")] if doc is None else []
    return [path for key, value in doc.items() for path in null_fields(value, f"{prefix}{key}.")]


# at (4, 0.2, 1.1995), where p = 1.0005, the bubble amplitude underflows to 0.0
NULL_AT_THE_EDGE = {
    "zhat": [
        "boundary_note",
        "appendix.zhat.value",
        "appendix.zhat.value_variational",
        "appendix.zhat.prefactor",
        "appendix.zhat.moment4",
    ],
    "energy": [
        "boundary_note",
        "a0",
        "two_bubble.value",
        "two_bubble.distance_sq",
        "two_bubble.shift",
        "two_bubble.numerator",
        "two_bubble.a0",
        "two_bubble.deficit",
        "two_bubble.deficit_rate",
        "two_bubble.predicted_deficit_rate",
        "two_bubble.predicted_deficit_rate_display",
        "two_bubble.dist_ratio",
        "third_order",
        "gap_perturbation.value",
        "gap_perturbation.distance_sq",
        "gap_perturbation.numerator",
        "gap_perturbation.slope",
        "gap_perturbation.predicted_value",
    ],
}


@pytest.mark.parametrize("command", ["zhat", "energy", "minimize"])
def test_numerical_failure_exit_code(command):
    # near p -> 1 the closed forms report null where a value leaves the double
    # range, while the minimizer, which cannot normalize a zero start, names
    # the underflow and exits 3
    code, out = run_cli([command, "4", "0.2", "1.1995"])
    doc = json.loads(out)
    if command == "minimize":
        assert code == 3
        assert doc == {
            "error": "Psi underflows on the grid at p = 1.0005: no start can be normalized",
            "kind": "NumericalFailure",
        }
        return
    assert code == 0, out
    assert "Infinity" not in out
    assert null_fields(doc) == NULL_AT_THE_EDGE[command]
    if command == "zhat":
        assert doc["appendix"]["sign_negative"]


def test_exit_codes_where_the_log_amplitude_passes_709():
    # p = 1.0037: Psi overflows at its core, so minimize names that before it
    # builds a start, and energy's shift search meets a non-finite overlap
    point = ["7", "--", "-1.5425261202515272", "-0.5489221307086825"]
    for command, kind in (("minimize", "NumericalFailure"), ("energy", "SearchFailure")):
        code, out = run_cli([command, *point])
        assert code == 3
        assert json.loads(out)["kind"] == kind


def same_as_api(got, want) -> bool:
    """Does a JSON value equal the API value it was printed from, NaN as null?"""
    if dataclasses.is_dataclass(want):
        want = dataclasses.asdict(want)
    if isinstance(want, enum.Enum):
        want = want.value
    if isinstance(want, dict):
        return set(got) == set(want) and all(same_as_api(got[k], v) for k, v in want.items())
    if isinstance(want, float) and math.isnan(want):
        return got is None
    return got == want


@pytest.mark.parametrize(
    "command, n_dim, a, b",
    [
        ("energy", 2, "-1.855600632470652", "-0.857533610593477"),
        ("energy", 5, "-1.662221751086018", "-0.667424875520033"),
        ("energy", 4, "-1.345409467114971", "-0.352714815525238"),
        ("energy", 2, "-1.895946933674844", "-0.898939867868625"),
        # the integral of Psi^(p+1) underflows to zero on the cylinder grid
        ("energy", 5, "1.498298163813933", "2.473173082998919"),
        ("zhat", 6, "-1.580951283485476", "-0.586095058095253"),
    ],
)
def test_closed_forms_report_null_near_p_to_1(command, n_dim, a, b):
    # p = 1.003 to 1.02: the amplitude, A0 or amp^(p-3) leaves the double range
    code, out = run_cli([command, str(n_dim), "--", a, b])
    assert code == 0, out
    assert "Infinity" not in out
    doc = json.loads(out)
    params = make_params(n_dim, float(a), float(b))
    if command == "zhat":
        want = {"appendix": energy.appendix_report(params)}
    else:
        want = {
            "a0": energy.a0_coefficient(params),
            "two_bubble": energy.two_bubble_quotient(params, 10.0 / params.gamma),
            "third_order": energy.third_order_coefficient(params),
            "gap_perturbation": energy.gap_perturbation_quotient(params, 0.01),
        }
    for key, value in want.items():
        assert same_as_api(doc[key], value), key


def test_minimize_payload_reports_why_the_descent_stopped():
    code, out = run_cli(["minimize", "4", "0.5", "0.6"])
    assert code == 0, out
    doc = json.loads(out)
    assert doc["start"].startswith("two-bubble dip s=")
    assert doc["stop"] == "gradient"
    assert "seed" not in doc and "starts" not in doc


def test_minimize_remaining_point_where_the_dip_ends_above_the_gap():
    code, out = run_cli(["minimize", "5", "0", "0.125"])
    assert code == 0, out
    doc = json.loads(out)
    assert (doc["start"], doc["stop"]) == ("gap limit", "limit")
    bounds = doc["bounds"]
    assert doc["q_best"] == bounds["bound_gap"]
    assert 0.0 < doc["q_best"] <= min(bounds["bound_gap"], bounds["bound_two_bubble"]) + 1e-3
    # no function attains the limit
    assert (doc["distance_sq"], doc["shift"], doc["gradient_norm"]) == (None, None, None)
    assert (doc["iterations"], doc["trace"]) == (0, [])


@pytest.mark.parametrize(
    "argv, named",
    [
        (["energy", "4", "0", "0.5", "--eps", "0.5"], "eps"),
        (["energy", "4", "0", "0.5", "--s", "1000"], "separation"),
        (["energy", "4", "0", "0.5", "--s", "-3"], "separation"),
    ],
)
def test_out_of_range_option_exits_2(argv, named):
    code, out = run_cli(argv)
    assert code == 2, out
    doc = json.loads(out)
    assert doc["kind"] == "InvalidParameters"
    assert named in doc["error"]


@pytest.mark.parametrize("b", ["0.98", "0.9728"])
def test_energy_reports_null_deficit_rate_where_the_decay_underflows(b):
    # exp(-2 gamma s/(p-1)) at the default s = 10/gamma is 0.0 at b = 0.98
    # (p = 1.0202) and subnormal at b = 0.9728 (p = 1.0276)
    code, out = run_cli(["energy", "4", "0", b])
    assert code == 0, out
    doc = json.loads(out)
    assert doc["two_bubble"]["deficit_rate"] is None
    for field in ("two_bubble", "gap_perturbation"):
        assert math.isfinite(doc[field]["value"])
        assert doc[field]["distance_sq"] > 0.0


def test_energy_reports_null_deficit_rate_below_the_rounding():
    # p = 1.0294: the decay factor is normal, but the predicted deficit
    # (about 1e-255) is far below the rounding of the quotient
    code, out = run_cli(["energy", "4", "0", "0.971"])
    assert code == 0, out
    report = json.loads(out)["two_bubble"]
    assert report["deficit_rate"] is None
    assert abs(report["deficit"]) < 1e-14
    assert report["predicted_deficit_rate"] > 1e40


def test_energy_reports_null_quotient_where_the_distance_is_not_positive():
    # p = 1.0195: |v|^2 - kappa <v, Psi>^2 cancels below zero for Psi + eps rho_02
    code, out = run_cli(["energy", "4", "--", "-0.806146388113428", "0.174538323634756"])
    assert code == 0, out
    doc = json.loads(out)
    assert doc["two_bubble"]["deficit_rate"] is None
    assert math.isfinite(doc["two_bubble"]["value"])
    assert doc["gap_perturbation"]["distance_sq"] <= 0.0
    assert doc["gap_perturbation"]["value"] is None


@pytest.mark.parametrize(
    "n_dim, a, b",
    [
        (5, "-1.638157212960170", "-0.705079975137794"),
        (6, "-1.941283571642614", "-1.165963486794666"),
        (5, "-0.881098950145430", "0.102414361406831"),
    ],
)
def test_energy_reports_null_quotient_where_the_minimizer_is_on_the_manifold(n_dim, a, b):
    # p = 1.013 to 1.16: the computed distance of Psi + 0.01 rho_02 is positive
    # but below 1e-10 |v|_H1^2, mostly cancellation; energy and the minimizer
    # both leave Q undefined there
    from cknlab.cylinder import combine, model_for
    from cknlab.minimizer import OnManifold, quotient

    params = make_params(n_dim, float(a), float(b))
    assert math.isnan(energy.gap_perturbation_quotient(params, 0.01).value)
    model = model_for(params)
    with pytest.raises(OnManifold):
        quotient(combine([1.0, 0.01], [model.psi_function(), model.rho02_function()]))
    code, out = run_cli(["energy", str(n_dim), "--", a, b])
    assert code == 0, out
    assert json.loads(out)["gap_perturbation"]["value"] is None


@pytest.mark.parametrize(
    "a, b",
    [
        ("-0.409781067211505", "0.568426142516292"),
        ("-0.686190553841156", "0.289072233096560"),
        ("-0.243300393001494", "0.728277455722079"),
        ("-0.577761673720659", "0.401837716790225"),
    ],
)
def test_energy_where_overlaps_pass_1e154(a, b):
    # p = 1.012 to 1.017: the bubble overlaps exceed 1e154, so their squares
    # and products overflow although each value is in range
    code, out = run_cli(["energy", "7", "--", a, b])
    assert code == 0, out
    assert json.loads(out)["two_bubble"]["dist_ratio"] == pytest.approx(1.0, abs=1e-9)


def test_search_failure_exit_code(monkeypatch):
    from cknlab import minimizer
    from cknlab.cylinder import SearchFailure

    def fail(*args, **kwargs):
        raise SearchFailure("shift refinement did not converge")

    monkeypatch.setattr(minimizer, "estimate_cbe", fail)
    code, out = run_cli(["minimize", "4", "0", "0.5"])
    assert code == 3
    assert json.loads(out) == {
        "error": "shift refinement did not converge",
        "kind": "SearchFailure",
    }


def test_sweep_keeps_rows_with_failed_tasks(tmp_path, monkeypatch, capsys):
    from cknlab import cli

    zhat_cells = cli._SWEEP_TASKS["zhat"]
    b_lo, b_step = 1.198, (1.1999 - 1.198) / 19

    def failing_zhat_cells(params, report):
        # by the row's b index: a quarter of the rows overflow and a quarter
        # divide by zero
        index = round((params.b - b_lo) / b_step)
        if index % 4 == 0:
            raise OverflowError("zhat overflows")
        if index % 4 == 1:
            raise ZeroDivisionError("zhat divides by zero")
        return zhat_cells(params, report)

    # the pool forks its workers, which inherit the patched table
    monkeypatch.setitem(cli._SWEEP_TASKS, "zhat", failing_zhat_cells)
    config = {
        "N": 4,
        "a_range": {"min": 0.2, "max": 0.2, "steps": 1},
        "b_rule": {"type": "absolute", "min": b_lo, "max": 1.1999, "steps": 20},
        "tasks": ["region", "zhat"],
        "format": "csv",
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    outputs = []
    for workers in ("1", "2"):
        monkeypatch.setenv("CKNLAB_WORKERS", workers)
        code, out = run_cli(["sweep", "--config", str(path)])
        assert code == 3
        outputs.append((out, capsys.readouterr().err))
    assert outputs[0] == outputs[1]
    out, err = outputs[0]

    failures = [json.loads(line) for line in err.splitlines()]
    kinds = {f["error"] for f in failures}
    assert kinds == {"zhat: OverflowError", "zhat: ZeroDivisionError"}
    failed_b = {f["b"] for f in failures}
    assert sorted(failed_b) == pytest.approx([b_lo + k * b_step for k in range(20) if k % 4 < 2])

    rows = list(csv.reader(io.StringIO(out)))
    header, data = rows[0], rows[1:]
    assert header == [
        "N", "a", "b", "region",
        "b_fs", "b_fs_star", "a_c_star",
        "zhat", "zhat_variational", "q_star",
    ]
    assert len(data) == 20
    assert 0 < len(failed_b) < 20
    for r in data:
        assert r[3] == "CaseII" and r[4] != ""
        empty = [cell == "" for cell in r[7:]]
        assert all(empty) if float(r[2]) in failed_b else not any(empty)

    config["format"] = "json"
    path.write_text(json.dumps(config))
    code, out = run_cli(["sweep", "--config", str(path)])
    assert code == 3
    doc = json.loads(out)
    assert {row["b"] for row in doc["rows"] if "error" in row} == failed_b
    assert len(doc["rows"]) == 20


def test_sweep_minimize_task_matches_estimate_cbe(tmp_path):
    from cknlab.minimizer import estimate_cbe

    config = {
        "N": 4,
        "a_range": {"min": 0.5, "max": 0.5, "steps": 1},
        "b_rule": {"type": "absolute", "min": 0.6, "max": 0.6, "steps": 1},
        "tasks": ["minimize"],
        "format": "json",
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    code, out = run_cli(["sweep", "--config", str(path)])
    assert code == 0
    doc = json.loads(out)
    assert doc["columns"] == ["N", "a", "b", "region", "q_best", "q_iterations", "q_start"]
    (row,) = doc["rows"]
    report = estimate_cbe(make_params(4, 0.5, 0.6))
    assert (row["q_best"], row["q_iterations"], row["q_start"]) == (
        report.value,
        report.iterations,
        report.start,
    )


NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])


@settings(max_examples=60, deadline=None)
@given(
    n_dim=st.integers(min_value=2, max_value=7),
    point=st.one_of(
        st.tuples(NON_FINITE, st.one_of(NON_FINITE, st.floats(-2.0, 2.0))),
        st.tuples(st.floats(-2.0, 2.0), NON_FINITE),
    ),
)
def test_non_finite_point_is_named(n_dim, point):
    a, b = point
    bad = "b" if math.isfinite(a) else "a"
    with pytest.raises(InvalidParameters, match=f"^{bad} must be finite$"):
        make_params(n_dim, a, b)
    code, out = run_cli(["region", str(n_dim), "--", str(a), str(b)])
    assert code == 2
    assert json.loads(out) == {"error": f"{bad} must be finite", "kind": "InvalidParameters"}


def test_closed_form_commands_do_not_load_quadrature():
    script = (
        "import contextlib, io, sys\n"
        "import cknlab\n"
        "from cknlab.cli import run_command\n"
        "def scipy_modules():\n"
        "    return sorted(name for name in sys.modules if name.startswith('scipy'))\n"
        "assert not scipy_modules(), scipy_modules()\n"
        "assert 'numpy' not in sys.modules\n"
        "closed = ('region', 'spectrum', 'gap', 'bounds', 'zhat')\n"
        "runs = [[c, '4', '0', '0.5'] for c in closed + ('energy',)]\n"
        "runs.append(['minimize', '4', '0.5', '0.6'])\n"
        "for argv in runs:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert run_command(argv) == 0, argv\n"
        "    assert not scipy_modules(), (argv, scipy_modules())\n"
        "    assert argv[0] not in closed or 'numpy' not in sys.modules, argv\n"
        "params = cknlab.make_params(4, 0.0, 0.5)\n"
        "print(cknlab.generalized_eigenvalues(params, 0, 2)[0])\n"
        "cknlab.rayleigh_gap_check(params)\n"
        "assert not scipy_modules(), scipy_modules()\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(cknlab.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120
    )
    assert result.returncode == 0, result.stderr
    # the oracle solves with numpy alone
    closed = cknlab.eigenvalue_closed(make_params(4, 0.0, 0.5), 0, 0).lam
    assert float(result.stdout) == pytest.approx(closed, rel=1e-12)
