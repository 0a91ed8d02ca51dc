import io
import json

import numpy as np
import pytest

from tdesim import fig2_curves
from tdesim.cli import MAX_GRID_STEPS, main

FIG1_PROGRAM = """\
prepare q1 @0 0.5|0>+0.8660254037844386|1>
prepare q2 @0 |0>
cnot q1 q2 @0
dilate q1 +1
cnot q1 q2 @1
output q2 @1
"""


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_fig2_csv_columns_and_crossover(capsys, tmp_path):
    out = tmp_path / "fig2.csv"
    code, _, _ = _run(capsys, "fig2", "--steps", "101", "--out", str(out))
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "beta2,D_in_paper,D_in_tracenorm,D_out"
    assert len(lines) == 102
    row = dict(zip(lines[0].split(","), lines[51].split(",")))
    assert float(row["beta2"]) == 0.5
    assert float(row["D_in_paper"]) == 1.0
    assert float(row["D_out"]) == 1.0


def test_fig2_json_flags_amplification(capsys):
    code, out, _ = _run(capsys, "fig2", "--steps", "11", "--format", "json")
    assert code == 0
    body = json.loads(out)
    assert body["amplified_tracenorm"] == []
    assert all(0.0 < b < 0.5 for b in body["amplified_paper"])
    assert len(body["points"]) == 11


def test_fig3_csv_schema(capsys):
    code, out, _ = _run(capsys, "fig3", "--steps", "5", "--pvac", "0.5",
                        "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "beta2,S_in,S_rho_d,S_out"
    assert len(lines) == 6
    for line in lines[1:]:
        _, s_in, s_d, _ = map(float, line.split(","))
        assert s_d >= s_in - 1e-9


def test_fig3_json_reports_drop_points(capsys):
    code, out, _ = _run(capsys, "fig3", "--steps", "5", "--pvac", "0.25")
    assert code == 0
    body = json.loads(out)
    assert body["p_vac"] == 0.25
    assert len(body["drop_points"]) >= 1


def test_decohere_emits_flat_matrix(capsys):
    code, out, _ = _run(capsys, "decohere")
    assert code == 0
    body = json.loads(out)
    mat = [[complex(re, im) for re, im in row] for row in
           body["rho"]["matrix"]]
    np.testing.assert_allclose(np.array(mat), np.eye(4) / 4, atol=1e-12)
    assert all(abs(p - 0.25) < 1e-12 for p in body["joint"].values())
    assert body["deviation"] <= 1e-12


def test_decohere_csv(capsys):
    code, out, _ = _run(capsys, "decohere", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "outcome,probability"
    assert len(lines) == 5
    for line in lines[1:]:
        assert abs(float(line.split(",")[1]) - 0.25) < 1e-12


def test_nosignal_passes_both_bases(capsys):
    code, out, _ = _run(capsys, "nosignal", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "basis,outcome,probability,deviation"
    bases = {line.split(",")[0] for line in lines[1:]}
    assert bases == {"computational", "diagonal"}
    for line in lines[1:]:
        assert float(line.split(",")[3]) <= 1e-12


def test_nosignal_single_basis_json(capsys):
    code, out, _ = _run(capsys, "nosignal", "--basis", "diagonal")
    assert code == 0
    body = json.loads(out)
    assert body["max_deviation"] <= 1e-12
    (report,) = body["reports"]
    assert report["basis"] == "diagonal"
    for outcome in report["outcomes"]:
        mat = [[complex(re, im) for re, im in row]
               for row in outcome["output"]["matrix"]]
        np.testing.assert_allclose(np.array(mat), np.eye(2) / 2, atol=1e-12)


def test_reverse_grid(capsys):
    code, out, _ = _run(capsys, "reverse", "--steps", "11", "--format",
                        "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "beta2,fidelity,purity"
    for line in lines[1:]:
        _, fid, pur = map(float, line.split(","))
        assert abs(fid - 1.0) <= 1e-12
        assert abs(pur - 1.0) <= 1e-12


def test_propriety_both_ensembles(capsys):
    code, out, _ = _run(capsys, "propriety")
    assert code == 0
    assert abs(json.loads(out)["trace_distance"] - 1.0) < 1e-12

    code, out, _ = _run(capsys, "propriety", "--basis", "diagonal")
    assert code == 0
    assert json.loads(out)["trace_distance"] < 1e-12


def test_sweep_csv_columns(capsys):
    code, out, _ = _run(capsys, "sweep", "--steps", "3", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "beta2,out0,out1,S_in,S_rho_s,S_rho_d,S_out"
    assert len(lines) == 4


def test_sweep_json_nests_reports(capsys):
    code, out, _ = _run(capsys, "sweep", "--beta-sq", "0.25")
    assert code == 0
    body = json.loads(out)
    report = body["points"][0]["report"]
    assert set(report) == {"input", "rho_s", "rho_d", "rho_out",
                           "entropies"}
    mat = report["rho_out"]["matrix"]
    assert abs(mat[0][0][0] - 0.625) < 1e-12
    assert abs(mat[1][1][0] - 0.375) < 1e-12


def test_circuit_subcommand_runs_file(capsys, tmp_path):
    path = tmp_path / "prog.txt"
    path.write_text(FIG1_PROGRAM)
    code, out, _ = _run(capsys, "circuit", str(path))
    assert code == 0
    body = json.loads(out)
    assert body["output_slot"] == {"site": "q2", "cycle": 1}

    code, out, _ = _run(capsys, "circuit", str(path), "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "outcome,probability"
    probs = {k: float(v) for k, v in
             (line.split(",") for line in lines[1:])}
    assert abs(probs["0"] - 0.625) < 1e-12
    assert abs(probs["1"] - 0.375) < 1e-12


def test_circuit_subcommand_reports_parse_errors(capsys, tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("prepare a @0 |0>\n")
    code, out, err = _run(capsys, "circuit", str(path))
    assert code == 1
    assert out == ""
    assert "missing output directive" in err

    code, _, err = _run(capsys, "circuit", str(tmp_path / "absent.txt"))
    assert code == 1
    assert "error:" in err


def test_circuit_subcommand_refuses_oversized_program(capsys, tmp_path):
    lines = ["prepare q1 @0 |1>", "prepare q2 @0 |0>", "cnot q1 q2 @0"]
    for c in range(1, 9):
        lines += ["dilate q1 +1", f"cnot q1 q2 @{c}"]
    path = tmp_path / "deep.txt"
    path.write_text("\n".join(lines + ["output q2 @8"]) + "\n")
    code, out, err = _run(capsys, "circuit", str(path))
    assert code == 1
    assert out == ""
    assert err.startswith("error: line 19:")
    assert "MiB limit" in err


def test_beta_sq_flag_runs_one_input(capsys):
    code, out, _ = _run(capsys, "sweep", "--beta-sq", "0.25",
                        "--format", "csv")
    assert code == 0
    assert len(out.splitlines()) == 2
    assert out.splitlines()[1].startswith("0.25,")
    assert _run(capsys, "fig2", "--beta-sq", "1.5")[0] == 1


def test_flag_validation_errors_exit_nonzero(capsys):
    assert _run(capsys, "fig2", "--steps", "1")[0] == 1
    assert _run(capsys, "fig2", "--tolerance", "0")[0] == 1
    assert _run(capsys, "fig3", "--pvac", "1.5")[0] == 1
    assert _run(capsys, "fig2", "--tau", "0")[0] == 1


def test_outputs_are_deterministic(capsys):
    _, first, _ = _run(capsys, "fig2", "--steps", "21", "--format", "csv")
    _, second, _ = _run(capsys, "fig2", "--steps", "21", "--format", "csv")
    assert first == second


def test_circuit_reads_stdin_like_a_file(capsys, tmp_path, monkeypatch):
    path = tmp_path / "prog.txt"
    path.write_text(FIG1_PROGRAM)
    for fmt in ("csv", "json"):
        from_file = _run(capsys, "circuit", str(path), "--format", fmt)
        monkeypatch.setattr("sys.stdin", io.StringIO(FIG1_PROGRAM))
        assert _run(capsys, "circuit", "-", "--format", fmt) == from_file
        assert from_file[0] == 0


def test_invalid_flag_values_exit_one(capsys):
    # each value reaches the check that owns it: the grid bound in the
    # command line, the rest in the library
    for argv, message in [
        (("fig2", "--steps", "1"), "grid steps must be between 2 and "),
        (("sweep", "--beta-sq", "1.5"), "beta^2 out of range: 1.5"),
        (("reverse", "--tau", "0"), "dilation must be at least one cycle"),
        (("fig3", "--pvac", "1.5"), "vacuum weight out of range: 1.5"),
    ]:
        code, out, err = _run(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.startswith("error: " + message)
        assert err.count("\n") == 1
    for argv in (("fig2", "--format", "xml"), ("decohere", "--tau", "1.5")):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""


def test_grid_steps_are_bounded(capsys):
    for steps in (MAX_GRID_STEPS + 1, 10**12):
        code, out, err = _run(capsys, "fig2", "--steps", str(steps))
        assert code == 1
        assert out == ""
        assert err.startswith("error: grid steps must be between 2 and ")
        assert err.count("\n") == 1
    # the bound itself passes; --beta-sq keeps the grid to one point
    code, out, _ = _run(capsys, "fig2", "--steps", str(MAX_GRID_STEPS),
                        "--beta-sq", "0.5")
    assert code == 0
    assert len(json.loads(out)["points"]) == 1


def test_unwritable_out_path_is_reported(capsys, tmp_path):
    target = tmp_path / "missing" / "x.json"
    code, out, err = _run(capsys, "decohere", "--out", str(target))
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and "x.json" in err
    assert err.count("\n") == 1
    assert not target.exists()


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-1e-12"])
def test_tolerance_must_be_finite_and_positive(capsys, value):
    # the command line and fig2_curves share one check; a NaN tolerance
    # used to skip fig2_curves' cross-check and a negative one fail it
    with pytest.raises(ValueError, match="finite and positive"):
        fig2_curves([0.5], tolerance=float(value))
    for command in ("fig2", "nosignal", "decohere", "reverse"):
        code, out, err = _run(capsys, command, f"--tolerance={value}")
        assert code == 1
        assert out == ""
        assert err.startswith("error: tolerance must be finite and positive")


@pytest.mark.parametrize("argv", [
    ("fig3", "--tolerance", "1e-9"),
    ("propriety", "--tolerance", "1e-9"),
    ("sweep", "--tolerance", "1e-9"),
    ("circuit", "--tolerance", "1e-9", "-"),
    ("circuit", "--tau", "5", "-"),
])
def test_flags_a_command_ignores_are_usage_errors(capsys, argv):
    # --tolerance only where the exit code checks it, --tau nowhere a
    # program states its own dilations; argparse refuses the rest
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: tdesim")
    assert "unrecognized arguments: " + argv[1] in err


@pytest.mark.parametrize("argv", [
    ("fig2", "--steps", "3", "--tolerance", "1e-9", "--tau", "2"),
    ("nosignal", "--tolerance", "1e-9", "--tau", "2"),
    ("decohere", "--tolerance", "1e-9", "--tau", "2"),
    ("reverse", "--steps", "3", "--tolerance", "1e-9", "--tau", "2"),
    ("fig3", "--steps", "3", "--tau", "2"),
    ("propriety", "--tau", "2"),
    ("sweep", "--beta-sq", "0.5", "--tau", "2"),
])
def test_commands_keep_the_flags_they_use(capsys, argv):
    code, out, _ = _run(capsys, *argv)
    assert code == 0
    json.loads(out)
