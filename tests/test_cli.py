import csv
import json
import re
from pathlib import Path

import numpy as np
import pytest

from dynframes.catalog import repro_catalog, run_entry
from dynframes.cli import main
from dynframes.spectral import SpectralOperator, VectorSet, save_operator, save_vectors


@pytest.fixture
def identity_files(tmp_path):
    op = tmp_path / "identity.json"
    vec = tmp_path / "onb.json"
    save_operator(SpectralOperator(np.ones(3)), op)
    save_vectors(VectorSet(np.eye(3)), vec)
    return str(op), str(vec)


@pytest.fixture
def incomplete_files(tmp_path):
    op = tmp_path / "op.json"
    vec = tmp_path / "vec.json"
    save_operator(SpectralOperator(np.array([1.0, 0.5], dtype=complex)), op)
    save_vectors(VectorSet(np.array([[1.0, 0.0]], dtype=complex)), vec)
    return str(op), str(vec)


# ---------------------------------------------------------------------------
# analyze


def test_analyze_identity(identity_files, capsys):
    op, vec = identity_files
    code = main(["analyze", "--op", op, "--vectors", vec, "--L", "1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "lower:            1" in out
    assert "classification:   frame" in out


def test_analyze_json_format(identity_files, capsys):
    op, vec = identity_files
    code = main(
        ["analyze", "--op", op, "--vectors", vec, "--L", "1", "--format", "json"]
    )
    blob = json.loads(capsys.readouterr().out)
    assert code == 0
    assert blob["classification"] == "frame"
    assert blob["lower"] == pytest.approx(1.0, abs=1e-12)
    assert blob["upper"] == pytest.approx(1.0, abs=1e-12)


def test_analyze_csv_format(identity_files, capsys):
    op, vec = identity_files
    code = main(
        ["analyze", "--op", op, "--vectors", vec, "--L", "2", "--format", "csv"]
    )
    rows = list(csv.reader(capsys.readouterr().out.splitlines()))
    assert code == 0
    assert rows[0][:3] == ["lower", "upper", "classification"]
    assert float(rows[1][0]) == pytest.approx(2.0, abs=1e-12)


def test_analyze_quadrature_matches_closed_form(identity_files, capsys):
    op, vec = identity_files
    main(["analyze", "--op", op, "--vectors", vec, "--L", "1", "--format", "json"])
    closed = json.loads(capsys.readouterr().out)
    main(
        ["analyze", "--op", op, "--vectors", vec, "--L", "1", "--format", "json",
         "--method", "quadrature", "--panels", "64"]
    )
    quad = json.loads(capsys.readouterr().out)
    assert quad["lower"] == pytest.approx(closed["lower"], abs=1e-10)
    assert quad["upper"] == pytest.approx(closed["upper"], abs=1e-10)


def test_analyze_negative_classification_exit_code(incomplete_files, capsys):
    op, vec = incomplete_files
    code = main(["analyze", "--op", op, "--vectors", vec, "--L", "1"])
    out = capsys.readouterr().out
    assert code == 2
    assert "incomplete" in out


def test_analyze_overflowed_gram_exit_code(tmp_path, capsys):
    op = tmp_path / "op.json"
    vec = tmp_path / "vec.json"
    save_operator(SpectralOperator(np.array([3.0, 0.5], dtype=complex)), op)
    save_vectors(VectorSet(np.array([[1.0, 1.0]], dtype=complex)), vec)
    code = main(["analyze", "--op", str(op), "--vectors", str(vec), "--L", "400"])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error:") and "non-finite" in err


def test_readme_file_format_examples_load(tmp_path, capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("### File formats", 1)[1]
    op_doc, vec_doc = re.findall(r"```json\n(.*?)```", section, flags=re.S)[:2]
    op = tmp_path / "op.json"
    vec = tmp_path / "gens.json"
    op.write_text(op_doc, encoding="utf-8")
    vec.write_text(vec_doc, encoding="utf-8")
    code = main(["complete", "--op", str(op), "--vectors", str(vec), "--format", "json"])
    blob = json.loads(capsys.readouterr().out)
    assert code == 0
    assert blob["complete"] is True


def test_analyze_out_file(identity_files, tmp_path, capsys):
    op, vec = identity_files
    target = tmp_path / "report.json"
    code = main(
        ["analyze", "--op", op, "--vectors", vec, "--L", "1",
         "--format", "json", "--out", str(target)]
    )
    assert code == 0
    assert capsys.readouterr().out == ""
    assert json.loads(target.read_text())["classification"] == "frame"


# ---------------------------------------------------------------------------
# input error reporting


def test_parse_error_reports_line_and_column(tmp_path, capsys):
    bad = tmp_path / "broken.json"
    bad.write_text('{"eigenvalues": [[1.0, 0.0],\n  [2.0 0.0]]}\n')
    vec = tmp_path / "vec.json"
    save_vectors(VectorSet(np.eye(2)), vec)
    code = main(["analyze", "--op", str(bad), "--vectors", str(vec), "--L", "1"])
    err = capsys.readouterr().err
    assert code == 1
    assert f"parse error in {bad}" in err
    assert "line 2" in err and "column" in err


def test_dimension_mismatch_names_both_files(tmp_path, capsys):
    op = tmp_path / "op2.json"
    vec = tmp_path / "vec3.json"
    save_operator(SpectralOperator(np.ones(2)), op)
    save_vectors(VectorSet(np.eye(3)), vec)
    code = main(["analyze", "--op", str(op), "--vectors", str(vec), "--L", "1"])
    err = capsys.readouterr().err
    assert code == 1
    assert "op2.json" in err and "vec3.json" in err
    assert "d=2" in err and "d=3" in err


def test_missing_file_is_an_error(tmp_path, identity_files, capsys):
    _, vec = identity_files
    code = main(
        ["analyze", "--op", str(tmp_path / "nope.json"), "--vectors", vec, "--L", "1"]
    )
    assert code == 1
    assert "cannot read" in capsys.readouterr().err


def test_missing_required_flag_is_an_argparse_error(identity_files):
    op, vec = identity_files
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "--op", op, "--vectors", vec])  # no --L
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# other commands


def test_complete_command(identity_files, incomplete_files, capsys):
    op, vec = identity_files
    assert main(["complete", "--op", op, "--vectors", vec]) == 0
    assert "complete: True" in capsys.readouterr().out
    op2, vec2 = incomplete_files
    assert main(["complete", "--op", op2, "--vectors", vec2,
                 "--format", "json"]) == 2
    blob = json.loads(capsys.readouterr().out)
    assert blob["complete"] is False


def test_bessel_command(identity_files, capsys):
    op, vec = identity_files
    code = main(["bessel", "--op", op, "--vectors", vec, "--format", "json"])
    blob = json.loads(capsys.readouterr().out)
    assert code == 0
    assert blob["bessel"] is True
    assert blob["range_energy"] == pytest.approx(3.0)
    assert blob["upper_constant"] == pytest.approx(1.0)


def test_carleson_command(tmp_path, capsys):
    op = tmp_path / "disk.json"
    vec = tmp_path / "gen.json"
    save_operator(SpectralOperator(np.array([0.5, 0.25], dtype=complex)), op)
    save_vectors(VectorSet(np.array([[1.0, 1.0]], dtype=complex)), vec)
    code = main(["carleson", "--op", str(op), "--vectors", str(vec),
                 "--format", "json"])
    blob = json.loads(capsys.readouterr().out)
    assert code == 0
    assert blob["verdict"] == "consistent_at_truncation"

    save_operator(SpectralOperator(np.array([0.5, 1.5], dtype=complex)), op)
    code = main(["carleson", "--op", str(op), "--vectors", str(vec)])
    out = capsys.readouterr().out
    assert code == 2
    assert "not_frameable" in out


def test_discretize_command(identity_files, capsys):
    op, vec = identity_files
    code = main(
        ["discretize", "--op", op, "--vectors", vec, "--L", "1",
         "--target-ratio", "0.9", "--format", "json"]
    )
    blob = json.loads(capsys.readouterr().out)
    assert code == 0
    assert blob["n"] == 2
    assert blob["report"]["classification"] == "frame"


def test_verify_command(identity_files, capsys):
    op, vec = identity_files
    code = main(
        ["verify", "--op", op, "--vectors", vec, "--L", "1",
         "--times", "0,0.5", "--format", "json"]
    )
    blob = json.loads(capsys.readouterr().out)
    assert code == 0
    assert blob["report"]["classification"] == "frame"
    assert 0.0 < blob["analytic_lower"] <= blob["report"]["lower"] * (1 + 1e-9)


def test_lscan_command(identity_files, capsys):
    op, vec = identity_files
    code = main(["lscan", "--op", op, "--vectors", vec, "--Ls", "0.5,1,2"])
    out = capsys.readouterr().out
    assert code == 0
    assert "errors: none" in out
    assert "invertible self-adjoint regime: True" in out
    assert out.count("frame") == 3


def test_lscan_csv(identity_files, capsys):
    op, vec = identity_files
    main(["lscan", "--op", op, "--vectors", vec, "--Ls", "1,2", "--format", "csv"])
    rows = list(csv.reader(capsys.readouterr().out.splitlines()))
    assert rows[0] == ["L", "lower", "upper", "condition_number"]
    assert len(rows) == 3
    assert float(rows[1][1]) == pytest.approx(1.0, abs=1e-12)


def test_reconstruct_command(identity_files, capsys):
    op, vec = identity_files
    code = main(
        ["reconstruct", "--op", op, "--vectors", vec, "--L", "1",
         "--times", "8", "--format", "json"]
    )
    blob = json.loads(capsys.readouterr().out)
    assert code == 0
    assert blob["samples"] == 24
    assert blob["relative_error"] <= 1e-8


def test_reconstruct_command_with_noise(identity_files, capsys):
    op, vec = identity_files
    code = main(
        ["reconstruct", "--op", op, "--vectors", vec, "--L", "1",
         "--times", "8", "--noise", "1e-4", "--format", "json", "--seed", "7"]
    )
    blob = json.loads(capsys.readouterr().out)
    assert code == 0
    assert 1e-8 < blob["relative_error"] < 1e-2


def test_reconstruct_single_sensor_exit_code(tmp_path, capsys):
    from dynframes.reconstruct import heat_cycle_operator

    op = tmp_path / "heat.json"
    vec = tmp_path / "sensor.json"
    save_operator(heat_cycle_operator(4, 1.0), op)
    save_vectors(VectorSet(np.eye(4, dtype=complex)[[0]]), vec)
    code = main(["reconstruct", "--op", str(op), "--vectors", str(vec),
                 "--L", "1", "--times", "8"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("negative:")


def test_tolerance_env_var_changes_classification(incomplete_files, tmp_path,
                                                  monkeypatch, capsys):
    op = tmp_path / "gap.json"
    vec = tmp_path / "gen.json"
    save_operator(SpectralOperator(np.array([1.0, 0.99], dtype=complex)), op)
    save_vectors(VectorSet(np.array([[1.0, 1.0]], dtype=complex)), vec)
    args = ["analyze", "--op", str(op), "--vectors", str(vec), "--L", "1"]
    assert main(args) == 0
    assert "frame" in capsys.readouterr().out
    monkeypatch.setenv("DYNSAMP_TOL", "1e-2")
    assert main(args) == 2
    assert "incomplete" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# repro command and catalog


def test_repro_list(capsys):
    code = main(["repro", "--list"])
    out = capsys.readouterr().out
    assert code == 0
    for entry in repro_catalog():
        assert entry.name in out


def test_repro_unknown_name(capsys):
    code = main(["repro", "example-nope"])
    assert code == 1
    assert "example-nope" in capsys.readouterr().err


def test_repro_single_entry(capsys):
    code = main(["repro", "example-frlrbd", "--d", "8"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("[PASS] example-frlrbd")


def test_catalog_names_are_stable():
    names = [e.name for e in repro_catalog()]
    assert names == [
        "example-frlrbd",
        "example-4.4",
        "example-5.2",
        "example-5.3",
        "example-5.4",
        "example-5.5",
    ]


def test_all_catalog_entries_pass():
    for entry in repro_catalog():
        ok, lines = run_entry(entry.name, d=64, L=None)
        assert ok, f"{entry.name} failed:\n" + "\n".join(lines)
        assert lines


def test_run_entry_unknown_raises_key_error():
    with pytest.raises(KeyError):
        run_entry("missing", d=8, L=None)
