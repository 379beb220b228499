import base64
import csv
import itertools
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dynframes
from dynframes.catalog import repro_catalog, run_entry
from dynframes.cli import main
from dynframes.spectral import SpectralOperator, VectorSet, save_operator, save_vectors

README = Path(__file__).resolve().parents[1] / "README.md"

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


@pytest.mark.parametrize("command", [["bessel", "--L", "400"], ["lscan", "--Ls", "1,400"]])
def test_overflow_is_a_domain_error_in_bessel_and_lscan(tmp_path, capsys, command):
    op = tmp_path / "op.json"
    vec = tmp_path / "vec.json"
    save_operator(SpectralOperator(np.array([3.0, 0.5], dtype=complex)), op)
    save_vectors(VectorSet(np.array([[1.0, 1.0]], dtype=complex)), vec)
    code = main([command[0], "--op", str(op), "--vectors", str(vec), *command[1:]])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error:") and "non-finite" in err


@pytest.mark.parametrize("fmt", ["table", "json", "csv"])
def test_complete_reports_overflowed_eigen_coordinates(tmp_path, capsys, fmt):
    # finite generators whose eigen-coordinates overflow are an error, not a
    # rank 0 for the group the overflow hit
    op = tmp_path / "op.json"
    vec = tmp_path / "vec.json"
    H = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    save_operator(SpectralOperator(np.array([0.5, 0.7]), H), op)
    save_vectors(VectorSet(np.array([[1.7e308, 1.7e308]])), vec)
    code = main(["complete", "--op", str(op), "--vectors", str(vec), "--format", fmt])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == "error: eigen-coordinates have non-finite entries (overflow)\n"


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
    section = README.read_text(encoding="utf-8").split("### File formats", 1)[1]
    op_doc, vec_doc = re.findall(r"```json\n(.*?)```", section, flags=re.S)[:2]
    op = tmp_path / "op.json"
    vec = tmp_path / "gens.json"
    op.write_text(op_doc, encoding="utf-8")
    vec.write_text(vec_doc, encoding="utf-8")
    code = main(["complete", "--op", str(op), "--vectors", str(vec), "--format", "json"])
    blob = json.loads(capsys.readouterr().out)
    assert code == 0
    assert blob["complete"] is True


def _payload(values, dtype="<c16"):
    return base64.b64encode(np.asarray(values, dtype=dtype).tobytes()).decode("ascii")


# README's operator and generators in the object form
OBJECT_OP = {"eigenvalues": {"dtype": "<c16", "shape": [2], "base64": _payload([1.0, 0.5])},
             "eigenbasis": None}
OBJECT_VECTORS = {"vectors": {"dtype": "<c16", "shape": [2, 2], "base64": _payload(np.eye(2))}}
README_BYTES = np.array([1.0, 0.5], dtype=complex).tobytes()


@pytest.mark.parametrize("command", [["analyze", "--L", "1"], ["complete"]])
@pytest.mark.parametrize("fmt", ["table", "json", "csv"])
def test_object_form_files_print_the_pair_files_numbers(tmp_path, capsys, command, fmt):
    # README's pair examples, then its object-form operator
    section = README.read_text(encoding="utf-8").split("### File formats", 1)[1]
    op_pairs, vec_pairs, op_object = re.findall(r"```json\n(.*?)```", section, flags=re.S)[:3]
    assert json.loads(op_object) == OBJECT_OP
    printed = []
    for op_doc, vec_doc in ((op_pairs, vec_pairs), (op_object, json.dumps(OBJECT_VECTORS))):
        (tmp_path / "op.json").write_text(op_doc, encoding="utf-8")
        (tmp_path / "gens.json").write_text(vec_doc, encoding="utf-8")
        code = main([*command, "--op", str(tmp_path / "op.json"),
                     "--vectors", str(tmp_path / "gens.json"), "--format", fmt])
        printed.append((code, capsys.readouterr()))
    assert printed[0][0] == 0
    assert printed[1] == printed[0]


@pytest.mark.parametrize("kind, field, patch, top", [
    pytest.param("op", "eigenvalues", {"dtype": "<c8"}, {}, id="dtype <c8"),
    pytest.param("op", "eigenvalues", {"dtype": ">c16"}, {}, id="dtype >c16"),
    pytest.param("op", "eigenvalues", {"dtype": "<f8", "base64": _payload([1.0, 0.5], "<f8")},
                 {}, id="real eigenvalues"),
    pytest.param("vectors", "vectors", {"dtype": "<f8", "base64": _payload(np.eye(2), "<f8")},
                 {}, id="real vectors"),
    pytest.param("op", "eigenbasis", {"dtype": "<f8", "shape": [1, 4],
                                      "base64": _payload(np.eye(2), "<f8")}, {},
                 id="basis shape disagrees"),
    pytest.param("vectors", "vectors", {"shape": [1, 4]}, {"dimension": 2},
                 id="dimension disagrees with shape"),
    pytest.param("op", "eigenvalues", {"shape": 2}, {}, id="shape not a list"),
    pytest.param("vectors", "vectors", {"shape": [2, True]}, {}, id="shape holds a bool"),
    pytest.param("op", "eigenvalues", {"shape": [2.0]}, {}, id="shape holds a float"),
    pytest.param("op", "eigenvalues", {"base64": base64.b64encode(README_BYTES[:-1]).decode()},
                 {}, id="payload one byte short"),
    pytest.param("op", "eigenvalues", {"base64": base64.b64encode(README_BYTES + b"\0").decode()},
                 {}, id="payload one byte long"),
    pytest.param("op", "eigenvalues", {"base64": "*" + _payload([1.0, 0.5])[1:]}, {},
                 id="non-base64 character"),
    pytest.param("op", "eigenvalues", {"base64": _payload([np.nan, 0.5])}, {}, id="NaN payload"),
    pytest.param("vectors", "vectors", {"base64": _payload([[np.inf, 0.0], [0.0, 1.0]])}, {},
                 id="inf payload"),
    pytest.param("op", "eigenbasis", {"dtype": "<f8", "shape": [2, 2],
                                      "base64": _payload([[1.0, np.nan], [0.0, 1.0]], "<f8")},
                 {}, id="NaN basis"),
])
def test_malformed_object_form_is_an_input_error(tmp_path, capsys, kind, field, patch, top):
    docs = {"op": dict(OBJECT_OP), "vectors": dict(OBJECT_VECTORS)}
    docs[kind].update({field: {**(docs[kind][field] or {}), **patch}, **top})
    for name, doc in docs.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(doc), encoding="utf-8")
    code = main(["complete", "--op", str(tmp_path / "op.json"),
                 "--vectors", str(tmp_path / "vectors.json")])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith(f"error: invalid {kind} file {tmp_path / kind}.json: ")


@pytest.mark.parametrize("eigenvalues", [
    pytest.param(None, id="readme-operator"),
    pytest.param([[0.5, 0.0], [0.25, 0.25]], id="inside-unit-disk"),
])
def test_infinite_window_is_an_input_error(tmp_path, capsys, eigenvalues):
    # on README's operator the window integral of eigenvalue 1 diverges; inside
    # the unit disk the improper integral converges but is still no window
    section = README.read_text(encoding="utf-8").split("### File formats", 1)[1]
    op_doc, vec_doc = re.findall(r"```json\n(.*?)```", section, flags=re.S)[:2]
    if eigenvalues is not None:
        op_doc = json.dumps({**json.loads(op_doc), "eigenvalues": eigenvalues})
    op = tmp_path / "op.json"
    vec = tmp_path / "gens.json"
    op.write_text(op_doc, encoding="utf-8")
    vec.write_text(vec_doc, encoding="utf-8")
    code = main(["analyze", "--op", str(op), "--vectors", str(vec), "--L", "inf"])
    assert code == 1
    assert capsys.readouterr().err == "error: interval length must be positive and finite\n"


_GOOD_OP = {"eigenvalues": [[1.0, 0.0], [0.5, 0.0]]}
_GOOD_VECTORS = {"vectors": [[[1.0, 0.0], [1.0, 0.0]]]}


@pytest.mark.parametrize("kind, doc", [
    pytest.param("op", {"eigenvalues": [[1.0, None], [0.5, 0.0]]}, id="null-eigenvalue"),
    pytest.param("op", {**_GOOD_OP, "eigenbasis": [[[1.0, None], [0.0, 0.0]],
                                                   [[0.0, 0.0], [1.0, 0.0]]]},
                 id="null-in-basis"),
    pytest.param("op", {**_GOOD_OP, "eigenbasis": [5, [[0.0, 0.0], [1.0, 0.0]]]},
                 id="number-as-basis-column"),
    pytest.param("op", {**_GOOD_OP, "dimension": None}, id="null-dimension"),
    pytest.param("op", {"eigenvalues": 5}, id="number-as-eigenvalues"),
    pytest.param("op", {**_GOOD_OP, "tolerance": [1]}, id="list-as-tolerance"),
    # float() reads these as 1.0 and 0.6, which would merge the eigenvalues
    # 1 and 0.5, so `complete` would report rank 1/2 and exit 2
    pytest.param("op", {**_GOOD_OP, "tolerance": True}, id="bool-as-tolerance"),
    pytest.param("op", {**_GOOD_OP, "tolerance": "0.6"}, id="string-as-tolerance"),
    pytest.param("op", {"eigenvalues": [[10**400, 0.0], [0.5, 0.0]]}, id="integer-beyond-double"),
    pytest.param("vectors", {"vectors": [5]}, id="number-as-vector"),
    # a stated dimension must be a JSON integer, in either array form of either file
    *[pytest.param(kind, {**doc, "dimension": bad}, id=f"{form}-{kind}-dimension-{name}")
      for kind, form, doc in (("op", "pair", _GOOD_OP), ("op", "object", OBJECT_OP),
                              ("vectors", "pair", _GOOD_VECTORS),
                              ("vectors", "object", OBJECT_VECTORS))
      for bad, name in ((True, "true"), (2.0, "2.0"), (None, "null"), ("2", "string"))
      if (kind, form, name) != ("op", "pair", "null")],  # that is null-dimension
])
def test_malformed_documents_are_input_errors(tmp_path, capsys, kind, doc):
    docs = {"op": _GOOD_OP, "vectors": _GOOD_VECTORS, kind: doc}
    paths = {}
    for name, content in docs.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(content), encoding="utf-8")
    code = main(["complete", "--op", str(paths["op"]), "--vectors", str(paths["vectors"])])
    assert code == 1
    assert capsys.readouterr().err.startswith(f"error: invalid {kind} file {paths[kind]}: ")


def test_readme_quick_start_runs(capsys):
    section = README.read_text(encoding="utf-8").split("## Quick start (library)", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, flags=re.S).group(1)
    exec(compile(code, "README.md quick start", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3
    assert lines[0].endswith(" frame") and lines[1].endswith(" frame")


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


@pytest.mark.parametrize("command", [
    ["analyze", "--L", "-1"],
    ["complete"],
    ["bessel", "--L", "-1"],
    ["carleson"],
    ["discretize", "--L", "1", "--max-points", "1"],
    ["verify", "--L", "1", "--times", ""],
    ["lscan", "--Ls", ""],
    ["reconstruct", "--L", "1", "--noise", "-1"],
])
def test_every_file_command_loads_its_inputs_before_it_checks_its_arguments(
        tmp_path, identity_files, monkeypatch, capsys, command):
    # each command's own argument is one it rejects, so only the order of
    # the checks decides which error is printed
    op, vec = identity_files
    missing = tmp_path / "nope.json"
    assert main([command[0], "--op", str(missing), "--vectors", vec, *command[1:]]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot read {missing}: ")
    monkeypatch.setenv("DYNSAMP_TOL", "inf")
    assert main([command[0], "--op", op, "--vectors", vec, *command[1:]]) == 1
    assert capsys.readouterr().err == (
        "error: invalid DYNSAMP_TOL: DYNSAMP_TOL must be positive and finite, got inf\n")


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
    assert blob["delta_used"] == 0.5
    assert blob["max_gap"] == 0.5
    assert blob["iterations"] == 1
    assert blob["report"]["classification"] == "frame"


@pytest.mark.parametrize("points", ["1", "0", "-4"])
def test_discretize_rejects_max_points_below_two(identity_files, capsys, points):
    op, vec = identity_files
    code = main(["discretize", "--op", op, "--vectors", vec, "--L", "1",
                 "--max-points", points])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == f"error: --max-points must be at least 2, got {points}\n"


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
    code = main(["lscan", "--op", op, "--vectors", vec, "--Ls", "1,2", "--format", "json"])
    blob = json.loads(capsys.readouterr().out)
    assert code == 0
    assert blob["L"] == [1.0, 2.0]
    assert blob["lower"] == pytest.approx([1.0, 2.0], abs=1e-12)
    assert blob["classification"] == ["frame", "frame"]
    assert blob["invertible_self_adjoint"] is True


@pytest.mark.parametrize("command, message", [
    (["verify", "--L", "1", "--times", ""], "verify needs --times as a comma-separated list"),
    (["lscan", "--Ls", ""], "lscan needs --Ls as a comma-separated list"),
    # a non-finite time is named as such, not blamed on the ordering
    (["verify", "--L", "1", "--times", "0,nan"], "time grid times must be finite"),
    (["verify", "--L", "1", "--times", "0,inf"], "time grid times must be finite"),
])
def test_empty_time_and_length_lists_are_input_errors(identity_files, capsys, command, message):
    op, vec = identity_files
    code = main([*command, "--op", op, "--vectors", vec])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("command", [
    ["analyze", "--method", "quadrature"],
    ["reconstruct"],
])
def test_infinite_window_is_an_input_error_on_every_route(identity_files, capsys, command):
    # quadrature nodes and uniform sample times would multiply by inf first
    op, vec = identity_files
    code = main([*command, "--op", op, "--vectors", vec, "--L", "inf"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == "error: interval length must be positive and finite\n"


def test_lscan_csv(identity_files, capsys):
    op, vec = identity_files
    main(["lscan", "--op", op, "--vectors", vec, "--Ls", "1,2", "--format", "csv"])
    rows = list(csv.reader(capsys.readouterr().out.splitlines()))
    assert rows[0] == ["L", "lower", "upper", "condition_number"]
    assert len(rows) == 3
    assert float(rows[1][0]) == 1.0
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


@pytest.mark.parametrize("noise", ["-1", "nan", "inf", "-inf"])
def test_reconstruct_rejects_negative_or_non_finite_noise(identity_files, capsys, noise):
    op, vec = identity_files
    code = main(["reconstruct", "--op", op, "--vectors", vec, "--L", "1",
                 "--times", "8", f"--noise={noise}"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("error: --noise must be a finite nonnegative number")


def test_reconstruct_with_huge_noise_prints_a_finite_error(tmp_path, capsys):
    # on README's files: the error is about 1e160, and the sum of its squares
    # overflows; before, it printed inf after numpy's overflow warning
    section = README.read_text(encoding="utf-8").split("### File formats", 1)[1]
    op_doc, vec_doc = re.findall(r"```json\n(.*?)```", section, flags=re.S)[:2]
    op, vec = tmp_path / "op.json", tmp_path / "gens.json"
    op.write_text(op_doc, encoding="utf-8")
    vec.write_text(vec_doc, encoding="utf-8")
    code = main(["reconstruct", "--op", str(op), "--vectors", str(vec), "--L", "1",
                 "--noise", "1e160", "--format", "json"])
    captured = capsys.readouterr()
    assert code == 0 and captured.err == ""
    assert 1e158 < json.loads(captured.out)["relative_error"] < 1e162


def test_seed_belongs_to_reconstruct_only(identity_files, capsys):
    op, vec = identity_files
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "--op", op, "--vectors", vec, "--L", "1", "--seed", "5"])
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["complete"], ["carleson"], ["lscan", "--Ls", "1,2"]])
def test_window_length_belongs_to_commands_that_read_it(identity_files, capsys, command):
    op, vec = identity_files
    with pytest.raises(SystemExit) as exc:
        main([command[0], "--op", op, "--vectors", vec, *command[1:], "--L", "5"])
    assert exc.value.code == 2
    assert "--L" in capsys.readouterr().err


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


def test_bad_tolerance_variable_is_blamed_on_the_environment(tmp_path, monkeypatch, capsys):
    # README's operator file states no tolerance, so loading it reads the
    # variable; the error names the variable, not the file
    section = README.read_text(encoding="utf-8").split("### File formats", 1)[1]
    op_doc, vec_doc = re.findall(r"```json\n(.*?)```", section, flags=re.S)[:2]
    op = tmp_path / "op.json"
    vec = tmp_path / "gens.json"
    op.write_text(op_doc, encoding="utf-8")
    vec.write_text(vec_doc, encoding="utf-8")
    monkeypatch.setenv("DYNSAMP_TOL", "inf")
    assert main(["complete", "--op", str(op), "--vectors", str(vec)]) == 1
    assert capsys.readouterr().err == (
        "error: invalid DYNSAMP_TOL: DYNSAMP_TOL must be positive and finite, got inf\n")


@pytest.mark.parametrize("command", [["complete"], ["analyze", "--L", "1"]])
def test_infinite_tolerance_is_an_input_error(tmp_path, monkeypatch, capsys, command):
    rng = np.random.default_rng(43)
    op = tmp_path / "op.json"
    vec = tmp_path / "gens.json"
    # the file states its tolerance, so only the rank cutoff reads the variable
    save_operator(SpectralOperator(rng.normal(size=4), np.linalg.qr(rng.normal(size=(4, 4)))[0]), op)
    save_vectors(VectorSet(rng.normal(size=(4, 4))), vec)
    args = [command[0], "--op", str(op), "--vectors", str(vec), *command[1:]]
    assert main(args) == 0
    capsys.readouterr()
    monkeypatch.setenv("DYNSAMP_TOL", "inf")
    assert main(args) == 1
    assert capsys.readouterr().err == (
        "error: invalid DYNSAMP_TOL: DYNSAMP_TOL must be positive and finite, got inf\n")
    # a file's infinite, zero or negative tolerance is an invalid file
    monkeypatch.delenv("DYNSAMP_TOL")
    text = op.read_text(encoding="utf-8")
    assert '"tolerance": 1e-10' in text
    for bad in ("1e999", "0", "-3"):
        op.write_text(text.replace('"tolerance": 1e-10', f'"tolerance": {bad}'), encoding="utf-8")
        assert main(args) == 1
        assert capsys.readouterr().err.startswith(f"error: invalid op file {op}: tolerance must be")


# ---------------------------------------------------------------------------
# repro command and catalog


def test_repro_list(capsys):
    code = main(["repro", "--list"])
    out = capsys.readouterr().out
    assert code == 0
    for entry in repro_catalog():
        assert entry.name in out


def test_module_runs_the_command_line():
    # python -m dynframes is the console script without an install, and
    # python -m dynframes.cli the same front end, not a silent exit 0
    env = {**os.environ, "PYTHONPATH": str(Path(dynframes.__file__).resolve().parents[1])}
    for module in ("dynframes", "dynframes.cli"):
        run = subprocess.run(
            [sys.executable, "-m", module, "repro", "--list", "--format", "json"],
            capture_output=True, text=True, env=env, timeout=120)
        assert run.returncode == 0, run.stderr
        assert run.stderr == ""
        names = [e["name"] for e in json.loads(run.stdout)["entries"]]
        assert names == [entry.name for entry in repro_catalog()]


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
    # 8, 16 and 32 are also the entries' own reference sizes, which a growth
    # table lists once
    for d, entry in itertools.product((2, 8, 16, 32, 64), repro_catalog()):
        ok, lines = run_entry(entry.name, d=d, L=None)
        assert ok, f"{entry.name} at d={d} failed:\n" + "\n".join(lines)
        assert lines


@pytest.mark.parametrize("args", [["example-5.3"], ["example-5.4"], ["--all"]])
@pytest.mark.parametrize("d", ["1", "0", "-3"])
def test_repro_rejects_truncation_below_two(capsys, args, d):
    code = main(["repro", *args, "--d", d])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == f"error: catalog entries need d >= 2, got d={d}\n"


def test_every_catalog_entry_passes_at_the_smallest_truncation():
    for entry in repro_catalog():
        ok, lines = run_entry(entry.name, d=2)
        assert ok, f"{entry.name} failed:\n" + "\n".join(lines)
        with pytest.raises(ValueError, match="need d >= 2"):
            run_entry(entry.name, d=1)


def test_run_entry_unknown_raises_key_error():
    with pytest.raises(KeyError):
        run_entry("missing", d=8, L=None)
