import io
import json

import pytest

from curvewind.cli import main


@pytest.fixture()
def circle_file(tmp_path):
    path = tmp_path / "circle.json"
    assert main(["fixture", "circle", "-o", str(path)]) == 0
    return str(path)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_fixture_roundtrips(capsys):
    code, out = run(capsys, ["fixture", "blob"])
    assert code == 0
    doc = json.loads(out)
    assert {p["type"] for p in doc["pieces"]} == {"cubic"}


def test_validate_ok(circle_file, capsys):
    code, out = run(capsys, ["validate", circle_file, "--format", "json"])
    assert code == 0
    rep = json.loads(out)
    assert rep["ok"] is True
    assert rep["pieces"] == 1
    assert rep["min_gap"] > rep["j1_threshold"]
    eps, dlt = zip(*rep["inverse_modulus"])
    assert list(eps) == sorted(eps) and all(d > 0 for d in dlt)


def test_validate_self_intersection_fails(tmp_path, capsys):
    path = tmp_path / "eight.json"
    assert main(["fixture", "figure-eight", "-o", str(path)]) == 0
    code, out = run(capsys, ["validate", str(path), "--format", "json"])
    assert code == 2
    rep = json.loads(out)
    assert rep["ok"] is False and rep["error"] == "J1Failure"


def test_winding_text(circle_file, capsys):
    code, out = run(capsys, ["winding", circle_file, "--point", "0", "0"])
    assert code == 0
    assert "winding: 1" in out


def test_classify_csv(circle_file, capsys):
    code, out = run(
        capsys,
        ["classify", circle_file, "--point", "0", "0", "--point", "2", "0"],
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "x,y,verdict,winding"
    assert lines[1].endswith("inside,1")
    assert lines[2].endswith("outside,0")


def test_classify_grid_row_major(circle_file, capsys):
    code, out = run(
        capsys,
        [
            "classify", circle_file,
            "--grid", "3", "3",
            "--bounds", "-2", "-2", "2", "2",
            "--format", "json",
        ],
    )
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 9
    # y slowest, ascending; x fastest
    assert [r["y"] for r in rows[:3]] == [-2.0, -2.0, -2.0]
    assert [r["x"] for r in rows[:3]] == [-2.0, 0.0, 2.0]
    verdicts = [r["verdict"] for r in rows]
    assert verdicts[4] == "inside"
    assert verdicts.count("outside") == 8


def test_classify_needs_points(circle_file, capsys):
    assert main(["classify", circle_file]) == 2


def test_classify_takes_points_or_a_grid_not_both(circle_file, capsys):
    point, grid = ["--point", "0", "0"], ["--grid", "2", "2"]
    for argv in (point + grid, grid + point):
        with pytest.raises(SystemExit) as exc:
            main(["classify", circle_file, *argv])
        assert exc.value.code == 2
        assert "not allowed with argument" in capsys.readouterr().err


def test_classify_refuses_bounds_without_a_grid(circle_file, capsys):
    code = main(["classify", circle_file, "--point", "0", "0", "--bounds", "5", "5", "6", "6"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: --bounds applies only to --grid\n"


def test_render_has_no_format_option(circle_file, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["render", circle_file, "--format", "json"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --format json" in capsys.readouterr().err


@pytest.mark.parametrize("band", ["nan", "-1", "-0.5", "inf"])
def test_classify_rejects_a_nan_or_negative_band(circle_file, capsys, band):
    with pytest.raises(SystemExit) as exc:
        main(["classify", circle_file, "--point", "0", "0", "--eps-band", band])
    assert exc.value.code == 2
    assert "expected a finite non-negative number" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["classify", "{c}", "--point", "nan", "0"], "a finite number"),
        (["classify", "{c}", "--point", "0", "inf"], "a finite number"),
        (["classify", "{c}", "--grid", "3", "3", "--bounds", "0", "0", "nan", "1"],
         "a finite number"),
        (["winding", "{c}", "--point", "inf", "0"], "a finite number"),
        (["validate", "{c}", "--resolution", "nan"], "a finite positive number"),
        (["validate", "{c}", "--resolution", "0"], "a finite positive number"),
        (["join", "{c}", "--start", "nan", "0", "--end", "0.1", "0",
          "--clearance", "0.01", "--cell", "0.1"], "a finite number"),
        (["join", "{c}", "--start", "0", "0", "--end", "0.1", "inf",
          "--clearance", "0.01", "--cell", "0.1"], "a finite number"),
        (["join", "{c}", "--start", "0", "0", "--end", "0.1", "0",
          "--clearance", "-1", "--cell", "0.1"], "a finite non-negative number"),
        (["join", "{c}", "--start", "0", "0", "--end", "0.1", "0",
          "--clearance", "nan", "--cell", "0.1"], "a finite non-negative number"),
        (["join", "{c}", "--start", "0", "0", "--end", "0.1", "0",
          "--clearance", "0.01", "--cell", "nan"], "a finite positive number"),
        (["join", "{c}", "--start", "0", "0", "--end", "0.1", "0",
          "--clearance", "0.01", "--cell", "-0.1"], "a finite positive number"),
    ],
)
def test_bad_numbers_are_usage_errors(circle_file, capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main([a.format(c=circle_file) for a in argv])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


def test_join_roundtrip(circle_file, capsys):
    code, out = run(
        capsys,
        [
            "join", circle_file,
            "--start", "-2", "0", "--end", "2", "0",
            "--clearance", "0.05", "--cell", "0.05",
            "--format", "json",
        ],
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["joined"] is True
    assert rep["gap"] >= 0.05
    assert rep["vertices"][0] == [-2.0, 0.0]
    assert rep["vertices"][-1] == [2.0, 0.0]


def test_join_blocked_reports_not_joined(circle_file, capsys):
    code, out = run(
        capsys,
        [
            "join", circle_file,
            "--start", "0", "0", "--end", "2", "0",
            "--clearance", "0.05", "--cell", "0.05",
            "--format", "json",
        ],
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["joined"] is False and rep["cell"] == 0.05


def test_render_svg(circle_file, capsys, tmp_path):
    out_path = tmp_path / "pic.svg"
    code = main(["render", circle_file, "-o", str(out_path), "--shade", "32"])
    assert code == 0
    doc = out_path.read_text()
    assert doc.startswith("<svg") and doc.rstrip().endswith("</svg>")
    assert "<path" in doc and "rect" in doc


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"pieces": [{"type": "nope"}]}')
    assert main(["validate", str(bad)]) == 3
    assert "pieces[0]" in capsys.readouterr().err


def test_stdin_input(capsys, monkeypatch):
    code, text = run(capsys, ["fixture", "circle"])
    assert code == 0
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    code, out = run(capsys, ["winding", "-", "--point", "0.2", "0.3"])
    assert code == 0
    assert "winding: 1" in out


def test_deterministic_output(circle_file, capsys):
    argv = [
        "classify", circle_file,
        "--grid", "7", "5",
        "--bounds", "-1.5", "-1.5", "1.5", "1.5",
    ]
    _, first = run(capsys, argv)
    _, second = run(capsys, argv)
    assert first == second


@pytest.mark.parametrize(
    "argv",
    [
        ["validate", "{}", "--resolution", "1e-9"],
        ["join", "{}", "--start", "0", "0", "--end", "0.5", "0",
         "--clearance", "0", "--cell", "1e-6"],
        ["render", "{}", "--shade", "1000000"],
        ["classify", "{}", "--grid", "5000", "5000"],
    ],
    ids=["samples", "clearance-grid", "region-grid", "classify-grid"],
)
def test_out_of_range_numbers_exit_2(circle_file, capsys, argv):
    # each size check fires before anything is sampled or allocated
    code = main([a.replace("{}", circle_file) for a in argv])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and "more than" in err
    assert "Traceback" not in err
