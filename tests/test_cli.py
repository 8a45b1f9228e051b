import hashlib
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

from qdelta.cli import SS_REPORT_SCHEMA, main
from qdelta.scatter import DeltaPotential, ScatteringResult, sweep
from qdelta.singular import KAPPA, scan_region

HEADER = "E,beta,re_r,im_r,re_t,im_t,R,T,absD"


def _rows(res):
    """The rows of sweep columns, each with Python scalar fields."""
    return [ScatteringResult(*row) for row in zip(
        res.energy.tolist(), res.beta.tolist(), res.r.tolist(), res.t.tolist(),
        res.big_r.tolist(), res.big_t.tolist(), res.d_value.tolist(),
        res.at_singularity.tolist())]


def run_cli(*args, env_extra=None):
    env = os.environ.copy()
    env.update(env_extra or {})
    return subprocess.run([sys.executable, "-m", "qdelta", *args],
                          capture_output=True, text=True, env=env)


def test_sweep_stdout_free_particle():
    proc = run_cli("sweep", "--v1", "0", "--v2", "0", "--g2", "0",
                   "--emin", "1", "--emax", "2", "--steps", "2")
    assert proc.returncode == 0
    lines = proc.stdout.splitlines()
    assert lines[0] == HEADER
    assert len(lines) == 3
    for line in lines[1:]:
        cells = line.split(",")
        assert float(cells[6]) == 0.0 and float(cells[7]) == 1.0


def test_sweep_csv_roundtrip(tmp_path):
    out = tmp_path / "rows.csv"
    proc = run_cli("sweep", "--v1", "-0.5", "--v2", "3", "--g2", "3.75",
                   "--emin", "0.05", "--emax", "4", "--steps", "100",
                   "--out", str(out))
    assert proc.returncode == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == HEADER
    assert len(lines) == 101
    cols = sweep(DeltaPotential.from_g_squared(-0.5, 3.0, 3.75), 0.05, 4.0, 100)
    energies = []
    for line, res in zip(lines[1:], _rows(cols)):
        cells = line.split(",")
        energies.append(float(cells[0]))
        assert float(cells[0]) == res.energy
        assert float(cells[1]) == res.beta
        assert float(cells[2]) == res.r.real
        assert float(cells[3]) == res.r.imag
        assert float(cells[4]) == res.t.real
        assert float(cells[5]) == res.t.imag
        assert float(cells[6]) == res.big_r
        assert float(cells[7]) == res.big_t
        assert float(cells[8]) == abs(res.d_value)
    assert all(a < b for a, b in zip(energies, energies[1:]))


def test_sweep_lf_line_endings(tmp_path):
    out = tmp_path / "rows.csv"
    run_cli("sweep", "--v1", "0", "--v2", "0", "--g2", "0",
            "--emin", "1", "--emax", "2", "--steps", "3", "--out", str(out))
    raw = out.read_bytes()
    assert b"\r" not in raw
    assert raw.endswith(b"\n")


def test_sweep_singular_row_tokens():
    for argv, energy in (
            # grid point exactly on the singularity: E = 2 for the reference pair
            (("--v1", "-0.5", "--v2", "3", "--g2", "3.75", "--emin", "1", "--emax", "3"), 2.0),
            # Conjugate-mode junction singular at beta = v2 - v1 = 3, g^2 = -2 v1 v2
            (("--v1", "-1", "--v2", "2", "--g2", "4", "--emin", "1", "--emax", "8",
              "--model", "physical"), 4.5)):
        proc = run_cli("sweep", *argv, "--steps", "3")
        assert proc.returncode == 0
        lines = proc.stdout.splitlines()
        row = lines[2].split(",")
        assert float(row[0]) == energy
        assert row[2:6] == ["nan", "nan", "nan", "nan"]
        assert row[6] == "inf" and row[7] == "inf"
        assert row[8] == "0e0"


def test_sweep_json_format():
    proc = run_cli("sweep", "--v1", "1", "--v2", "0", "--g2", "1",
                   "--emin", "0.5", "--emax", "1.5", "--steps", "3",
                   "--format", "json")
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["model"] == "closed-form"
    assert doc["potential"]["g_squared"] == 1.0
    assert len(doc["rows"]) == 3
    first = doc["rows"][0]
    assert first["E"] == 0.5 and not first["at_singularity"]
    assert first["R"] + first["T"] == pytest.approx(1.0, abs=1e-12)


def test_sweep_physical_model_matches_closed_form_for_real_strength():
    proc = run_cli("sweep", "--v1", "1", "--v2", "0", "--V2", "1",
                   "--emin", "0.5", "--emax", "1.5", "--steps", "5",
                   "--model", "physical")
    assert proc.returncode == 0
    lines = proc.stdout.splitlines()
    cols = sweep(DeltaPotential(1.0, 0.0, 1.0, 0.0), 0.5, 1.5, 5)
    for line, res in zip(lines[1:], _rows(cols)):
        cells = line.split(",")
        assert float(cells[6]) == pytest.approx(res.big_r, rel=1e-9)
        assert float(cells[7]) == pytest.approx(res.big_t, rel=1e-9)


@pytest.mark.parametrize("argv", [
    ("sweep", "--v1=1e200", "--v2=-2e200", "--g2=1e300", "--emin=1", "--emax=2", "--steps=3"),
    ("sweep", "--v1=1e200", "--v2=-2e200", "--g2=1e300", "--emin=1", "--emax=2", "--steps=3",
     "--model=physical"),
    ("ss", "--v1=-1e160", "--v2=3e160"),
    ("plot", "--v1=1e200", "--v2=-2e200", "--g2=1e300", "--emin=1", "--emax=2", "--steps=3"),
    ("scan", "--v1-min=-1e308", "--v1-max=1e308", "--v2-min=-1", "--v2-max=1", "--n1=3", "--n2=2"),
])
def test_overflow_exits_3(argv, tmp_path):
    out = tmp_path / "out"
    proc = run_cli(*argv, f"--out={out}")
    assert proc.returncode == 3
    assert not out.exists()
    assert "numerical failure: " in proc.stderr


@pytest.mark.parametrize("axis, box", [
    ("v1", ("--v1-min=-1e308", "--v1-max=1e308", "--v2-min=-1", "--v2-max=1")),
    ("v2", ("--v1-min=-1", "--v1-max=1", "--v2-min=-1.5e308", "--v2-max=1e308")),
])
def test_scan_span_overflow_prints_only_the_failure(axis, box):
    proc = run_cli("scan", *box, "--n1=3", "--n2=2")
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert proc.stderr == (f"numerical failure: the {axis} span --{axis}-max - --{axis}-min "
                           "overflows\n")


def test_physical_overflow_prints_only_the_failure():
    proc = run_cli("sweep", "--model", "physical", "--v1=1e200", "--v2=-2e200", "--g2=1e300",
                   "--emin=1", "--emax=2", "--steps=3")
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert proc.stderr == ("numerical failure: non-finite amplitudes at E=1 "
                           "off the singularities\n")


@pytest.mark.parametrize("argv", [
    ("sweep", "--v1", "-1e-3", "--v2", "-2E-3", "--g2", "1e-6",
     "--emin", "1e-3", "--emax", "2", "--steps", "3"),
    ("ss", "--v1", "-1e-3", "--v2", "-2e-3", "--json"),
    ("scan", "--v1-min", "-1e-3", "--v1-max", "1e-3",
     "--v2-min", "-2.5e+0", "--v2-max", "-.5e-1", "--n1", "3", "--n2", "3"),
])
def test_negative_scientific_values_parse(argv):
    proc = run_cli(*argv)
    assert proc.returncode == 0, proc.stderr
    flag = argv.index("--v1") if "--v1" in argv else argv.index("--v1-min")
    equals_form = run_cli(*argv[:flag], f"{argv[flag]}={argv[flag + 1]}", *argv[flag + 2:])
    assert proc.stdout == equals_form.stdout


@pytest.mark.parametrize("argv", [
    ("sweep", "--v1", "0", "--v2", "0", "--g2", "0",
     "--emin", "2", "--emax", "1", "--steps", "10"),
    ("sweep", "--v1", "0", "--v2", "0", "--g2", "0",
     "--emin", "1", "--emax", "2", "--steps", "1"),
    ("sweep", "--v1", "0", "--v2", "0", "--g2", "1", "--V2", "1",
     "--emin", "1", "--emax", "2", "--steps", "5"),
    ("sweep", "--v1", "0", "--v2", "0", "--g2", "-1",
     "--emin", "1", "--emax", "2", "--steps", "5"),
    ("sweep", "--v1", "0", "--v2", "0",
     "--emin", "1", "--emax", "2", "--steps", "5"),
    ("sweep", "--v1", "0", "--v2", "0", "--g2", "0",
     "--emin", "1", "--emax", "2", "--steps", "5", "--bogus"),
    ("scan", "--v1-min", "-1", "--v1-max", "-0.1",
     "--v2-min", "-1", "--v2-max", "-0.1", "--n1", "1", "--n2", "5"),
    ("verify", "--trials", "0"),
    ("ss", "--v1", "nan", "--v2", "3"),
    ("sweep", "--v1", "0", "--v2", "0", "--g2", "inf",
     "--emin", "1", "--emax", "2", "--steps", "5"),
    ("nonsense",),
])
def test_invalid_arguments_exit_2(argv):
    assert run_cli(*argv).returncode == 2


def test_ss_json_reference_fields():
    proc = run_cli("ss", "--v1", "-0.5", "--v2", "3", "--json")
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    jsonschema.validate(doc, SS_REPORT_SCHEMA)
    assert doc["g2_plus"] == 3.75
    assert doc["g2_minus"] == 5.0
    assert doc["E_plus"] == 2.0
    assert doc["E_minus"] == 1.125
    assert doc["classification"] == "BothBranches"
    assert doc["oracle"]["plus"]["abs_denominator"] <= 1e-12
    assert doc["oracle"]["plus"]["double_root_multiplicity"] == 2
    assert abs(doc["oracle"]["plus"]["double_root_beta"] - 2.0) <= 1e-6


def test_ss_json_infeasible_pair():
    proc = run_cli("ss", "--v1", "1", "--v2", "3", "--json")
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    jsonschema.validate(doc, SS_REPORT_SCHEMA)
    assert not doc["branches"]["plus"]["feasible"]
    assert not doc["branches"]["minus"]["feasible"]
    assert doc["oracle"]["plus"] is None and doc["oracle"]["minus"] is None
    assert doc["classification"] == "None"


def test_ss_json_degenerate_sum():
    proc = run_cli("ss", "--v1", "-1", "--v2", "1", "--json")
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    jsonschema.validate(doc, SS_REPORT_SCHEMA)
    for name in ("plus", "minus"):
        assert doc["branches"][name]["reason"] == "DegenerateSum"
        assert doc["branches"][name]["g_squared"] is None


def test_ss_text_output():
    proc = run_cli("ss", "--v1", "-0.5", "--v2", "3")
    assert proc.returncode == 0
    assert "BothBranches" in proc.stdout
    assert "g2=3.75" in proc.stdout


def test_scan_csv(tmp_path):
    out = tmp_path / "scan.csv"
    proc = run_cli("scan", "--v1-min", "-1", "--v1-max", "-0.01",
                   "--v2-min", "-1", "--v2-max", "-0.01",
                   "--n1", "10", "--n2", "10", "--out", str(out))
    assert proc.returncode == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "v1,v2,classification,E_plus,E_minus"
    assert len(lines) == 101
    for line in lines[1:]:
        cells = line.split(",")
        assert cells[2] != "None"
        assert cells[3] != ""


def test_scan_positive_quadrant_all_none():
    proc = run_cli("scan", "--v1-min", "0.1", "--v1-max", "1",
                   "--v2-min", "0.1", "--v2-max", "1", "--n1", "5", "--n2", "5")
    assert proc.returncode == 0
    lines = proc.stdout.splitlines()[1:]
    assert len(lines) == 25
    for line in lines:
        cells = line.split(",")
        assert cells[2] == "None" and cells[3] == "" and cells[4] == ""


def _scan_csv_per_cell(scan):
    """The scan CSV rendered one cell at a time: the reference for the CLI's
    assembly from pre-formatted pieces."""
    def energies(sol):
        return [f"{e:.17g}" if ok else "" for e, ok in
                zip(sol.energy.ravel().tolist(), sol.feasible.ravel().tolist())]

    cells = zip(itertools.product(scan.v1.tolist(), scan.v2.tolist()),
                (c.value for c in scan.classification.flat),
                energies(scan.plus), energies(scan.minus))
    lines = ["v1,v2,classification,E_plus,E_minus"]
    lines += [f"{v1:.17g},{v2:.17g},{label},{e_plus},{e_minus}"
              for (v1, v2), label, e_plus, e_minus in cells]
    return "\n".join(lines) + "\n"


def _scan_argv(v1_range, v2_range, n1, n2):
    return ["scan", f"--v1-min={v1_range[0]!r}", f"--v1-max={v1_range[1]!r}",
            f"--v2-min={v2_range[0]!r}", f"--v2-max={v2_range[1]!r}", f"--n1={n1}", f"--n2={n2}"]


def run_cli_bytes(*args):
    return subprocess.run([sys.executable, "-m", "qdelta", *args], capture_output=True)


@pytest.mark.parametrize("grid, labels", [
    # DegenerateSum cells on the anti-diagonal
    (((-4.0, 4.0), (-4.0, 4.0), 41, 41), {"None", "PlusOnly", "BothBranches"}),
    # the v2 > 0 band edge v1 = kappa v2 at the cell (3 kappa, 3)
    (((3 * KAPPA - 2.0, 3 * KAPPA), (-3.0, 3.0), 21, 31), {"None", "PlusOnly", "BothBranches"}),
    # every label a scan reaches, on an n1 != n2 grid
    (((-2.0, 1.0), (-2.0, 2.0), 13, 17), {"None", "PlusOnly", "BothBranches"}),
    # a 1e-3-scale box
    (((-1e-3, 1e-3), (-2e-3, 1e-3), 9, 11), {"None", "PlusOnly"}),
])
def test_scan_csv_bytes_equal_the_per_cell_rendering(grid, labels, tmp_path):
    expected = _scan_csv_per_cell(scan_region(*grid))
    assert {line.split(",")[2] for line in expected.splitlines()[1:]} == labels
    proc = run_cli_bytes(*_scan_argv(*grid))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == expected.encode()
    out = tmp_path / "scan.csv"
    assert run_cli_bytes(*_scan_argv(*grid), f"--out={out}").stdout == b""
    assert out.read_bytes() == proc.stdout


def test_scan_full_size_output_is_pinned():
    # 62,500 cells of a box shifted off [-10, 10]^2; the digest is that of the
    # per-cell rendering that the assembly from pieces replaced.
    proc = run_cli_bytes(*_scan_argv((-9.3, 10.7), (-10.7, 9.3), 250, 250))
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(proc.stdout).hexdigest() == \
        "f81e592fb0fc1f0f7dead95a76fb778b5e895628f29402634ff1bedba38f9919"


def test_verify_deterministic_and_small(tmp_path):
    out = tmp_path / "report.txt"
    a = run_cli("verify", "--seed", "7", "--trials", "200", "--out", str(out))
    b = run_cli("verify", "--seed", "7", "--trials", "200")
    assert a.returncode == 0
    assert a.stdout == b.stdout
    assert "result: PASS" in a.stdout
    assert out.read_text(encoding="utf-8") == a.stdout


def test_verify_failure_exits_3(monkeypatch):
    from qdelta import cli as cli_mod
    monkeypatch.setattr(cli_mod.verify, "run_and_render",
                        lambda seed, trials: (False, "forced failure\n"))
    assert main(["verify", "--trials", "10"]) == 3


def test_plot_reference_branch(tmp_path):
    out = tmp_path / "curves.svg"
    proc = run_cli("plot", "--v1", "-0.5", "--v2", "3", "--branch", "plus",
                   "--out", str(out))
    assert proc.returncode == 0
    svg = out.read_text(encoding="utf-8")
    assert svg.startswith("<svg")
    assert 'class="ss-marker" data-energy="2"' in svg
    assert 'class="ss-marker" data-energy="1.125"' in svg
    assert 'class="curve-r"' in svg and 'class="curve-t"' in svg


def test_plot_free_potential_no_markers(tmp_path):
    out = tmp_path / "flat.svg"
    proc = run_cli("plot", "--v1", "0", "--v2", "0", "--g2", "0",
                   "--out", str(out))
    assert proc.returncode == 0
    svg = out.read_text(encoding="utf-8")
    assert "ss-marker" not in svg
    assert 'class="curve-t" points="' in svg


def test_plot_infeasible_pair_without_markers(tmp_path):
    out = tmp_path / "nomark.svg"
    proc = run_cli("plot", "--v1", "1", "--v2", "3", "--g2", "1",
                   "--out", str(out))
    assert proc.returncode == 0
    assert "ss-marker" not in out.read_text(encoding="utf-8")


def test_plot_infeasible_branch_rejected(tmp_path):
    proc = run_cli("plot", "--v1", "1", "--v2", "3", "--branch", "plus",
                   "--out", str(tmp_path / "x.svg"))
    assert proc.returncode == 2


def test_plot_deterministic_bytes(tmp_path):
    out_a, out_b = tmp_path / "a.svg", tmp_path / "b.svg"
    for out in (out_a, out_b):
        run_cli("plot", "--v1", "-0.5", "--v2", "3", "--branch", "minus",
                "--out", str(out))
    assert out_a.read_bytes() == out_b.read_bytes()


def test_io_failure_exit_1(tmp_path):
    proc = run_cli("sweep", "--v1", "0", "--v2", "0", "--g2", "0",
                   "--emin", "1", "--emax", "2", "--steps", "2",
                   "--out", str(tmp_path / "no" / "such" / "dir" / "x.csv"))
    assert proc.returncode == 1


def test_main_callable_in_process(capsys):
    code = main(["ss", "--v1", "-0.5", "--v2", "3", "--json"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["E_plus"] == 2.0


def test_reproduce_reference_case_script(tmp_path):
    root = Path(__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    proc = subprocess.run(
        [sys.executable, str(root / "scripts" / "reproduce_reference_case.py"),
         "--outdir", str(tmp_path), "--steps", "200"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    for branch in ("plus", "minus"):
        for ext in ("csv", "svg"):
            assert (tmp_path / f"curves_{branch}.{ext}").is_file()
    assert "v1=-0.5, v2=3" in proc.stdout
    assert proc.stdout.count("(x2)") == 2
