import json
import re
from pathlib import Path

import numpy as np
import pytest
import yaml

from hyperpol import dynamics, integrate
from hyperpol.cli import main, write_csv
from hyperpol.errors import ScenarioError, StiffnessError, TraceDriftError
from hyperpol.material import default_hbn, upper_band
from hyperpol.scenario import (
    RunManifest,
    _Loader,
    build_coupling_matrix,
    load_scenario,
    validate_scenario,
)

SHIPPED = Path(__file__).resolve().parents[1] / "scripts" / "hbn_scenario.yaml"

BASE = """
material: {{file: hbn, loss_scale: 1.0}}
geometry: {{R_nm: 100.0, d_nm: 316.2, h_nm: 5.0}}
qubits:
  - {{omega_eg_mev: 186.0, p_enm: 1.0}}
  - {{omega_eg_mev: 186.0, p_enm: 1.0}}
couplings: {{m: 1, omega_cm1: 1500.0, gamma_mode: ratio, gamma_over_j: 0.01}}
gate: {{fidelity_threshold: {threshold}, tol: 1.0e-10}}
permittivity:
  omega_cm1: {{start: {w0}, stop: {w1}, count: {wn}}}
sweep:
  R_nm: {{start: 30.0, stop: 150.0, count: 7}}
  orders: [1, 2]
evolve:
  initial_state: eg
  tol: 1.0e-10
  schedule:
    - {{duration_ps: 0.05, theta: [true, true]}}
output: {{prefix: {prefix}}}
"""


def write_scenario(tmp_path, name="scn.yaml", threshold=0.97, w0=1300.0, w1=1700.0,
                   wn=41, prefix=None, extra=""):
    prefix = prefix or str(tmp_path / "out" / "run")
    text = BASE.format(threshold=threshold, w0=w0, w1=w1, wn=wn, prefix=prefix)
    path = tmp_path / name
    path.write_text(text + extra)
    return path, Path(prefix)


def read_csv(path):
    rows = []
    with open(path) as fh:
        for line in fh:
            if line.startswith("#"):
                continue
            rows.append(line.rstrip("\n").split(","))
    header, data = rows[0], rows[1:]
    return header, data


def test_validate_ok(tmp_path, capsys):
    path, _ = write_scenario(tmp_path)
    assert main(["--config", str(path), "--validate"]) == 0
    assert "OK" in capsys.readouterr().out


def test_validate_rejects_bad_yaml(tmp_path, capsys):
    path = tmp_path / "bad.yaml"
    path.write_text("material: {file: nope.txt}\n")
    assert main(["--config", str(path), "--validate"]) == 2
    assert "error" in capsys.readouterr().err


def test_missing_config_is_error(tmp_path, capsys):
    assert main(["--config", str(tmp_path / "absent.yaml"), "bands"]) == 2


def test_permittivity_csv_hbn(tmp_path):
    path, prefix = write_scenario(tmp_path)
    assert main(["--config", str(path), "permittivity"]) == 0
    header, data = read_csv(f"{prefix}_permittivity.csv")
    assert header == ["omega_cm1", "re_eps_par", "im_eps_par", "re_eps_perp", "im_eps_perp"]
    w = np.array([float(r[0]) for r in data])
    re_perp = np.array([float(r[3]) for r in data])
    inside = (w > 1395.0) & (w < 1595.0)
    outside = (w < 1340.0) | (w > 1645.0)
    assert np.all(re_perp[inside] < 0)
    assert np.all(re_perp[outside] > 0)


def test_permittivity_single_row(tmp_path):
    path, prefix = write_scenario(tmp_path, wn=1)
    assert main(["--config", str(path), "permittivity"]) == 0
    _, data = read_csv(f"{prefix}_permittivity.csv")
    assert len(data) == 1


def test_permittivity_vacuum_constant(tmp_path):
    mat = tmp_path / "vac.txt"
    mat.write_text("[parallel]\neps_inf = 1.0\n[perp]\neps_inf = 1.0\n")
    scn = tmp_path / "v.yaml"
    prefix = tmp_path / "out" / "v"
    scn.write_text(f"""
material: {{file: {mat.name}}}
permittivity:
  omega_cm1: {{start: 500.0, stop: 1500.0, count: 11}}
output: {{prefix: {prefix}}}
""")
    assert main(["--config", str(scn), "permittivity"]) == 0
    _, data = read_csv(f"{prefix}_permittivity.csv")
    cols = np.array([[float(v) for v in row[1:]] for row in data])
    assert np.all(cols == cols[0])


def test_bands_csv(tmp_path):
    path, prefix = write_scenario(tmp_path)
    assert main(["--config", str(path), "bands"]) == 0
    header, data = read_csv(f"{prefix}_bands.csv")
    assert [r[2] for r in data] == ["type_i", "type_ii"]


def test_gate_exit_codes_and_summary(tmp_path):
    path, prefix = write_scenario(tmp_path)
    assert main(["--config", str(path), "gate"]) == 0
    header, data = read_csv(f"{prefix}_gate_summary.csv")
    row = dict(zip(header, data[0]))
    assert float(row["avg_fidelity"]) >= 0.97
    assert float(row["Gamma11_meV"]) == pytest.approx(0.01 * float(row["J12_meV"]), rel=1e-9)
    # trajectory + process matrix files exist
    assert Path(f"{prefix}_gate_trajectory.csv").exists()
    assert Path(f"{prefix}_gate_process.csv").exists()


def test_gate_shipped_scenario_reference(tmp_path):
    scenario = Path(__file__).resolve().parents[1] / "scripts" / "hbn_scenario.yaml"
    prefix = tmp_path / "hbn"
    assert main(["--config", str(scenario), "--out-prefix", str(prefix), "gate"]) == 0
    header, data = read_csv(f"{prefix}_gate_summary.csv")
    row = dict(zip(header, data[0]))
    assert f"{float(row['avg_fidelity']):.6f}" == "0.975354"
    assert f"{float(row['J12_meV']):.1f}" == "42.3"


def test_gate_impossible_threshold(tmp_path):
    path, _ = write_scenario(tmp_path, threshold=1.01)
    assert main(["--config", str(path), "gate"]) == 3


def test_gate_gamma_off_is_unit_fidelity(tmp_path):
    path, prefix = write_scenario(
        tmp_path, extra="", threshold=0.999)
    text = path.read_text().replace("gamma_mode: ratio", "gamma_mode: off")
    path.write_text(text)
    assert main(["--config", str(path), "gate"]) == 0
    header, data = read_csv(f"{prefix}_gate_summary.csv")
    row = dict(zip(header, data[0]))
    assert float(row["avg_fidelity"]) == pytest.approx(1.0, abs=1e-7)


def test_coupling_sweep_columns_and_monotonicity(tmp_path):
    path, prefix = write_scenario(tmp_path)
    assert main(["--config", str(path), "coupling-sweep"]) == 0
    header, data = read_csv(f"{prefix}_coupling_sweep.csv")
    assert header[:7] == ["R_nm", "d_nm", "h_nm", "omega_cm1", "J_meV", "Gamma_meV",
                          "J_over_Gamma"]
    ms = {r[header.index("m")] for r in data}
    assert ms == {"1", "2"}
    # J decreasing with R for each order (loss-dominated beyond the knee)
    for m in ("1", "2"):
        rows = [r for r in data if r[header.index("m")] == m]
        j = [float(r[header.index("J_meV")]) for r in rows]
        assert all(a > b for a, b in zip(j, j[1:]))
    kt = [r[header.index("above_kT_room")] for r in data]
    assert set(kt) <= {"true", "false"}


def test_coupling_sweep_empty_range_rejected(tmp_path):
    path, _ = write_scenario(tmp_path)
    text = path.read_text().replace("count: 7", "count: 0")
    path.write_text(text)
    assert main(["--config", str(path), "coupling-sweep"]) == 2


def test_determinism_across_thread_counts(tmp_path):
    path, prefix = write_scenario(tmp_path)
    assert main(["--config", str(path), "--out-prefix", str(tmp_path / "a"),
                 "coupling-sweep"]) == 0
    assert main(["--config", str(path), "--out-prefix", str(tmp_path / "b"),
                 "--threads", "4", "coupling-sweep"]) == 0
    a = Path(f"{tmp_path}/a_coupling_sweep.csv").read_bytes()
    b = Path(f"{tmp_path}/b_coupling_sweep.csv").read_bytes()
    assert a == b


def test_manifest_roundtrip_and_digest(tmp_path):
    path, prefix = write_scenario(tmp_path)
    assert main(["--config", str(path), "--seed", "42", "bands"]) == 0
    mpath = Path(f"{prefix}_bands_manifest.json")
    m = RunManifest.read(mpath)
    assert m.tool == "hyperpol"
    assert m.seed == 42
    assert m.command == "bands"
    assert any(o["path"].endswith("bands.csv") for o in m.outputs)
    # digest depends only on inputs
    sc = load_scenario(path)
    from hyperpol.scenario import input_digest
    assert m.input_digest == input_digest(sc)


def test_design_window_lossless_feasible(tmp_path):
    mat = tmp_path / "ll.txt"
    mat.write_text("""
[parallel]
eps_inf = 2.95
oscillator = 780.0 830.0 0.0
[perp]
eps_inf = 4.90
oscillator = 1370.0 1610.0 0.0
""")
    scn = tmp_path / "ll.yaml"
    prefix = tmp_path / "out" / "ll"
    scn.write_text(f"""
material: {{file: {mat.name}}}
geometry: {{R_nm: 100.0, d_nm: 50.0, h_nm: 5.0}}
design: {{r_eg_nm: 2.0, omega_cm1: 1500.0}}
output: {{prefix: {prefix}}}
""")
    assert main(["--config", str(scn), "design-window"]) == 0
    header, data = read_csv(f"{prefix}_design_window.csv")
    row = dict(zip(header, data[0]))
    assert float(row["h_star_nm"]) == 0.0
    assert row["feasible"] == "true"


def test_design_window_h_above_hc(tmp_path):
    path, prefix = write_scenario(
        tmp_path, extra="design: {r_eg_nm: 0.01, omega_cm1: 1500.0}\n")
    assert main(["--config", str(path), "design-window"]) == 0
    header, data = read_csv(f"{prefix}_design_window.csv")
    row = dict(zip(header, data[0]))
    assert float(row["h_c_nm"]) < 5.0
    assert row["feasible"] == "false"


@pytest.mark.parametrize("literal, value", [("1.0e6", 1.0e6), ("1e-3", 1.0e-3),
                                            ("1.0e+6", 1.0e6)])
def test_exponent_floats_load(tmp_path, literal, value):
    path, _ = write_scenario(tmp_path)
    path.write_text(path.read_text().replace(
        "p_enm: 1.0}", f"p_enm: 1.0, gamma_background_mev: {literal}}}", 1))
    assert load_scenario(path).qubits[0].gamma_background == value


def test_non_number_names_dotted_path(tmp_path):
    path, _ = write_scenario(tmp_path)
    path.write_text(path.read_text().replace(
        "p_enm: 1.0}", "p_enm: 1.0, gamma_background_mev: abc}", 1))
    with pytest.raises(ScenarioError,
                       match=r"qubits\[0\]: gamma_background_mev must be a number, got 'abc'"):
        load_scenario(path)


def test_evolve_trajectory_csv(tmp_path):
    path, prefix = write_scenario(tmp_path)
    assert main(["--config", str(path), "evolve"]) == 0
    header, data = read_csv(f"{prefix}_trajectory.csv")
    assert header == ["t_ps", "pop_gg", "pop_eg", "pop_ge", "pop_ee", "purity",
                      "trace_error"]
    assert float(data[0][2]) == pytest.approx(1.0)  # starts in |eg>
    terr = [float(r[-1]) for r in data]
    assert max(terr) < 1e-10


def test_foci_and_fieldmap_outputs(tmp_path):
    path, prefix = write_scenario(tmp_path, extra="""
foci: {omega_cm1: 1500.0, a0_nm: 0.3, m_max: 4}
fieldmap:
  omega_cm1: 1500.0
  rho_nm: {start: 2.0, stop: 40.0, count: 20}
  z_nm: {start: 2.0, stop: 40.0, count: 20}
""")
    assert main(["--config", str(path), "foci"]) == 0
    header, data = read_csv(f"{prefix}_foci.csv")
    assert header == ["m", "z_nm", "width_nm"]
    assert len(data) == 4
    assert main(["--config", str(path), "fieldmap"]) == 0
    header, data = read_csv(f"{prefix}_fieldmap.csv")
    assert header == ["rho_nm", "z_nm", "intensity"]
    assert len(data) == 400
    # sidecar metadata block present
    first = Path(f"{prefix}_fieldmap.csv").read_text().splitlines()[0]
    assert first.startswith("#")


def test_resonance_map_outputs(tmp_path):
    path, prefix = write_scenario(tmp_path, extra="""
map:
  omega_cm1: {start: 1480.0, stop: 1520.0, count: 5}
  d_over_R: {start: 2.9, stop: 3.9, count: 24}
""")
    assert main(["--config", str(path), "resonance"]) == 0
    header, data = read_csv(f"{prefix}_resonance_map.csv")
    assert header == ["omega_cm1", "d_over_R", "log10_magnitude"]
    assert len(data) == 5 * 24
    header, data = read_csv(f"{prefix}_resonance_locus.csv")
    assert header == ["omega_cm1", "d_over_R_locus"]
    # in-band rows carry a locus value
    assert all(r[1] != "nan" for r in data)


def test_resonance_map_degenerate_grid(tmp_path):
    path, prefix = write_scenario(tmp_path, extra="""
map:
  omega_cm1: {start: 1500.0, stop: 1500.0, count: 1}
  d_over_R: {start: 3.2, stop: 3.2, count: 1}
""")
    assert main(["--config", str(path), "resonance"]) == 0
    _, data = read_csv(f"{prefix}_resonance_map.csv")
    assert len(data) == 1
    assert np.isfinite(float(data[0][2]))


def test_scenario_validation_notes(tmp_path):
    path, _ = write_scenario(tmp_path)
    notes = validate_scenario(path)
    assert any("qubits: 2" in n for n in notes)


def test_fieldmap_singular_medium_is_input_error(tmp_path, capsys):
    # a lossless parallel oscillator with omega_LO = 1500 cm^-1 gives eps_par = 0 there
    mat = tmp_path / "zero.txt"
    mat.write_text("[parallel]\neps_inf = 2.95\noscillator = 1370.0 1500.0 0.0\n"
                   "[perp]\neps_inf = 4.9\n")
    scn = tmp_path / "z.yaml"
    prefix = tmp_path / "out" / "z"
    scn.write_text(f"""
material: {{file: {mat.name}}}
fieldmap:
  omega_cm1: 1500.0
  rho_nm: {{start: 1.0, stop: 3.0, count: 3}}
  z_nm: {{start: 1.0, stop: 3.0, count: 3}}
output: {{prefix: {prefix}}}
""")
    assert main(["--config", str(scn), "fieldmap"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "eps_parallel = 0" in err
    assert not Path(f"{prefix}_fieldmap.csv").exists()


@pytest.mark.parametrize("error", [StiffnessError, TraceDriftError])
def test_numerical_failure_exit_code(tmp_path, capsys, monkeypatch, error):
    def failing_integrate(*args, **kwargs):
        raise error("step size underflow at t = 0.01 ps")

    monkeypatch.setattr(dynamics, "integrate", failing_integrate)
    path, _ = write_scenario(tmp_path)
    for command in ("gate", "evolve"):
        assert main(["--config", str(path), command]) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "step size underflow" in err


def test_step_budget_exit_code(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(integrate, "MAX_STEPS", 10)
    path, _ = write_scenario(tmp_path)
    assert main(["--config", str(path), "evolve"]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "step budget" in err


# --- the column writer ---------------------------------------------------------------

def reference_fmt(x) -> str:
    """Per-value formatting of the earlier row-by-row writer."""
    if isinstance(x, str):
        return x
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    x = float(x)
    if np.isnan(x):
        return "nan"
    return f"{x:.9g}"


def reference_csv(table: dict, comments=()) -> str:
    lines = [f"# {c}" for c in comments] + [",".join(table)]
    lines += [",".join(reference_fmt(v) for v in row) for row in zip(*table.values())]
    return "".join(line + "\n" for line in lines)


@pytest.mark.parametrize("rows", [7, 0])
def test_write_csv_matches_row_formatting(tmp_path, rows):
    table = {
        "float": [np.nan, np.inf, -np.inf, -0.0, 1e-300, 123456789012.0, 0.1 + 0.2],
        "np_float": np.array([1.0, -2.5e-7, np.nan, 3.0, -np.inf, 6.02214076e23, 5e-324]),
        "py_int": [0, -1, 7, 123456789012, 2**62, -(2**40), 3],
        "np_int": np.array([0, -1, 7, 123456789012, 2**62, -(2**40), 3], dtype=np.int64),
        "bool": [True, False, np.bool_(True), np.bool_(False), True, False, True],
        "np_bool": np.array([1.0, 0.0, 2.0, -1.0, 0.0, 1.0, 0.5]) > 0.5,
        "str": ["type_i", "type_ii", "a b", "", "nan", "x", "y"],
    }
    table = {k: v[:rows] for k, v in table.items()}
    manifest = RunManifest("hyperpol", "0", "test", "", "", None, 1)
    path = tmp_path / "sub" / "t.csv"
    write_csv(path, table, manifest, comments=["first", "second = 2"])
    assert path.read_text(encoding="utf-8") == reference_csv(table, ["first", "second = 2"])
    assert manifest.outputs == [{"path": str(path), "columns": list(table)}]


# --- row order of the grid files ------------------------------------------------------

def test_fieldmap_rows_rho_fastest(tmp_path):
    from hyperpol import optics
    from hyperpol.material import permittivity_at

    path, prefix = write_scenario(tmp_path, extra="""
fieldmap:
  omega_cm1: 1500.0
  rho_nm: {start: 2.0, stop: 30.0, count: 5}
  z_nm: {start: 3.0, stop: 40.0, count: 3}
""")
    assert main(["--config", str(path), "fieldmap"]) == 0
    _, data = read_csv(f"{prefix}_fieldmap.csv")
    rho, z = np.linspace(2.0, 30.0, 5), np.linspace(3.0, 40.0, 3)
    grid = optics.FieldGrid(rho=(2.0, 30.0, 5), z=(3.0, 40.0, 3))
    intensity = optics.field_map(permittivity_at(load_scenario(path).material, 1500.0),
                                 optics.DipoleSource(moment=np.array([0, 0, 1], complex)), grid)
    assert len(data) == 15
    for k, row in enumerate(data):
        i, j = divmod(k, 5)
        assert row[:2] == [f"{rho[j]:.9g}", f"{z[i]:.9g}"]
        assert float(row[2]) == pytest.approx(intensity[i, j], rel=1e-8)


def test_resonance_map_rows_aspect_fastest(tmp_path):
    from hyperpol.resonator import resonance_map

    path, prefix = write_scenario(tmp_path, extra="""
map:
  omega_cm1: {start: 1480.0, stop: 1520.0, count: 4}
  d_over_R: {start: 2.9, stop: 3.9, count: 3}
""")
    assert main(["--config", str(path), "resonance"]) == 0
    _, data = read_csv(f"{prefix}_resonance_map.csv")
    sc = load_scenario(path)
    rm = resonance_map(sc.material, sc.geometry, (1480.0, 1520.0), (2.9, 3.9), shape=(4, 3))
    assert len(data) == 12
    for k, row in enumerate(data):
        i, j = divmod(k, 3)
        assert row[:2] == [f"{rm.omegas[i]:.9g}", f"{rm.aspects[j]:.9g}"]
        assert float(row[2]) == pytest.approx(rm.log10_magnitude[i, j], rel=1e-8)


def test_gate_process_rows_match_process_matrix(tmp_path):
    path, prefix = write_scenario(tmp_path)
    assert main(["--config", str(path), "gate"]) == 0
    header, data = read_csv(f"{prefix}_gate_process.csv")
    sc = load_scenario(path)
    couplings, _ = build_coupling_matrix(sc)
    pm = dynamics.iswap_gate(sc.qubits, couplings, gamma_on=True, tol=1e-10).process_matrix
    d2 = pm.shape[0]
    assert header == ["row", "col", "re", "im"]
    assert len(data) == d2 * d2
    for k, row in enumerate(data):
        i, j = divmod(k, d2)
        assert row[:2] == [str(i), str(j)]
        assert complex(float(row[2]), float(row[3])) == pytest.approx(pm[i, j], abs=1e-9)


def test_manifest_columns_match_headers(tmp_path):
    commands = ["permittivity", "bands", "fieldmap", "foci", "resonance", "coupling-sweep",
                "design-window", "evolve", "gate"]
    prefix = tmp_path / "hbn"
    written = 0
    for command in commands:
        assert main(["--config", str(SHIPPED), "--out-prefix", str(prefix), command]) == 0
        manifest = RunManifest.read(Path(f"{prefix}_{command.replace('-', '_')}_manifest.json"))
        assert manifest.outputs
        for out in manifest.outputs:
            header, _ = read_csv(out["path"])
            assert out["columns"] == header
            written += 1
    assert written == 12


# --- input errors name their key --------------------------------------------------------

@pytest.mark.parametrize("command, edit, key", [
    ("foci", "foci: {m_max: 0}", "foci: m_max must be a positive integer"),
    ("evolve", None, "evolve.schedule[0]: missing required number 'duration_ps'"),
    ("bands", "band: {omega_min_cm1: abc}", "band: omega_min_cm1 must be a number"),
    ("resonance", "map: {m: 0}", "map: m must be a positive integer"),
])
def test_bad_section_value_is_input_error(tmp_path, capsys, command, edit, key):
    path, prefix = write_scenario(tmp_path, extra=f"{edit}\n" if edit else "")
    if edit is None:
        path.write_text(path.read_text().replace("{duration_ps: 0.05, theta:", "{theta:"))
    assert main(["--config", str(path), command]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert key in err
    assert not list(prefix.parent.glob("*.csv"))


@pytest.mark.parametrize("command, section, key", [
    ("fieldmap", "fieldmap", "omega_cm1"),
    ("foci", "foci", "omega_cm1"),
    ("foci", "foci", "a0_nm"),
    ("resonance", "map", "p_enm"),
    ("design-window", "design", "r_eg_nm"),
    ("design-window", "design", "margin"),
    ("design-window", "design", "omega_cm1"),
    ("gate", "gate", "fidelity_threshold"),
    ("gate", "gate", "tol"),
    ("evolve", "evolve", "tol"),
])
def test_non_number_subcommand_value_is_input_error(tmp_path, capsys, command, section, key):
    path, prefix = write_scenario(tmp_path)
    cfg = yaml.safe_load(path.read_text())
    cfg.setdefault(section, {})[key] = "abc"
    path.write_text(yaml.safe_dump(cfg))
    assert main(["--config", str(path), command]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"{section}: {key} must be a number, got 'abc'" in err
    assert not list(prefix.parent.glob("*.csv"))


def test_design_omega_null_is_band_centre(tmp_path):
    path, prefix = write_scenario(tmp_path, extra="design: {omega_cm1: null}\n")
    assert main(["--config", str(path), "design-window"]) == 0
    header, data = read_csv(f"{prefix}_design_window.csv")
    assert dict(zip(header, data[0]))["omega_cm1"] == f"{upper_band(default_hbn()).center:.9g}"


# --- the scenario parser -----------------------------------------------------------------

class PurePythonLoader(yaml.SafeLoader):
    """The scenario loader's float resolver on PyYAML's pure-Python parser."""


PurePythonLoader.add_implicit_resolver(
    "tag:yaml.org,2002:float",
    re.compile(r"^[-+]?(?:[0-9][0-9_]*(?:\.[0-9_]*)?|\.[0-9_]+)[eE][-+]?[0-9]+$"),
    list("-+0123456789."))


def test_scenario_parser_is_c_when_libyaml_is_built():
    assert issubclass(_Loader, yaml.CSafeLoader) or not yaml.__with_libyaml__


@pytest.mark.parametrize("text", [
    SHIPPED.read_text(encoding="utf-8"),
    "a: 1.0e6\nb: 1e-3\nc: .5e3\nd: null\ne: off\nf: [1.0e+6, -2E4, 7]\n",
])
def test_scenario_parser_matches_pure_python(text):
    parsed = yaml.load(text, Loader=_Loader)
    assert parsed == yaml.load(text, Loader=PurePythonLoader)
    if "a" in parsed:
        assert parsed == {"a": 1.0e6, "b": 1e-3, "c": 500.0, "d": None, "e": False,
                          "f": [1.0e6, -2.0e4, 7]}


def test_malformed_yaml_is_one_line_input_error(tmp_path, capsys):
    path = tmp_path / "broken.yaml"
    path.write_text("material: {file: hbn\ngeometry: [R_nm: 1\n")
    assert main(["--config", str(path), "bands"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "YAML parse error" in err
    assert err.count("\n") == 1
