"""Command-line front end: scenario runs, sweeps, and CSV export.

Subcommands: permittivity, bands, fieldmap, foci, resonance, coupling-sweep,
design-window, evolve, gate.  Every run writes the requested CSVs plus a
JSON manifest (<prefix>_<command>_manifest.json) listing output files and
column schemas.  Floats are serialized with 9 significant digits and sweep
cells are collected in input order, so identical scenario + version produce
byte-identical files.  --threads is accepted for compatibility and ignored.

Exit codes: 0 success, 2 input error (scenario, material file, invalid
parameter), 3 gate fidelity below the configured threshold, 4 numerical
failure (integrator step underflow or trace drift).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import dynamics, optics, resonator
from .constants import KT_ROOM_MEV, omega_to_mev
from .errors import ScenarioError, StiffnessError, TraceDriftError
from .material import hyperbolic_bands, permittivity_at, upper_band
from .scenario import (
    RunManifest,
    Scenario,
    axis_range,
    build_coupling_matrix,
    load_scenario,
    new_manifest,
    operating_frequency,
    validate_scenario,
)


def fmt(x) -> str:
    """Fixed 9-significant-digit float formatting for reproducible CSVs."""
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


def write_csv(path: Path, columns: list[str], rows, comments: list[str] = ()) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for line in comments:
            fh.write(f"# {line}\n")
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(fmt(v) for v in row) + "\n")


def _out(sc: Scenario, name: str) -> Path:
    return Path(f"{sc.out_prefix}_{name}")


# --- subcommands -----------------------------------------------------------------

def cmd_permittivity(sc: Scenario, args, manifest: RunManifest) -> int:
    cfg = sc.raw.get("permittivity", {})
    axis = axis_range(cfg.get("omega_cm1", {"start": 600.0, "stop": 1800.0, "count": 601}),
                      "permittivity.omega_cm1")
    cols = ["omega_cm1", "re_eps_par", "im_eps_par", "re_eps_perp", "im_eps_perp"]
    rows = []
    for w in axis:
        eps = permittivity_at(sc.material, float(w))
        rows.append([w, eps.eps_parallel.real, eps.eps_parallel.imag,
                     eps.eps_perp.real, eps.eps_perp.imag])
    path = _out(sc, "permittivity.csv")
    write_csv(path, cols, rows)
    manifest.add_output(str(path), cols)
    return 0


def cmd_bands(sc: Scenario, args, manifest: RunManifest) -> int:
    cfg = sc.raw.get("band", {})
    lo = cfg.get("omega_min_cm1", 400.0)
    hi = cfg.get("omega_max_cm1", 2200.0)
    bands = hyperbolic_bands(sc.material, (lo, hi))
    cols = ["omega_low_cm1", "omega_high_cm1", "band_type", "center_mev"]
    rows = [[b.omega_low, b.omega_high, b.band_type.value, omega_to_mev(b.center)]
            for b in bands]
    path = _out(sc, "bands.csv")
    write_csv(path, cols, rows)
    manifest.add_output(str(path), cols)
    for b in bands:
        print(f"{b.band_type.value}: [{b.omega_low:.1f}, {b.omega_high:.1f}] cm^-1 "
              f"(center {omega_to_mev(b.center):.1f} meV)")
    return 0


def cmd_fieldmap(sc: Scenario, args, manifest: RunManifest) -> int:
    cfg = sc.raw.get("fieldmap", {})
    omega = float(cfg.get("omega_cm1", 1500.0))
    p = cfg.get("p_enm", [0.0, 0.0, 1.0])
    rho_axis = axis_range(cfg.get("rho_nm", {"start": 1.0, "stop": 80.0, "count": 81}),
                          "fieldmap.rho_nm")
    z_axis = axis_range(cfg.get("z_nm", {"start": 1.0, "stop": 80.0, "count": 81}),
                        "fieldmap.z_nm")
    eps = permittivity_at(sc.material, omega)
    grid = optics.FieldGrid(rho=(float(rho_axis[0]), float(rho_axis[-1]), len(rho_axis)),
                            z=(float(z_axis[0]), float(z_axis[-1]), len(z_axis)))
    src = optics.DipoleSource(moment=np.asarray(p, dtype=complex))
    intensity = optics.field_map(eps, src, grid)
    cols = ["rho_nm", "z_nm", "intensity"]
    rows = []
    for i, zz in enumerate(grid.z_axis()):
        for j, rr in enumerate(grid.rho_axis()):
            rows.append([rr, zz, intensity[i, j]])
    meta = [f"omega_cm1 = {fmt(omega)}",
            f"dipole_enm = {p}",
            f"rho_nm = {fmt(rho_axis[0])}..{fmt(rho_axis[-1])} n={len(rho_axis)}",
            f"z_nm = {fmt(z_axis[0])}..{fmt(z_axis[-1])} n={len(z_axis)}",
            "intensity = |E|^2 in (e/nm^2)^2; nan marks the lossless resonance cone"]
    path = _out(sc, "fieldmap.csv")
    write_csv(path, cols, rows, comments=meta)
    manifest.add_output(str(path), cols)
    return 0


def cmd_foci(sc: Scenario, args, manifest: RunManifest) -> int:
    cfg = sc.raw.get("foci", {})
    omega = float(cfg.get("omega_cm1", 1500.0))
    if sc.geometry is None:
        raise ScenarioError("foci needs a geometry section (R_nm)")
    eps = permittivity_at(sc.material, omega)
    fs = optics.waveguide_foci(eps, sc.geometry.R, a0=float(cfg.get("a0_nm", 0.3)),
                               m_max=int(cfg.get("m_max", 5)))
    cols = ["m", "z_nm", "width_nm"]
    rows = [[m, m * fs.delta_z, w] for m, w in enumerate(fs.widths, start=1)]
    path = _out(sc, "foci.csv")
    write_csv(path, cols, rows,
              comments=[f"omega_cm1 = {fmt(omega)}", f"R_nm = {fmt(sc.geometry.R)}",
                        f"focus_spacing_nm = {fmt(fs.delta_z)}",
                        f"a0_nm = {fmt(fs.a0)}"])
    manifest.add_output(str(path), cols)
    print(f"focus spacing {fs.delta_z:.2f} nm; first width {fs.widths[0]:.3f} nm")
    return 0


def cmd_resonance(sc: Scenario, args, manifest: RunManifest) -> int:
    cfg = sc.raw.get("map", {})
    if sc.geometry is None:
        raise ScenarioError("resonance map needs a geometry section (R_nm, h_nm)")
    w_axis = axis_range(cfg.get("omega_cm1", {"start": 1340.0, "stop": 1660.0, "count": 64}),
                        "map.omega_cm1")
    a_axis = axis_range(cfg.get("d_over_R", {"start": 2.8, "stop": 4.1, "count": 64}),
                        "map.d_over_R")
    p = float(cfg.get("p_enm", 1.0))
    m_order = int(cfg.get("m", 1))
    rm = resonator.resonance_map(
        sc.material, sc.geometry,
        omega_range=(float(w_axis[0]), float(w_axis[-1])),
        aspect_range=(float(a_axis[0]), float(a_axis[-1])),
        shape=(len(w_axis), len(a_axis)), p=p)
    cols = ["omega_cm1", "d_over_R", "log10_magnitude"]
    rows = []
    for i, w in enumerate(rm.omegas):
        for j, a in enumerate(rm.aspects):
            rows.append([w, a, rm.log10_magnitude[i, j]])
    path = _out(sc, "resonance_map.csv")
    write_csv(path, cols, rows,
              comments=[f"R_nm = {fmt(sc.geometry.R)}", f"h_nm = {fmt(sc.geometry.h)}",
                        f"p_enm = {fmt(p)}",
                        "log10_magnitude = log10 |J + i Gamma| (meV), opposite sides"])
    manifest.add_output(str(path), cols)

    loc_cols = ["omega_cm1", "d_over_R_locus"]
    loc_rows = []
    for w in rm.omegas:
        a_loc = resonator.hsr_locus_aspect(sc.material, float(w), m=m_order)
        loc_rows.append([w, a_loc if a_loc is not None else float("nan")])
    loc_path = _out(sc, "resonance_locus.csv")
    write_csv(loc_path, loc_cols, loc_rows,
              comments=[f"super-resonance locus d/R = 4m/Re sqrt(-eps_perp/eps_par), m={m_order}"])
    manifest.add_output(str(loc_path), loc_cols)
    return 0


def cmd_coupling_sweep(sc: Scenario, args, manifest: RunManifest) -> int:
    cfg = sc.raw.get("sweep", {})
    if "R_nm" not in cfg:
        raise ScenarioError("coupling-sweep needs sweep.R_nm: {start, stop, count}")
    r_axis = axis_range(cfg["R_nm"], "sweep.R_nm")
    if r_axis.size == 0:
        raise ScenarioError("sweep.R_nm is empty")
    orders = cfg.get("orders", [1, 2])
    omega, _ = operating_frequency(sc)
    if sc.geometry is None:
        raise ScenarioError("coupling-sweep needs a geometry section (h_nm, eps_spacer)")
    h = sc.geometry.h
    p = sc.qubits[0].p if sc.qubits else 1.0

    def cell(r: float, m: int) -> list:
        aspect = resonator.hsr_aspect(sc.material, omega, m)
        d = aspect * r
        geom = resonator.ResonatorGeometry(R=r, d=d, h=h, eps_spacer=sc.geometry.eps_spacer)
        forms = resonator.coupling_J12_hsr(sc.material, geom, omega, p, order=m)
        series = resonator.pair_response(sc.material, geom, omega, p, p)
        g11 = resonator.gamma_self(sc.material, geom, omega, p)
        j = forms.j_loss_length
        return [r, d, h, omega, j, g11, j / g11 if g11 > 0 else float("inf"),
                m, forms.j_bounce, series.J, j > KT_ROOM_MEV]

    rows = [cell(float(r), int(m)) for m in orders for r in r_axis]
    cols = ["R_nm", "d_nm", "h_nm", "omega_cm1", "J_meV", "Gamma_meV", "J_over_Gamma",
            "m", "J_bounce_meV", "J_series_meV", "above_kT_room"]
    path = _out(sc, "coupling_sweep.csv")
    write_csv(path, cols, rows,
              comments=[f"operating omega_cm1 = {fmt(omega)}; d tracks the order-m "
                        "super-resonance via d = 4 m R / Re sqrt(-eps_perp/eps_par)",
                        f"kT_room_meV = {fmt(KT_ROOM_MEV)}"])
    manifest.add_output(str(path), cols)
    return 0


def cmd_design_window(sc: Scenario, args, manifest: RunManifest) -> int:
    cfg = sc.raw.get("design", {})
    if sc.geometry is None:
        raise ScenarioError("design-window needs a geometry section")
    r_eg = float(cfg.get("r_eg_nm", 2.0))
    margin = float(cfg.get("margin", 10.0))
    if "omega_cm1" in cfg and cfg["omega_cm1"] is not None:
        omega = float(cfg["omega_cm1"])
    else:
        band = upper_band(sc.material)
        omega = band.center
    win = resonator.design_window(sc.material, sc.geometry, omega, r_eg, margin=margin)
    cols = ["omega_cm1", "h_nm", "h_star_nm", "h_c_nm", "ratio", "margin", "feasible"]
    rows = [[omega, sc.geometry.h, win.h_star, win.h_c, win.ratio, win.margin, win.feasible]]
    path = _out(sc, "design_window.csv")
    write_csv(path, cols, rows)
    manifest.add_output(str(path), cols)
    print(f"h*    = {win.h_star:.4g} nm")
    print(f"h_c   = {win.h_c:.4g} nm")
    print(f"ratio = {win.ratio:.4g}  (h_c / h*)")
    print(f"h     = {sc.geometry.h:g} nm -> "
          f"{'feasible' if win.feasible else 'NOT feasible'} "
          f"(needs h >= {win.margin:g} h* and h <= h_c)")
    return 0


def _write_trajectory(sc: Scenario, name: str, traj: dynamics.Trajectory,
                      manifest: RunManifest) -> None:
    n = int(np.log2(traj.states[0].shape[0]))
    labels = ["".join("e" if (idx >> j) & 1 else "g" for j in range(n))
              for idx in range(2 ** n)]
    cols = ["t_ps"] + [f"pop_{lab}" for lab in labels] + ["purity", "trace_error"]
    pops = traj.populations()
    pur = traj.purity()
    terr = traj.trace_error()
    rows = [[traj.times[k], *pops[k], pur[k], terr[k]] for k in range(len(traj.times))]
    path = _out(sc, name)
    write_csv(path, cols, rows,
              comments=["basis labels: character k is qubit k (least significant first)"])
    manifest.add_output(str(path), cols)


def cmd_evolve(sc: Scenario, args, manifest: RunManifest) -> int:
    cfg = sc.raw.get("evolve", {})
    if not sc.qubits:
        raise ScenarioError("evolve needs a qubits section")
    couplings, omega = build_coupling_matrix(sc)
    segs = []
    for k, s in enumerate(cfg.get("schedule", [])):
        theta = tuple(bool(t) for t in s.get("theta", [q.theta for q in sc.qubits]))
        dr = s.get("drive_re_mev", [0.0] * len(sc.qubits))
        di = s.get("drive_im_mev", [0.0] * len(sc.qubits))
        det = s.get("detuning_mev", [0.0] * len(sc.qubits))
        segs.append(dynamics.Segment(
            duration=float(s["duration_ps"]), theta=theta,
            drive=tuple(complex(a, b) for a, b in zip(dr, di)),
            detuning=tuple(float(x) for x in det)))
    if not segs:
        raise ScenarioError("evolve.schedule must list at least one segment")
    rho0 = dynamics.basis_state(cfg.get("initial_state", "e" + "g" * (len(sc.qubits) - 1)))
    traj = dynamics.evolve(rho0, sc.qubits, couplings, dynamics.ControlSchedule(tuple(segs)),
                           tol=float(cfg.get("tol", 1e-10)))
    _write_trajectory(sc, "trajectory.csv", traj, manifest)
    print(f"evolved {len(segs)} segment(s), {len(traj.times)} recorded steps "
          f"(J12 = {couplings.J[0, 1]:.4g} meV at omega = {omega:.1f} cm^-1)")
    return 0


def cmd_gate(sc: Scenario, args, manifest: RunManifest) -> int:
    cfg = sc.raw.get("gate", {})
    couplings, omega = build_coupling_matrix(sc)
    threshold = float(cfg.get("fidelity_threshold", 0.97))
    tol = float(cfg.get("tol", 1e-10))
    result = dynamics.iswap_gate(sc.qubits, couplings, gamma_on=True, tol=tol)

    cols = ["omega_cm1", "J12_meV", "Gamma11_meV", "Gamma22_meV", "t_gate_ps",
            "avg_fidelity", "threshold"]
    rows = [[omega, couplings.J[0, 1], couplings.Gamma[0, 0], couplings.Gamma[1, 1],
             result.gate_time, result.avg_fidelity, threshold]]
    path = _out(sc, "gate_summary.csv")
    write_csv(path, cols, rows)
    manifest.add_output(str(path), cols)

    _write_trajectory(sc, "gate_trajectory.csv", result.trajectory, manifest)

    pm_cols = ["row", "col", "re", "im"]
    pm_rows = []
    dim2 = result.process_matrix.shape[0]
    for i in range(dim2):
        for j in range(dim2):
            v = result.process_matrix[i, j]
            pm_rows.append([i, j, v.real, v.imag])
    pm_path = _out(sc, "gate_process.csv")
    write_csv(pm_path, pm_cols, pm_rows,
              comments=["column-stacking superoperator of the gate channel"])
    manifest.add_output(str(pm_path), pm_cols)

    print(f"J12 = {couplings.J[0, 1]:.6g} meV, Gamma11 = {couplings.Gamma[0, 0]:.6g} meV")
    print(f"t_gate = {result.gate_time:.6g} ps, F_avg = {result.avg_fidelity:.6f} "
          f"(threshold {threshold})")
    return 0 if result.avg_fidelity >= threshold else 3


_COMMANDS = {
    "permittivity": cmd_permittivity,
    "bands": cmd_bands,
    "fieldmap": cmd_fieldmap,
    "foci": cmd_foci,
    "resonance": cmd_resonance,
    "coupling-sweep": cmd_coupling_sweep,
    "design-window": cmd_design_window,
    "evolve": cmd_evolve,
    "gate": cmd_gate,
}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="hyperpol",
        description="Hyperbolic-resonator qubit coupling simulator")
    ap.add_argument("--config", required=True, help="scenario YAML file")
    ap.add_argument("--out-prefix", default=None, help="override output.prefix")
    ap.add_argument("--threads", type=int, default=1,
                    help="accepted and ignored (sweeps are array code); recorded in the manifest")
    ap.add_argument("--seed", type=int, default=None,
                    help="reserved for stochastic features; recorded in the manifest")
    ap.add_argument("--validate", action="store_true",
                    help="validate the scenario file and exit")
    ap.add_argument("command", nargs="?", choices=sorted(_COMMANDS),
                    help="subcommand to run")
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.validate:
            notes = validate_scenario(args.config)
            print(f"{args.config}: OK")
            for note in notes:
                print(f"  {note}")
            return 0
        if args.command is None:
            print("error: a subcommand is required (or use --validate)", file=sys.stderr)
            return 2
        sc = load_scenario(args.config, out_prefix=args.out_prefix)
        manifest = new_manifest(sc, args.command, args.seed, args.threads)
        rc = _COMMANDS[args.command](sc, args, manifest)
        mpath = _out(sc, f"{args.command.replace('-', '_')}_manifest.json")
        manifest.write(mpath)
        return rc
    except (ScenarioError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (StiffnessError, TraceDriftError) as exc:
        print(f"error: numerical failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
