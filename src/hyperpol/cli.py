"""Command-line front end: scenario runs, sweeps, and CSV export.

Subcommands: permittivity, bands, fieldmap, foci, resonance, coupling-sweep,
design-window, evolve, gate.  Every run writes the requested CSVs plus a
JSON manifest (<prefix>_<command>_manifest.json) listing output files and
column schemas.  Tables are written column by column from arrays: floats
with 9 significant digits, ints and strings as they are, bools as true/false.
Grid rows run with the last axis fastest: rho within z in fieldmap.csv, d/R
within omega in resonance_map.csv, col within row in gate_process.csv.
Sweep cells are collected in input order, so identical scenario + version
produce byte-identical files.  --threads is accepted and ignored.

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
    _count,
    _num,
    axis_range,
    build_coupling_matrix,
    load_scenario,
    new_manifest,
    operating_frequency,
    validate_scenario,
)


_FORMATS = {"b": lambda v: "true" if v else "false", "f": "{:.9g}".format}  # else str


def _column(values) -> list[str]:
    a = np.asarray(values)
    return list(map(_FORMATS.get(a.dtype.kind, str), a.tolist()))


def write_csv(path: Path, table: dict, manifest: RunManifest, comments=()) -> None:
    """Write {column: 1-D values} as a CSV and list it in the manifest."""
    lines = [f"# {line}" for line in comments] + [",".join(table)]
    lines += map(",".join, zip(*map(_column, table.values())))
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    manifest.add_output(str(path), list(table))


def _out(sc: Scenario, name: str) -> Path:
    return Path(f"{sc.out_prefix}_{name}")


# --- subcommands -----------------------------------------------------------------

def cmd_permittivity(sc: Scenario, args, manifest: RunManifest) -> int:
    cfg = sc.raw.get("permittivity", {})
    axis = axis_range(cfg.get("omega_cm1", {"start": 600.0, "stop": 1800.0, "count": 601}),
                      "permittivity.omega_cm1")
    eps = permittivity_at(sc.material, axis)
    write_csv(_out(sc, "permittivity.csv"),
              {"omega_cm1": axis,
               "re_eps_par": eps.eps_parallel.real, "im_eps_par": eps.eps_parallel.imag,
               "re_eps_perp": eps.eps_perp.real, "im_eps_perp": eps.eps_perp.imag}, manifest)
    return 0


def cmd_bands(sc: Scenario, args, manifest: RunManifest) -> int:
    cfg = sc.raw.get("band", {})
    lo = _num(cfg, "omega_min_cm1", "band", default=400.0)
    hi = _num(cfg, "omega_max_cm1", "band", default=2200.0)
    bands = hyperbolic_bands(sc.material, (lo, hi))
    write_csv(_out(sc, "bands.csv"),
              {"omega_low_cm1": [b.omega_low for b in bands],
               "omega_high_cm1": [b.omega_high for b in bands],
               "band_type": [b.band_type.value for b in bands],
               "center_mev": [omega_to_mev(b.center) for b in bands]}, manifest)
    for b in bands:
        print(f"{b.band_type.value}: [{b.omega_low:.1f}, {b.omega_high:.1f}] cm^-1 "
              f"(center {omega_to_mev(b.center):.1f} meV)")
    return 0


def cmd_fieldmap(sc: Scenario, args, manifest: RunManifest) -> int:
    cfg = sc.raw.get("fieldmap", {})
    omega = _num(cfg, "omega_cm1", "fieldmap", default=1500.0)
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
    z, rho = np.meshgrid(grid.z_axis(), grid.rho_axis(), indexing="ij")
    meta = [f"omega_cm1 = {omega:.9g}",
            f"dipole_enm = {p}",
            f"rho_nm = {rho_axis[0]:.9g}..{rho_axis[-1]:.9g} n={len(rho_axis)}",
            f"z_nm = {z_axis[0]:.9g}..{z_axis[-1]:.9g} n={len(z_axis)}",
            "intensity = |E|^2 in (e/nm^2)^2; nan marks the lossless resonance cone"]
    write_csv(_out(sc, "fieldmap.csv"),
              {"rho_nm": rho.ravel(), "z_nm": z.ravel(), "intensity": intensity.ravel()},
              manifest, comments=meta)
    return 0


def cmd_foci(sc: Scenario, args, manifest: RunManifest) -> int:
    cfg = sc.raw.get("foci", {})
    omega = _num(cfg, "omega_cm1", "foci", default=1500.0)
    if sc.geometry is None:
        raise ScenarioError("foci needs a geometry section (R_nm)")
    eps = permittivity_at(sc.material, omega)
    fs = optics.waveguide_foci(eps, sc.geometry.R, a0=_num(cfg, "a0_nm", "foci", default=0.3),
                               m_max=_count(cfg, "m_max", "foci", 5))
    m = np.arange(1, len(fs.widths) + 1)
    write_csv(_out(sc, "foci.csv"), {"m": m, "z_nm": m * fs.delta_z, "width_nm": fs.widths},
              manifest,
              comments=[f"omega_cm1 = {omega:.9g}", f"R_nm = {sc.geometry.R:.9g}",
                        f"focus_spacing_nm = {fs.delta_z:.9g}", f"a0_nm = {fs.a0:.9g}"])
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
    p = _num(cfg, "p_enm", "map", default=1.0)
    m_order = _count(cfg, "m", "map", 1)
    rm = resonator.resonance_map(
        sc.material, sc.geometry,
        omega_range=(float(w_axis[0]), float(w_axis[-1])),
        aspect_range=(float(a_axis[0]), float(a_axis[-1])),
        shape=(len(w_axis), len(a_axis)), p=p)
    w, a = np.meshgrid(rm.omegas, rm.aspects, indexing="ij")
    write_csv(_out(sc, "resonance_map.csv"),
              {"omega_cm1": w.ravel(), "d_over_R": a.ravel(),
               "log10_magnitude": rm.log10_magnitude.ravel()}, manifest,
              comments=[f"R_nm = {sc.geometry.R:.9g}", f"h_nm = {sc.geometry.h:.9g}",
                        f"p_enm = {p:.9g}",
                        "log10_magnitude = log10 |J + i Gamma| (meV), opposite sides"])
    write_csv(_out(sc, "resonance_locus.csv"),
              {"omega_cm1": rm.omegas,
               "d_over_R_locus": resonator.hsr_locus_aspect(sc.material, rm.omegas, m=m_order)},
              manifest,
              comments=[f"super-resonance locus d/R = 4m/Re sqrt(-eps_perp/eps_par), m={m_order}"])
    return 0


def cmd_coupling_sweep(sc: Scenario, args, manifest: RunManifest) -> int:
    cfg = sc.raw.get("sweep", {})
    if "R_nm" not in cfg:
        raise ScenarioError("coupling-sweep needs sweep.R_nm: {start, stop, count}")
    r_axis = axis_range(cfg["R_nm"], "sweep.R_nm")
    if r_axis.size == 0:
        raise ScenarioError("sweep.R_nm is empty")
    orders = [int(m) for m in cfg.get("orders", [1, 2])]
    omega, _ = operating_frequency(sc)
    if sc.geometry is None:
        raise ScenarioError("coupling-sweep needs a geometry section (h_nm, eps_spacer)")
    h = sc.geometry.h
    p = sc.qubits[0].p if sc.qubits else 1.0
    # d/R of the order-m super-resonance depends on m alone: one hsr_aspect per order
    aspects = [resonator.hsr_aspect(sc.material, omega, k) for k in orders]
    m = np.repeat(orders, r_axis.size)
    r = np.tile(r_axis, len(orders))
    d = np.repeat(aspects, r_axis.size) * r

    def cell(r: float, d: float, m: int) -> tuple:
        geom = resonator.ResonatorGeometry(R=r, d=d, h=h, eps_spacer=sc.geometry.eps_spacer)
        forms = resonator.coupling_J12_hsr(sc.material, geom, omega, p, order=m)
        series = resonator.pair_response(sc.material, geom, omega, p, p)
        g11 = resonator.gamma_self(sc.material, geom, omega, p)
        return forms.j_loss_length, g11, forms.j_bounce, series.J

    cells = [cell(*c) for c in zip(r.tolist(), d.tolist(), m.tolist())]
    j, g11, j_bounce, j_series = np.array(cells, dtype=float).reshape(-1, 4).T  # 0 cells ok
    write_csv(_out(sc, "coupling_sweep.csv"),
              {"R_nm": r, "d_nm": d, "h_nm": np.full(r.size, h),
               "omega_cm1": np.full(r.size, omega), "J_meV": j, "Gamma_meV": g11,
               "J_over_Gamma": np.divide(j, g11, out=np.full(r.size, np.inf), where=g11 > 0),
               "m": m, "J_bounce_meV": j_bounce, "J_series_meV": j_series,
               "above_kT_room": j > KT_ROOM_MEV}, manifest,
              comments=[f"operating omega_cm1 = {omega:.9g}; d tracks the order-m "
                        "super-resonance via d = 4 m R / Re sqrt(-eps_perp/eps_par)",
                        f"kT_room_meV = {KT_ROOM_MEV:.9g}"])
    return 0


def cmd_design_window(sc: Scenario, args, manifest: RunManifest) -> int:
    cfg = sc.raw.get("design", {})
    if sc.geometry is None:
        raise ScenarioError("design-window needs a geometry section")
    r_eg = _num(cfg, "r_eg_nm", "design", default=2.0)
    margin = _num(cfg, "margin", "design", default=10.0)
    omega = cfg.get("omega_cm1")  # absent or null: the band centre
    omega = upper_band(sc.material).center if omega is None else _num(cfg, "omega_cm1", "design")
    win = resonator.design_window(sc.material, sc.geometry, omega, r_eg, margin=margin)
    write_csv(_out(sc, "design_window.csv"),
              {"omega_cm1": [omega], "h_nm": [sc.geometry.h], "h_star_nm": [win.h_star],
               "h_c_nm": [win.h_c], "ratio": [win.ratio], "margin": [win.margin],
               "feasible": [win.feasible]}, manifest)
    print(f"h*    = {win.h_star:.4g} nm")
    print(f"h_c   = {win.h_c:.4g} nm")
    print(f"ratio = {win.ratio:.4g}  (h_c / h*)")
    print(f"h     = {sc.geometry.h:g} nm -> "
          f"{'feasible' if win.feasible else 'NOT feasible'} "
          f"(needs h >= {win.margin:g} h* and h <= h_c)")
    return 0


def _write_trajectory(sc: Scenario, name: str, traj: dynamics.Trajectory,
                      manifest: RunManifest) -> None:
    pops = traj.populations()
    n = int(np.log2(pops.shape[1]))
    labels = ["".join("e" if (idx >> j) & 1 else "g" for j in range(n))
              for idx in range(2 ** n)]
    write_csv(_out(sc, name),
              {"t_ps": traj.times, **{f"pop_{lab}": pops[:, k] for k, lab in enumerate(labels)},
               "purity": traj.purity(), "trace_error": traj.trace_error()}, manifest,
              comments=["basis labels: character k is qubit k (least significant first)"])


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
            duration=_num(s, "duration_ps", f"evolve.schedule[{k}]"), theta=theta,
            drive=tuple(complex(a, b) for a, b in zip(dr, di)),
            detuning=tuple(float(x) for x in det)))
    if not segs:
        raise ScenarioError("evolve.schedule must list at least one segment")
    rho0 = dynamics.basis_state(cfg.get("initial_state", "e" + "g" * (len(sc.qubits) - 1)))
    traj = dynamics.evolve(rho0, sc.qubits, couplings, dynamics.ControlSchedule(tuple(segs)),
                           tol=_num(cfg, "tol", "evolve", default=1e-10))
    _write_trajectory(sc, "trajectory.csv", traj, manifest)
    print(f"evolved {len(segs)} segment(s), {len(traj.times)} recorded steps "
          f"(J12 = {couplings.J[0, 1]:.4g} meV at omega = {omega:.1f} cm^-1)")
    return 0


def cmd_gate(sc: Scenario, args, manifest: RunManifest) -> int:
    cfg = sc.raw.get("gate", {})
    couplings, omega = build_coupling_matrix(sc)
    threshold = _num(cfg, "fidelity_threshold", "gate", default=0.97)
    tol = _num(cfg, "tol", "gate", default=1e-10)
    result = dynamics.iswap_gate(sc.qubits, couplings, gamma_on=True, tol=tol)
    write_csv(_out(sc, "gate_summary.csv"),
              {"omega_cm1": [omega], "J12_meV": [couplings.J[0, 1]],
               "Gamma11_meV": [couplings.Gamma[0, 0]], "Gamma22_meV": [couplings.Gamma[1, 1]],
               "t_gate_ps": [result.gate_time], "avg_fidelity": [result.avg_fidelity],
               "threshold": [threshold]}, manifest)
    _write_trajectory(sc, "gate_trajectory.csv", result.trajectory, manifest)
    pm = result.process_matrix
    row, col = np.indices(pm.shape)
    write_csv(_out(sc, "gate_process.csv"),
              {"row": row.ravel(), "col": col.ravel(), "re": pm.real.ravel(),
               "im": pm.imag.ravel()}, manifest,
              comments=["column-stacking superoperator of the gate channel"])
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
