"""Seeded workloads: input generators, one operation each, and its output check.

Every input comes from the run's seed.  Continuous parameters follow a
Kronecker (R-sequence) low-discrepancy sequence with a seeded offset, and
categorical ones cycle through a seeded permutation in fixed-size blocks.
Any prefix of the operation stream therefore covers the parameter ranges
evenly, so medians agree between seeds.  The program receives only the
generated scenario files (design_sweep, gate_scan) or objects
(driven_register).

Every generator stays inside the domain the package validates: no operation
of a correct program fails on these inputs.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import json
import math
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import yaml
from scipy.linalg import expm
from scipy.sparse.linalg import expm_multiply

from hyperpol import cli, dynamics, resonator
from hyperpol.constants import HBAR_MEV_PS
from hyperpol.material import permittivity_at, upper_band
from hyperpol.optics import sqrt_ratio
from hyperpol.scenario import build_coupling_matrix, load_scenario

SAMPLED_CELLS = 4         # resonance-map cells recomputed per design_sweep operation
STATE_TOL = 1e-7          # max |rho - reference| per driven_register segment
REFERENCE_TOL = 1e-11     # RK45 tolerance of the detuned-segment reference (operation: 1e-10)
FIDELITY_TOL = 1e-8       # |F_avg(RK45) - F_avg(expm)| per gate_scan operation
MAP_REL_TOL = 2e-8        # resonance-map cell vs direct series (9-digit CSV rounding)
SOURCES = ["closed_form", "series"]


class Sequence:
    """Kronecker sequence frac(u + k * alpha) in `dims` dimensions (Roberts' R_d)."""

    def __init__(self, rng: np.random.Generator, dims: int):
        phi = 2.0
        for _ in range(64):
            phi = (1.0 + phi) ** (1.0 / (dims + 1))
        self.alpha = (1.0 / phi) ** np.arange(1, dims + 1) % 1.0
        self.offset = rng.random(dims)

    def point(self, k: int) -> np.ndarray:
        return (self.offset + (k + 1) * self.alpha) % 1.0


def _read_csv(path: Path) -> list[list[str]]:
    with open(path, encoding="utf-8") as fh:
        rows = list(csv.reader(line for line in fh if not line.startswith("#")))
    return rows[1:]


def _r(x, digits: int = 4) -> float:
    return round(float(x), digits)


def _rel_err(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


class Workload:
    """Cases come in blocks; block b is generated from (seed, b) alone when the
    loop reaches it.  Set-up generates block 0; the digest covers every block
    generated.
    """

    salt = 0
    dims = 1

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.seq = Sequence(np.random.default_rng([seed, self.salt]), self.dims)
        self._hash = hashlib.sha256()

    def kinds(self, b: int) -> list:
        raise NotImplementedError

    def block(self, b: int) -> list:
        """Block b's cases in a seeded order.

        Slot i of kinds(b) takes the point frac(point(b) + i/L): each slot (e.g.
        the one stiff gate case per block) has its own evenly spread stream of
        parameters, and the L cases of a block are spread evenly too.
        """
        rng = np.random.default_rng([self.seed, self.salt, 2, b])
        kinds = self.kinds(b)
        n = len(kinds)
        return [self.case(b * n + int(i), kinds[i], (self.seq.point(b) + i / n) % 1.0, rng)
                for i in rng.permutation(n)]

    @property
    def digest(self) -> str:
        return self._hash.hexdigest()


# --- scenario-file workloads ---------------------------------------------------------

@dataclass(frozen=True)
class ScenarioCase:
    index: int
    path: Path
    cfg: dict


class _ScenarioWorkload(Workload):
    """Cases are YAML scenario files, run through cli.main in-process."""

    commands: tuple[str, ...] = ()

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self.prefix = workdir / "out" / "op"
        (workdir / "inputs").mkdir(parents=True, exist_ok=True)
        self.sink = open(os.devnull, "w", encoding="utf-8")

    def case(self, k: int, kind, u: np.ndarray, rng) -> ScenarioCase:
        cfg = self.scenario(kind, u)
        cfg["output"] = {"prefix": str(self.prefix)}
        text = yaml.safe_dump(cfg, sort_keys=False)
        path = self.workdir / "inputs" / f"case{k:04d}.yaml"
        path.write_text(text, encoding="utf-8")
        self._hash.update(text.replace(str(self.workdir), "<work>").encode())
        return ScenarioCase(k, path, cfg)

    def setup(self) -> list[ScenarioCase]:
        first = self.block(0)
        load_scenario(first[0].path)
        resonator.bessel_j0_zeros(2048)
        return first

    def run(self, case: ScenarioCase):
        argv = ["--config", str(case.path), "--threads", "1"]
        with contextlib.redirect_stdout(self.sink):
            return [cli.main(argv + [cmd]) for cmd in self.commands]

    def out(self, name: str) -> Path:
        return Path(f"{self.prefix}_{name}")


class DesignSweep(_ScenarioWorkload):
    """One seeded design point through the seven non-dynamics subcommands."""

    commands = ("permittivity", "bands", "fieldmap", "foci", "resonance",
                "coupling-sweep", "design-window")
    salt = 1
    dims = 16

    def kinds(self, b: int) -> list:
        return ["in_band", "low_edge", "high_edge"]   # where the map window sits

    @staticmethod
    def scenario(kind: str, u: np.ndarray) -> dict:
        R = 60.0 + 80.0 * u[1]
        aspect = 2.9 + 0.9 * u[3]   # d/R; sets the m=1 operating frequency
        if kind == "in_band":       # the upper band spans ~1370-1610 cm^-1
            w_lo = 1385.0 + 60.0 * u[4]
            w_hi = w_lo + 100.0 + 50.0 * u[5]
        elif kind == "low_edge":
            w_lo = 1330.0 + 30.0 * u[4]
            w_hi = 1420.0 + 60.0 * u[5]
        else:
            w_lo = 1500.0 + 40.0 * u[4]
            w_hi = 1620.0 + 40.0 * u[5]
        # Grid sizes centre on the shipped scenario (scripts/hbn_scenario.yaml):
        # map 64 x 64, fieldmap 81 x 81 to 80 nm, sweep 37 radii, 601 permittivity
        # points, foci m_max 5, r_eg 2 nm.
        n_map = (56 + int(17 * u[6]), 56 + int(17 * u[7]))
        n_field = 73 + int(17 * u[10])
        extent = 60.0 + 40.0 * u[11]
        omega_field = 1420.0 + 160.0 * u[9]
        return {
            "material": {"file": "hbn", "loss_scale": _r(0.25 + 0.75 * u[0], 6)},
            "geometry": {"R_nm": _r(R), "d_nm": _r(aspect * R),
                         "h_nm": _r(3.0 + 9.0 * u[2]), "eps_spacer": [11.7, 0.0]},
            "qubits": [{"omega_eg_mev": 186.0, "p_enm": 1.0} for _ in range(2)],
            "couplings": {"m": 1},
            "permittivity": {"omega_cm1": {"start": 600.0, "stop": 1800.0,
                                           "count": 401 + int(401 * u[12])}},
            "sweep": {"R_nm": {"start": 20.0, "stop": 200.0, "count": 31 + int(13 * u[13])},
                      "orders": [1, 2]},
            "map": {"omega_cm1": {"start": _r(w_lo), "stop": _r(w_hi), "count": n_map[0]},
                    "d_over_R": {"start": _r(2.6 + 0.3 * u[8]), "stop": _r(3.9 + 0.3 * u[8]),
                                 "count": n_map[1]},
                    "p_enm": 1.0, "m": 1},
            "fieldmap": {"omega_cm1": _r(omega_field), "p_enm": [0.0, 0.0, 1.0],
                         "rho_nm": {"start": 1.0, "stop": _r(extent), "count": n_field},
                         "z_nm": {"start": 1.0, "stop": _r(extent), "count": n_field}},
            "foci": {"omega_cm1": _r(omega_field), "a0_nm": 0.3, "m_max": 3 + int(5 * u[14])},
            "design": {"r_eg_nm": _r(1.5 + 1.0 * u[15]), "margin": 10.0, "omega_cm1": None},
        }

    def check(self, case: ScenarioCase, rcs) -> str | None:
        if any(rc != 0 for rc in rcs):
            return f"exit codes {rcs}"
        cfg = case.cfg
        fm = cfg["fieldmap"]
        if len(_read_csv(self.out("fieldmap.csv"))) != fm["rho_nm"]["count"] * fm["z_nm"]["count"]:
            return "fieldmap row count"
        m = cfg["map"]
        rows = _read_csv(self.out("resonance_map.csv"))
        n_w, n_a = m["omega_cm1"]["count"], m["d_over_R"]["count"]
        if len(rows) != n_w * n_a:
            return "resonance_map row count"
        omegas = np.linspace(m["omega_cm1"]["start"], m["omega_cm1"]["stop"], n_w)
        aspects = np.linspace(m["d_over_R"]["start"], m["d_over_R"]["stop"], n_a)
        sc = load_scenario(case.path)
        g = sc.geometry
        rng = np.random.default_rng([self.seed, case.index])
        for cell in rng.choice(n_w * n_a, SAMPLED_CELLS, replace=False):
            i, j = divmod(int(cell), n_a)
            geom = resonator.ResonatorGeometry(R=g.R, d=aspects[j] * g.R, h=g.h,
                                               eps_spacer=g.eps_spacer)
            r = resonator.pair_response(sc.material, geom, float(omegas[i]), 1.0, 1.0,
                                        tol=1e-8, formulation="direct")
            ref = math.log10(max(r.magnitude, 1e-300))
            got = float(rows[cell][2])
            if _rel_err(got, ref) > MAP_REL_TOL and abs(got - ref) > 1e-12:
                return f"resonance cell ({i},{j}): {got!r} vs direct series {ref!r}"
        return None


class GateScan(_ScenarioWorkload):
    """One seeded two-qubit scenario through the gate subcommand."""

    commands = ("gate",)
    salt = 2
    dims = 2

    def kinds(self, b: int) -> list:
        # Ratio mode is the operating point.  "off" (no decay) costs about half
        # and the stiff "computed" mode about four times as much, so each is one
        # operation in eight, on either side of the ratio cases: the median is
        # then the centre of the ratio cases.  Their j_sources alternate by block.
        return [("ratio", "closed_form"), ("ratio", "series")] * 3 + [
            ("off", SOURCES[b % 2]), ("computed", SOURCES[(b + 1) % 2])]

    @staticmethod
    def scenario(kind: tuple, u: np.ndarray) -> dict:
        mode, source = kind
        return {
            "material": {"file": "hbn", "loss_scale": 0.3333333333},
            "geometry": {"R_nm": 100.0, "d_nm": 316.2, "h_nm": _r(4.0 + 8.0 * u[0]),
                         "eps_spacer": [11.7, 0.0]},
            "qubits": [{"omega_eg_mev": 186.0, "p_enm": 1.0} for _ in range(2)],
            "couplings": {"m": 1, "omega_cm1": 1500.0, "j_source": source, "gamma_mode": mode,
                          "gamma_over_j": float(f"{10.0 ** (-3.0 + 2.0 * u[1]):.6g}")},
            "gate": {"fidelity_threshold": 0.97, "tol": 1.0e-10},
        }

    def setup(self) -> list[ScenarioCase]:
        first = super().setup()
        zeros = np.zeros((2, 2))   # builds the two-qubit register's cached operators
        dynamics.build_hamiltonian([dynamics.QubitSpec(0.0, 1.0)] * 2,
                                   dynamics.CouplingMatrix(zeros, zeros),
                                   dynamics.Segment(1.0, (True, True)))
        return first

    def check(self, case: ScenarioCase, rcs) -> str | None:
        (rc,) = rcs
        if rc not in (0, 3):
            return f"exit code {rc}"
        (row,) = _read_csv(self.out("gate_summary.csv"))
        j12, f_avg, threshold = float(row[1]), float(row[5]), float(row[6])
        if rc != (0 if f_avg >= threshold else 3):
            return f"exit code {rc} for F_avg {f_avg} against threshold {threshold}"
        sc = load_scenario(case.path)
        cm, _ = build_coupling_matrix(sc)
        if _rel_err(j12, cm.J[0, 1]) > 1e-8:
            return f"J12 {j12} vs {cm.J[0, 1]}"
        frame = [dynamics.QubitSpec(omega_eg=0.0, p=q.p, gamma_background=q.gamma_background,
                                    theta=True) for q in sc.qubits]
        t_gate = math.pi * HBAR_MEV_PS / (2.0 * cm.J[0, 1])
        M = dynamics.liouvillian_matrix(frame, cm, dynamics.Segment(t_gate, (True, True)))
        ref = dynamics.average_gate_fidelity(expm(M * t_gate), dynamics.ISWAP)
        if abs(f_avg - ref) > FIDELITY_TOL:
            return f"F_avg {f_avg!r} vs expm oracle {ref!r}"
        return None


# --- in-process register workload ------------------------------------------------------

@dataclass(frozen=True)
class RegisterCase:
    index: int
    rho0: np.ndarray
    qubits: list
    couplings: dynamics.CouplingMatrix
    schedule: dynamics.ControlSchedule


class DrivenRegister(Workload):
    """dynamics.evolve on a seeded N = 2, 3 or 4 qubit chain in the lab frame.

    The schedule has four segments: exchange, a detuned drive on one qubit
    (the time-dependent generator), a resonant drive, and free decay with all
    qubits out of the band.
    """

    salt = 3
    dims = 2

    def kinds(self, b: int) -> list:
        return [2, 3, 4]

    def case(self, k: int, n: int, u: np.ndarray, rng) -> RegisterCase:
        total = 0.08 + 0.06 * u[0]          # ps
        k_det = int(rng.integers(n))
        g = rng.uniform(0.05, 0.5, n)
        gamma = np.diag(g)
        j = np.zeros((n, n))
        for i in range(n - 1):
            gamma[i, i + 1] = gamma[i + 1, i] = 0.3 * min(g[i], g[i + 1])
            j[i, i + 1] = j[i + 1, i] = rng.uniform(5.0, 30.0)
        drive = rng.uniform(1.0, 5.0) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
        p = {
            "omega_eg_mev": (186.0 + rng.uniform(-6.0, 6.0, n)).tolist(),
            "gamma_background_mev": rng.uniform(0.05, 0.5, n).tolist(),
            "J": j.tolist(), "Gamma": gamma.tolist(),
            # the detuned segment is short: its tight-tolerance reference is the costly check
            "durations_ps": [0.35 * total, (0.05 + 0.05 * u[1]) * total,
                             0.30 * total, 0.25 * total],
            "detuned_drive_mev": [drive.real, drive.imag],
            "detuning_mev": float(rng.choice([-1.0, 1.0]) * rng.uniform(5.0, 20.0)),
            "resonant_drive_mev": rng.uniform(1.0, 5.0),
            "excited": int(rng.integers(n)),
        }
        self._hash.update(json.dumps(p, sort_keys=True).encode())

        qubits = [dynamics.QubitSpec(omega_eg=w, p=1.0, gamma_background=gb)
                  for w, gb in zip(p["omega_eg_mev"], p["gamma_background_mev"])]
        k_res = (k_det + 1) % n
        t_ex, t_det, t_res, t_free = p["durations_ps"]
        on = (True,) * n
        segments = (
            dynamics.Segment(t_ex, on),
            dynamics.Segment(t_det, tuple(i != k_det for i in range(n)),
                             tuple(complex(*p["detuned_drive_mev"]) if i == k_det else 0j
                                   for i in range(n)),
                             tuple(p["detuning_mev"] if i == k_det else 0.0 for i in range(n))),
            dynamics.Segment(t_res, on, tuple(complex(p["resonant_drive_mev"]) if i == k_res
                                              else 0j for i in range(n))),
            dynamics.Segment(t_free, (False,) * n),
        )
        rho0 = dynamics.basis_state("".join("e" if i == p["excited"] else "g"
                                            for i in range(n)))
        return RegisterCase(k, rho0, qubits, dynamics.CouplingMatrix(J=j, Gamma=gamma),
                            dynamics.ControlSchedule(segments))

    def setup(self) -> list[RegisterCase]:
        first = self.block(0)
        for case in first:   # builds each register size's cached operators
            dynamics.build_hamiltonian(case.qubits, case.couplings, case.schedule.segments[0])
        return first

    def run(self, case: RegisterCase):
        return dynamics.evolve(case.rho0, case.qubits, case.couplings, case.schedule)

    def check(self, case: RegisterCase, traj) -> str | None:
        try:
            dynamics.validate_density_matrix(traj.states[-1])
        except ValueError as exc:
            return f"final state: {exc}"
        t_end = 0.0
        start = traj.states[0]
        for s, seg in enumerate(case.schedule.segments):
            t_end += seg.duration
            hit = np.flatnonzero(traj.times == t_end)
            if hit.size != 1:
                return f"segment {s}: no recorded state at t = {t_end} ps"
            end = traj.states[int(hit[0])]
            if any(seg.detuning) and any(seg.drive):
                ref = dynamics.evolve(start, case.qubits, case.couplings,
                                      dynamics.ControlSchedule((seg,)), tol=REFERENCE_TOL,
                                      check=False).states[-1]
            else:
                M = dynamics.liouvillian_matrix(case.qubits, case.couplings, seg)
                ref = expm_multiply(M * seg.duration, start.T.reshape(-1))
                ref = ref.reshape(start.shape).T
            err = float(np.max(np.abs(end - ref)))
            if err > STATE_TOL:
                return f"segment {s}: |rho - reference| = {err:.3g}"
            start = end
        return None


WORKLOADS = {
    "design_sweep": DesignSweep,
    "gate_scan": GateScan,
    "driven_register": DrivenRegister,
}


# --- the fixed reference operation ---------------------------------------------------------

def reference_check(scenario_path: Path, workdir: Path) -> str | None:
    """The shipped scenario must reproduce the published reference numbers.

    F_avg 0.975354 and J12 42.3 meV (closed form) from `gate`; J12 9.8 meV
    from the Bessel series at the exact m=1 super-resonance; Gamma11 136 meV;
    h_c/h* 262 at band centre for d = 50 nm.
    """
    prefix = workdir / "out" / "reference"
    with open(os.devnull, "w", encoding="utf-8") as sink, contextlib.redirect_stdout(sink):
        rc = cli.main(["--config", str(scenario_path), "--out-prefix", str(prefix),
                       "--threads", "1", "gate"])
    if rc != 0:
        return f"reference gate exit code {rc}"
    (row,) = _read_csv(Path(f"{prefix}_gate_summary.csv"))
    sc = load_scenario(scenario_path)
    g = sc.geometry
    omega = float(sc.raw["couplings"]["omega_cm1"])
    d_res = 4.0 * g.R / sqrt_ratio(permittivity_at(sc.material, omega)).real
    at_res = resonator.ResonatorGeometry(R=g.R, d=d_res, h=g.h, eps_spacer=g.eps_spacer)
    window = resonator.design_window(
        sc.material, resonator.ResonatorGeometry(R=g.R, d=50.0, h=g.h),
        upper_band(sc.material).center, 2.0)
    got = {
        "F_avg": f"{float(row[5]):.6f}",
        "J12_closed_form_meV": f"{float(row[1]):.1f}",
        "J12_series_meV": f"{resonator.pair_response(sc.material, at_res, omega, 1.0, 1.0).J:.1f}",
        "Gamma11_meV": f"{resonator.gamma_self(sc.material, g, omega, 1.0):.0f}",
        "h_c_over_h_star": f"{window.ratio:.0f}",
    }
    want = {"F_avg": "0.975354", "J12_closed_form_meV": "42.3", "J12_series_meV": "9.8",
            "Gamma11_meV": "136", "h_c_over_h_star": "262"}
    bad = {k: v for k, v in got.items() if v != want[k]}
    return f"reference numbers differ: {bad}" if bad else None
