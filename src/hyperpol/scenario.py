"""Scenario configuration: YAML schema, validation, and derived objects.

A scenario file is one YAML document; sections are consumed by the CLI
subcommands that need them.  Minimal example:

    material: {file: hbn, loss_scale: 1.0}
    geometry: {R_nm: 100.0, d_nm: 316.2, h_nm: 5.0}
    qubits:
      - {omega_eg_mev: 186.0, p_enm: 1.0}
      - {omega_eg_mev: 186.0, p_enm: 1.0}
    couplings: {gamma_mode: ratio, gamma_over_j: 0.01}
    output: {prefix: out/run}

Optional sections: band, permittivity, sweep, map, fieldmap, foci, design,
gate, evolve (see _validate_scenario for fields and defaults).  Numbers in
the file use the units spelled in the key names (nm, cm1, meV, ps).
"""

from __future__ import annotations

import hashlib
import json
import re
import time
import warnings
from dataclasses import dataclass, field as dc_field
from pathlib import Path

import numpy as np
import yaml

from . import resonator
from .dynamics import CouplingMatrix, QubitSpec
from .errors import ScenarioError
from .material import MaterialModel, default_hbn, load_material, loss_scaled, upper_band
from .resonator import ResonatorGeometry


@dataclass
class Scenario:
    raw: dict
    path: Path
    material: MaterialModel
    material_file: str
    geometry: ResonatorGeometry | None
    qubits: list[QubitSpec]
    out_prefix: str


@dataclass
class RunManifest:
    tool: str
    version: str
    command: str
    input_digest: str
    timestamp: str
    seed: int | None
    threads: int
    outputs: list[dict] = dc_field(default_factory=list)

    def add_output(self, path: str, columns: list[str]) -> None:
        self.outputs.append({"path": path, "columns": columns})

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.__dict__, fh, indent=2, sort_keys=True)
            fh.write("\n")

    @staticmethod
    def read(path) -> "RunManifest":
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        return RunManifest(**data)


class _Loader(getattr(yaml, "CSafeLoader", yaml.SafeLoader)):
    """SafeLoader that also reads YAML 1.2 floats: 1.0e6 and 1e-3, not only 1.0e+6.

    It parses in C (libyaml) and falls back to the pure-Python parser when
    PyYAML was built without libyaml; both resolve scalars alike.
    """


_Loader.add_implicit_resolver(
    "tag:yaml.org,2002:float",
    re.compile(r"^[-+]?(?:[0-9][0-9_]*(?:\.[0-9_]*)?|\.[0-9_]+)[eE][-+]?[0-9]+$"),
    list("-+0123456789."))


def _need(cfg: dict, key: str, ctx: str):
    if key not in cfg:
        raise ScenarioError(f"{ctx}: missing required key {key!r}")
    return cfg[key]


def _num(cfg: dict, key: str, ctx: str, default=None, positive=False):
    if key not in cfg:
        if default is None:
            raise ScenarioError(f"{ctx}: missing required number {key!r}")
        return default
    v = cfg[key]
    if not isinstance(v, (int, float)) or isinstance(v, bool):
        raise ScenarioError(f"{ctx}: {key} must be a number, got {v!r}")
    if positive and not v > 0:
        raise ScenarioError(f"{ctx}: {key} must be positive, got {v}")
    return float(v)


def _count(cfg: dict, key: str, ctx: str, default: int) -> int:
    v = cfg.get(key, default)
    if not isinstance(v, int) or isinstance(v, bool) or v < 1:
        raise ScenarioError(f"{ctx}: {key} must be a positive integer, got {v!r}")
    return v


def axis_range(cfg: dict, ctx: str) -> np.ndarray:
    """Parse {start, stop, count} into a non-empty linspace."""
    start = _num(cfg, "start", ctx)
    stop = _num(cfg, "stop", ctx)
    count = _count(cfg, "count", ctx, 1)
    if count == 1:
        return np.array([start])
    return np.linspace(start, stop, count)


def load_scenario(path, out_prefix: str | None = None) -> Scenario:
    path = Path(path)
    if not path.exists():
        raise ScenarioError(f"scenario file not found: {path}")
    with open(path, encoding="utf-8") as fh:
        try:
            raw = yaml.load(fh, Loader=_Loader)
        except yaml.YAMLError as exc:  # its message spans lines; the CLI prints one
            raise ScenarioError(f"{path}: YAML parse error: {' '.join(str(exc).split())}") from exc
    if not isinstance(raw, dict):
        raise ScenarioError(f"{path}: top level must be a mapping")

    mat_cfg = raw.get("material", {"file": "hbn"})
    mat_file = mat_cfg.get("file", "hbn")
    if mat_file == "hbn":
        model = default_hbn()
    else:
        mpath = Path(mat_file)
        if not mpath.is_absolute():
            mpath = path.parent / mpath
        if not mpath.exists():
            raise ScenarioError(f"material file not found: {mpath}")
        model = load_material(mpath)
    scale = _num(mat_cfg, "loss_scale", "material", default=1.0, positive=True)
    if scale != 1.0:
        model = loss_scaled(model, scale)

    geometry = None
    if "geometry" in raw:
        g = raw["geometry"]
        eps_sp = g.get("eps_spacer", [11.7, 0.0])
        if isinstance(eps_sp, (int, float)):
            eps_sp = [float(eps_sp), 0.0]
        geometry = ResonatorGeometry(
            R=_num(g, "R_nm", "geometry", positive=True),
            d=_num(g, "d_nm", "geometry", positive=True),
            h=_num(g, "h_nm", "geometry", default=0.0),
            eps_spacer=complex(eps_sp[0], eps_sp[1]),
            eccentricity=_num(g, "eccentricity", "geometry", default=0.0),
        )

    qubits = []
    for i, q in enumerate(raw.get("qubits", [])):
        qubits.append(QubitSpec(
            omega_eg=_num(q, "omega_eg_mev", f"qubits[{i}]"),
            p=_num(q, "p_enm", f"qubits[{i}]", positive=True),
            gamma_background=_num(q, "gamma_background_mev", f"qubits[{i}]", default=0.0),
            theta=bool(q.get("theta", False)),
            detuning=_num(q, "detuning_mev", f"qubits[{i}]", default=0.0),
        ))

    prefix = out_prefix or raw.get("output", {}).get("prefix", "out/run")
    return Scenario(raw=raw, path=path, material=model, material_file=str(mat_file),
                    geometry=geometry, qubits=qubits, out_prefix=str(prefix))


def validate_scenario(path) -> list[str]:
    """Full-file validation; returns human-readable notes for valid files."""
    sc = load_scenario(path)
    notes = [f"material: {sc.material_file} (loss_scale {sc.material.loss_scale:g})"]
    for section in ("sweep", "map", "permittivity", "fieldmap"):
        if section in sc.raw:
            cfg = sc.raw[section]
            for key, val in cfg.items():
                if isinstance(val, dict) and "start" in val:
                    axis = axis_range(val, f"{section}.{key}")
                    if axis.size == 0:
                        raise ScenarioError(f"{section}.{key}: empty sweep range")
                    notes.append(f"{section}.{key}: {axis.size} points")
    if sc.geometry is not None:
        notes.append(f"geometry: R={sc.geometry.R} nm, d={sc.geometry.d} nm, h={sc.geometry.h} nm")
    notes.append(f"qubits: {len(sc.qubits)}")
    return notes


def input_digest(scenario: Scenario) -> str:
    """sha256 over the scenario file and the material file it references."""
    h = hashlib.sha256()
    h.update(scenario.path.read_bytes())
    if scenario.material_file != "hbn":
        mpath = Path(scenario.material_file)
        if not mpath.is_absolute():
            mpath = scenario.path.parent / mpath
        h.update(mpath.read_bytes())
    return h.hexdigest()


def new_manifest(scenario: Scenario, command: str, seed: int | None,
                 threads: int) -> RunManifest:
    from . import __version__
    return RunManifest(tool="hyperpol", version=__version__, command=command,
                       input_digest=input_digest(scenario),
                       timestamp=time.strftime("%Y-%m-%dT%H:%M:%S"),
                       seed=seed, threads=threads)


# --- coupling construction for gate / evolve -----------------------------------

def operating_frequency(sc: Scenario) -> tuple[float, int]:
    """Operating wavenumber and resonance order from the scenario.

    couplings.omega_cm1 wins when given; otherwise the order-m super-resonance
    frequency of the configured geometry inside the upper band.
    """
    cfg = sc.raw.get("couplings", {})
    m = _count(cfg, "m", "couplings", 1)
    if "omega_cm1" in cfg and cfg["omega_cm1"] is not None:
        return _num(cfg, "omega_cm1", "couplings", positive=True), m
    if sc.geometry is None:
        raise ScenarioError("couplings: need geometry or an explicit omega_cm1")
    band = upper_band(sc.material)
    omega = resonator.hsr_frequency(sc.material, sc.geometry.R, sc.geometry.d, m, band)
    return omega, m


def build_coupling_matrix(sc: Scenario) -> tuple[CouplingMatrix, float]:
    """CouplingMatrix for the scenario's qubit pair; returns (matrix, omega).

    couplings.gamma_mode:
      "ratio"    - Gamma_ii = gamma_over_j * J12, off-diagonal zero (the
                   operating point assumed by the gate-fidelity estimates)
      "computed" - Gamma_ii from gamma_self, Gamma_ij from the imaginary part
                   of the opposite-sides pair response (flagged when negative)
      "off"      - no resonator-induced decay
    couplings.j_source: "closed_form" (default) or "series".
    """
    if sc.geometry is None:
        raise ScenarioError("couplings need a geometry section")
    if len(sc.qubits) != 2:
        raise ScenarioError(f"coupling construction expects 2 qubits, got {len(sc.qubits)}")
    cfg = sc.raw.get("couplings", {})
    omega, m = operating_frequency(sc)
    p1, p2 = sc.qubits[0].p, sc.qubits[1].p
    j_source = cfg.get("j_source", "closed_form")
    if j_source == "closed_form":
        forms = resonator.coupling_J12_hsr(sc.material, sc.geometry, omega,
                                           float(np.sqrt(p1 * p2)), order=m)
        j12 = forms.j_loss_length
    elif j_source == "series":
        j12 = resonator.pair_response(sc.material, sc.geometry, omega, p1, p2).J
    else:
        raise ScenarioError(f"couplings.j_source must be closed_form or series, got {j_source!r}")
    if sc.geometry.eccentricity > 0:
        j12 = resonator.elliptic_correction(j12, sc.geometry.eccentricity)

    mode = cfg.get("gamma_mode", "ratio")
    if mode is False:  # YAML reads a bare `off` as boolean
        mode = "off"
    if mode == "off":
        gamma = np.zeros((2, 2))
    elif mode == "ratio":
        r = _num(cfg, "gamma_over_j", "couplings", default=0.01)
        gamma = np.diag([r * abs(j12), r * abs(j12)])
    elif mode == "computed":
        g11 = resonator.gamma_self(sc.material, sc.geometry, omega, p1)
        g22 = resonator.gamma_self(sc.material, sc.geometry, omega, p2)
        g12 = resonator.pair_response(sc.material, sc.geometry, omega, p1, p2).Gamma
        if g12 < 0:
            warnings.warn(f"off-diagonal Gamma_12 = {g12:.4g} meV is negative "
                          "(coherent-ray phase); retained with its sign")
        if abs(g12) >= min(g11, g22):
            warnings.warn(
                f"|Gamma_12| = {abs(g12):.4g} meV is not small against "
                f"Gamma_11 = {g11:.4g} meV; the cross-decay hierarchy is violated")
        gamma = np.array([[g11, g12], [g12, g22]])
    else:
        raise ScenarioError(f"couplings.gamma_mode must be ratio/computed/off, got {mode!r}")
    return CouplingMatrix(J=np.array([[0.0, j12], [j12, 0.0]]), Gamma=gamma), omega
