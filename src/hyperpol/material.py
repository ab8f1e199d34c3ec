"""Uniaxial Lorentz-oscillator permittivity of polar crystals.

Each axis of the dielectric tensor is a multi-oscillator Lorentz model

    eps_a(w) = eps_inf_a * (1 + sum_k (wLO_k^2 - wTO_k^2)
                                      / (wTO_k^2 - w^2 - i w loss_scale gamma_k))

with frequencies in cm^-1.  ``loss_scale`` multiplies every damping constant
and models isotope enrichment / cryogenic operation (1.0 = natural abundance
at room temperature).  Hyperbolic bands are the frequency windows where
Re[eps_par * eps_perp] < 0.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass, replace
from importlib import resources

import numpy as np

from .errors import MaterialFileError, NonHyperbolicError


@dataclass(frozen=True)
class LorentzOscillator:
    omega_to: float  # cm^-1
    omega_lo: float  # cm^-1
    damping: float   # cm^-1


@dataclass(frozen=True)
class LorentzAxis:
    eps_inf: float
    oscillators: tuple[LorentzOscillator, ...]

    def validate(self) -> None:
        if not self.eps_inf > 0:
            raise ValueError(f"eps_inf must be positive, got {self.eps_inf}")
        for osc in self.oscillators:
            if not (osc.omega_lo > osc.omega_to > 0):
                raise ValueError(
                    f"need omega_LO > omega_TO > 0, got TO={osc.omega_to}, LO={osc.omega_lo}")
            if osc.damping < 0:
                raise ValueError(f"damping must be >= 0, got {osc.damping}")


@dataclass(frozen=True)
class MaterialModel:
    axis_parallel: LorentzAxis  # along the symmetry axis (eps_par)
    axis_perp: LorentzAxis      # in-plane (eps_perp)
    loss_scale: float = 1.0

    def __post_init__(self):
        self.axis_parallel.validate()
        self.axis_perp.validate()
        if not self.loss_scale > 0:
            raise ValueError(f"loss_scale must be positive, got {self.loss_scale}")


@dataclass(frozen=True)
class UniaxialPermittivity:
    omega: float  # cm^-1; the three fields are arrays of one shape for an array of omegas
    eps_parallel: complex
    eps_perp: complex

    @property
    def is_hyperbolic(self) -> bool:
        return (self.eps_parallel * self.eps_perp).real < 0


class BandType(enum.Enum):
    TYPE_I = "type_i"    # Re eps_par < 0, Re eps_perp > 0
    TYPE_II = "type_ii"  # Re eps_perp < 0, Re eps_par > 0


@dataclass(frozen=True)
class HyperbolicBand:
    omega_low: float   # cm^-1
    omega_high: float  # cm^-1
    band_type: BandType

    @property
    def center(self) -> float:
        return 0.5 * (self.omega_low + self.omega_high)


def _axis_eps(axis: LorentzAxis, omega, loss_scale: float):
    """Raw oscillator sum; accepts scalar or array omega of any sign.

    A lossless oscillator evaluated exactly at omega_TO divides by zero (the
    physical pole); the inf propagates correctly through band-sign logic.
    """
    w = np.asarray(omega, dtype=complex)
    s = np.ones_like(w)
    with np.errstate(divide="ignore", invalid="ignore"):
        for osc in axis.oscillators:
            s = s + (osc.omega_lo**2 - osc.omega_to**2) / (
                osc.omega_to**2 - w**2 - 1j * w * loss_scale * osc.damping)
        out = axis.eps_inf * s
    return out if out.ndim else complex(out)


def permittivity_at(model: MaterialModel, omega) -> UniaxialPermittivity:
    """Evaluate both tensor components at wavenumbers omega > 0 (cm^-1).

    A scalar omega gives scalar fields; an array gives arrays of its shape.
    """
    w = np.asarray(omega, dtype=float)
    if not np.all(w > 0):
        raise ValueError(f"omega must be positive, got {omega}")
    return UniaxialPermittivity(
        omega=w if w.ndim else float(w),
        eps_parallel=_axis_eps(model.axis_parallel, omega, model.loss_scale),
        eps_perp=_axis_eps(model.axis_perp, omega, model.loss_scale),
    )


def _band_indicator(model: MaterialModel, omega):
    """Re[eps_par * eps_perp]; negative inside hyperbolic bands."""
    ep = _axis_eps(model.axis_parallel, omega, model.loss_scale)
    et = _axis_eps(model.axis_perp, omega, model.loss_scale)
    return np.real(ep * et)


def _refine_edge(model: MaterialModel, lo: float, hi: float, rel_tol: float = 1e-9) -> float:
    """Bisect the sign change of Re[eps_par*eps_perp] inside (lo, hi)."""
    flo = _band_indicator(model, lo)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if abs(hi - lo) <= rel_tol * mid:
            return mid
        fmid = _band_indicator(model, mid)
        if (flo < 0) == (fmid < 0):
            lo, flo = mid, fmid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def hyperbolic_bands(model: MaterialModel,
                     omega_range: tuple[float, float],
                     grid_points: int = 4096) -> list[HyperbolicBand]:
    """Maximal contiguous hyperbolic intervals inside omega_range.

    Band edges are located on a uniform grid and refined by bisection to a
    relative tolerance of 1e-9.  Returns an empty list when the medium is
    nowhere hyperbolic on the scan.
    """
    lo, hi = omega_range
    if not (0 < lo < hi):
        raise ValueError(f"omega_range must be positive and increasing, got {omega_range}")
    if grid_points < 2:
        raise ValueError("grid_points must be >= 2")
    grid = np.linspace(lo, hi, grid_points)
    ind = _band_indicator(model, grid)
    inside = ind < 0
    bands: list[HyperbolicBand] = []
    i = 0
    while i < grid_points:
        if not inside[i]:
            i += 1
            continue
        j = i
        while j + 1 < grid_points and inside[j + 1]:
            j += 1
        w_lo = grid[i] if i == 0 else _refine_edge(model, grid[i - 1], grid[i])
        w_hi = grid[j] if j == grid_points - 1 else _refine_edge(model, grid[j + 1], grid[j])
        center = 0.5 * (w_lo + w_hi)
        eps = permittivity_at(model, center)
        btype = BandType.TYPE_I if eps.eps_parallel.real < 0 else BandType.TYPE_II
        bands.append(HyperbolicBand(float(w_lo), float(w_hi), btype))
        i = j + 1
    return bands


def loss_scaled(model: MaterialModel, factor: float) -> MaterialModel:
    """New model with every damping constant multiplied by ``factor``."""
    if not factor > 0:
        raise ValueError(f"loss scale factor must be positive, got {factor}")
    return replace(model, loss_scale=model.loss_scale * factor)


def upper_band(model: MaterialModel,
               omega_range: tuple[float, float] = (400.0, 2200.0)) -> HyperbolicBand:
    """Highest-frequency hyperbolic band over a default infrared scan."""
    bands = hyperbolic_bands(model, omega_range)
    if not bands:
        raise NonHyperbolicError("model has no hyperbolic band in the scanned range")
    return bands[-1]


# ---------------------------------------------------------------------------
# material parameter files
#
# Line-oriented format so validation errors can point at the offending line:
#
#     loss_scale = 1.0          (optional, default 1)
#     [parallel]                (symmetry axis)
#     eps_inf = 2.95
#     oscillator = 780 830 4    (omega_TO omega_LO damping, repeatable)
#     [perp]
#     ...

def _parse_material_text(text: str, name: str) -> MaterialModel:
    sections: dict[str, dict] = {}
    current: dict | None = None
    loss_scale = 1.0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            key = line[1:-1].strip().lower()
            if key not in ("parallel", "perp"):
                raise MaterialFileError(f"{name}:{lineno}: unknown section [{key}] "
                                        "(expected [parallel] or [perp])")
            if key in sections:
                raise MaterialFileError(f"{name}:{lineno}: duplicate section [{key}]")
            current = {"eps_inf": None, "osc": [], "line": lineno}
            sections[key] = current
            continue
        if "=" not in line:
            raise MaterialFileError(f"{name}:{lineno}: expected 'key = value', got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip().lower()
        value = value.strip()
        if key == "loss_scale":
            if current is not None:
                raise MaterialFileError(f"{name}:{lineno}: loss_scale must precede sections")
            loss_scale = _parse_float(value, name, lineno, key)
        elif key == "eps_inf":
            if current is None:
                raise MaterialFileError(f"{name}:{lineno}: eps_inf outside a section")
            eps_inf = _parse_float(value, name, lineno, key)
            if not eps_inf > 0:
                raise MaterialFileError(
                    f"{name}:{lineno}: eps_inf must be positive, got {eps_inf}")
            current["eps_inf"] = eps_inf
        elif key == "oscillator":
            if current is None:
                raise MaterialFileError(f"{name}:{lineno}: oscillator outside a section")
            parts = value.split()
            if len(parts) != 3:
                raise MaterialFileError(
                    f"{name}:{lineno}: oscillator needs 'omega_TO omega_LO damping'")
            to, lo, g = (_parse_float(p, name, lineno, "oscillator") for p in parts)
            if not (lo > to > 0):
                raise MaterialFileError(
                    f"{name}:{lineno}: need omega_LO > omega_TO > 0, got TO={to}, LO={lo}")
            if g < 0:
                raise MaterialFileError(f"{name}:{lineno}: damping must be >= 0, got {g}")
            current["osc"].append(LorentzOscillator(to, lo, g))
        else:
            raise MaterialFileError(f"{name}:{lineno}: unknown key {key!r}")

    for sec in ("parallel", "perp"):
        if sec not in sections:
            raise MaterialFileError(f"{name}: missing section [{sec}]")
        data = sections[sec]
        if data["eps_inf"] is None:
            raise MaterialFileError(f"{name}:{data['line']}: section [{sec}] lacks eps_inf")
        if not data["eps_inf"] > 0:
            raise MaterialFileError(
                f"{name}:{data['line']}: eps_inf must be positive, got {data['eps_inf']}")
    if not loss_scale > 0:
        raise MaterialFileError(f"{name}: loss_scale must be positive, got {loss_scale}")
    return MaterialModel(
        axis_parallel=LorentzAxis(sections["parallel"]["eps_inf"],
                                  tuple(sections["parallel"]["osc"])),
        axis_perp=LorentzAxis(sections["perp"]["eps_inf"],
                              tuple(sections["perp"]["osc"])),
        loss_scale=loss_scale,
    )


def _parse_float(value: str, name: str, lineno: int, key: str) -> float:
    try:
        return float(value)
    except ValueError:
        raise MaterialFileError(f"{name}:{lineno}: {key} expects a number, got {value!r}") from None


def load_material(path) -> MaterialModel:
    """Load and validate a material parameter file; errors carry line numbers."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    return _parse_material_text(text, str(path))


# load-time validation window for the packaged hBN defaults (upper band)
_HBN_UPPER_EDGE_TARGET = (1380.0, 1620.0)
_HBN_EDGE_TOL = 20.0


@functools.cache
def default_hbn() -> MaterialModel:
    """Packaged hBN model, validated against the expected upper-band edges.

    Built and validated once per process; the model is frozen, so every
    caller can share it (loss_scaled returns a new model).
    """
    text = resources.files("hyperpol.data").joinpath("hbn_lorentz.txt").read_text()
    model = _parse_material_text(text, "hbn_lorentz.txt")
    band = upper_band(model)
    lo_t, hi_t = _HBN_UPPER_EDGE_TARGET
    if abs(band.omega_low - lo_t) > _HBN_EDGE_TOL or abs(band.omega_high - hi_t) > _HBN_EDGE_TOL:
        raise MaterialFileError(
            "hbn_lorentz.txt: upper hyperbolic band "
            f"[{band.omega_low:.1f}, {band.omega_high:.1f}] cm^-1 is outside the "
            f"validation window [{lo_t}+-{_HBN_EDGE_TOL}, {hi_t}+-{_HBN_EDGE_TOL}]")
    return model
