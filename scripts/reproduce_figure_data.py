#!/usr/bin/env python3
"""Regenerate the reference data set from the shipped hBN scenario.

Runs every CLI subcommand against scripts/hbn_scenario.yaml in this one
process and collects the CSVs under out/ (no plotting; the CSVs are the
deliverable):

    permittivity    dielectric tensor curves across both phonon bands
    bands           hyperbolic band edges and centers
    fieldmap        conical emission intensity of a point dipole
    foci            waveguide focal structure
    resonance       |J + i Gamma| map over (frequency, aspect) + locus overlay
    coupling-sweep  J12, Gamma11 vs radius at the tracked super-resonance
    design-window   spacer feasibility window h* << h <= h_c
    gate            iSWAP fidelity report, trajectory, process matrix
    evolve          free exchange trajectory

Usage: python scripts/reproduce_figure_data.py [--out PREFIX]

The package is imported from the checkout's src/ when it is not installed.
The exit code is the last non-zero subcommand exit code (0 when all pass).
"""

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCENARIO = ROOT / "scripts" / "hbn_scenario.yaml"
COMMANDS = ["permittivity", "bands", "fieldmap", "foci", "resonance",
            "coupling-sweep", "design-window", "gate", "evolve"]

try:
    from hyperpol import cli
except ImportError:
    sys.path.insert(0, str(ROOT / "src"))
    from hyperpol import cli


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", default="out/hbn", help="output prefix")
    args = ap.parse_args()

    rc_total = 0
    for cmd in COMMANDS:
        print(f"== {cmd}", flush=True)
        rc = cli.main(["--config", str(SCENARIO), "--out-prefix", args.out, cmd])
        if rc != 0:
            print(f"   exited with {rc}")
            rc_total = rc
    print(f"\nCSV outputs under {Path(args.out).parent}/")
    return rc_total


if __name__ == "__main__":
    sys.exit(main())
