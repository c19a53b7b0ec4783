#!/usr/bin/env python3
"""Run the built-in spectral scenarios and collect norm series + snapshots.

Each scenario goes into its own subdirectory of --out with a norms.csv and
snapshot files at t = 0, T/2, T.  Prints a compact monotonicity summary of
the three tracked sup norms.
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from epriccati.fieldio import write_norm_csv, write_run_snapshots  # noqa: E402
from epriccati.simulate import EXAMPLE_NAMES, example_config, run_example  # noqa: E402
from epriccati.spectral import Grid  # noqa: E402


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="pde_runs")
    ap.add_argument("--examples", nargs="+", default=list(EXAMPLE_NAMES))
    ap.add_argument("--n", type=int, default=128)
    ap.add_argument("--t-end", type=float, default=10.0)
    args = ap.parse_args()

    for name in args.examples:
        cfg = example_config(
            name,
            grid=Grid(N=args.n, L=10.0),
            t_end=args.t_end,
            snapshot_times=(0.0, args.t_end / 2.0, args.t_end),
        )
        result = run_example(cfg)
        out_dir = Path(args.out) / f"example_{name.replace('.', '_')}"
        out_dir.mkdir(parents=True, exist_ok=True)
        write_run_snapshots(out_dir, result)
        with open(out_dir / "norms.csv", "w") as fh:
            write_norm_csv(fh, result.norms)
        ns = result.norms
        trend = {
            label: "non-increasing" if np.all(np.diff(series) <= 1e-12) else "increasing somewhere"
            for label, series in (
                ("rho_sup", ns.rho_sup),
                ("phi_sup", ns.phi_sup),
                ("dphi_dx_sup", ns.dphi_dx_sup),
            )
        }
        print(f"example {name}: {trend} -> {out_dir}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
