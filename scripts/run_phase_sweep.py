#!/usr/bin/env python3
"""Phase-plane sweep experiment.

Integrates a grid of (rho0, d0) initial points under the unit exponential
envelope coefficient and writes the classification/outcome table.  The
default grid reproduces the certified-region picture: every point classified
inside the union must reach the horizon.
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from epriccati.cli import main as cli_main  # noqa: E402


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="phase_sweep.csv")
    ap.add_argument("--rho", nargs=3, metavar=("MIN", "MAX", "COUNT"), default=["0.01", "1.2", "60"])
    ap.add_argument("--d", nargs=3, metavar=("MIN", "MAX", "COUNT"), default=["-1.0", "2.0", "60"])
    ap.add_argument("--t-end", type=float, default=20.0)
    ap.add_argument("--workers", type=int, default=1)
    args = ap.parse_args()

    import json
    import tempfile

    doc = {
        "sweep": {
            "rho_min": float(args.rho[0]),
            "rho_max": float(args.rho[1]),
            "rho_count": int(args.rho[2]),
            "d_min": float(args.d[0]),
            "d_max": float(args.d[1]),
            "d_count": int(args.d[2]),
        },
        "integrator": {"t_end": args.t_end},
    }
    with tempfile.NamedTemporaryFile("w", suffix=".json", delete=False) as fh:
        json.dump(doc, fh)
        cfg_path = fh.name
    try:
        code = cli_main(
            ["sweep", "--config", cfg_path, "--out", args.out, "--workers", str(args.workers)]
        )
    finally:
        Path(cfg_path).unlink()
    if code == 0:
        print(f"wrote {args.out}")
    return code


if __name__ == "__main__":
    sys.exit(main())
