#!/usr/bin/env python3
"""Coefficient-reconstruction experiment.

Runs the four-bump attractive scenario, traces characteristics from several
seeds, and writes one tracer CSV per seed.  The last column flags whether the
reconstructed coefficient A(t) stayed above the exponential envelope -e^t at
every sample, which is the admissibility condition for certification.
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from epriccati.fieldio import write_tracer_csv  # noqa: E402
from epriccati.simulate import EXAMPLE_NAMES, example_config, run_example  # noqa: E402
from epriccati.spectral import Grid  # noqa: E402
from epriccati.tracing import trace_characteristic  # noqa: E402


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="tracers")
    ap.add_argument("--example", default="5.2", choices=EXAMPLE_NAMES)
    ap.add_argument("--n", type=int, default=128)
    ap.add_argument("--t-end", type=float, default=10.0)
    ap.add_argument(
        "--seeds",
        nargs="+",
        default=["2.5,2.5", "1.0,2.0", "-2.0,1.0"],
        help="seed points as 'x,y'",
    )
    args = ap.parse_args()

    cfg = example_config(
        args.example, grid=Grid(N=args.n, L=10.0), t_end=args.t_end, store_history=True
    )
    result = run_example(cfg)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for seed_text in args.seeds:
        seed = tuple(float(v) for v in seed_text.split(","))
        series = trace_characteristic(result, seed)
        path = out_dir / f"tracer_{seed_text.replace(',', '_').replace('-', 'm')}.csv"
        with open(path, "w") as fh:
            write_tracer_csv(fh, series)
        ok = bool(np.all(series.A >= -np.exp(series.t)))
        print(
            f"seed {seed}: A(0)={series.A[0]:.4g}, min A={series.A.min():.4g}, "
            f"envelope {'respected' if ok else 'VIOLATED'} -> {path}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
