"""Command-line front end.

Subcommands::

    classify RHO D        region tag + certification summary as JSON
    simulate-ode          trajectory CSV (t, rho, d) + terminal status
    sweep                 phase-plane grid sweep CSV
    simulate-pde          spectral run: snapshot files + norm-series CSV
    trace                 characteristic tracer CSV with coefficient column

Exit codes form a stable contract: 0 success/certified, 1 usage error,
2 internal or solver failure (out of memory too), 3 not-certified/outside.
stderr gets at most one line, from :func:`main`: the error, else the first
warning.  Output is deterministic; the only varying line is a timestamp
comment suppressible with ``--no-timestamp``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import re
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import config as cfgmod
from .comparison import certify_global
from .errors import AdmissibilityError, ConfigError, EpriccatiError
from .fieldio import (
    fmt,
    write_norm_csv,
    write_run_snapshots,
    write_sweep_csv,
    write_tracer_csv,
    write_trajectory_csv,
)
from .integrate import TerminalStatus, integrate, integrate_batch
from .regions import Region, classify
from .riccati import ep_system
from .simulate import EXAMPLE_NAMES, run_example
from .tracing import trace_characteristic

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INTERNAL = 2
EXIT_OUTSIDE = 3

_STATUS_TEXT = {
    TerminalStatus.REACHED_HORIZON: "global-to-horizon",
    TerminalStatus.BLOW_UP: "blowup",
    TerminalStatus.COEFFICIENT_DOMAIN_END: "coefficient-domain-end",
}


class UsageError(Exception):
    """The command line or the config asks for something the CLI refuses (exit 1)."""


class _Parser(argparse.ArgumentParser):
    """A usage error is one :class:`UsageError` line and exit 1, not argparse's
    usage text and exit 2.

    A negative number, in exponent form as Python prints ``-1e-05`` too, or a
    comma-separated list of numbers that starts with one (``--x0 -1,2``) is a
    value; the pattern argparse sets takes either for an option.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        number = r"(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?"
        self._negative_number_matcher = re.compile(rf"^-{number}(,[-+]?{number})*$")

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def _build_parser() -> _Parser:
    parser = _Parser(prog="epriccati", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", type=Path, help="JSON run configuration")
        p.add_argument("--out", default="-", help="output path ('-' = stdout)")
        p.add_argument("--no-timestamp", action="store_true", help="omit the timestamp comment")

    p = sub.add_parser("classify", help="classify a phase point and try to certify it")
    p.add_argument("rho", type=float)
    p.add_argument("d", type=float)
    p.add_argument("--config", type=Path, help="JSON run configuration")

    add_common(sub.add_parser("simulate-ode", help="integrate one (rho, d) trajectory"))
    add_common(sub.add_parser("sweep", help="classify/integrate a phase-plane grid"))

    p = sub.add_parser("simulate-pde", help="run a spectral scenario")
    p.add_argument("--example", choices=EXAMPLE_NAMES, help="built-in scenario")
    p.add_argument("--config", type=Path, help="JSON run configuration")
    p.add_argument("--out", default=".", help="output directory")
    p.add_argument("--no-timestamp", action="store_true")

    p = sub.add_parser("trace", help="trace a characteristic through a spectral run")
    p.add_argument("--example", choices=EXAMPLE_NAMES, help="built-in scenario")
    p.add_argument("--x0", help="seed point as 'x,y' (overrides config trace.x0)")
    add_common(p)
    return parser


def _load(args) -> dict:
    if getattr(args, "config", None) is not None:
        return cfgmod.load_config(args.config)
    return {}


def _output(target):
    return contextlib.nullcontext(sys.stdout) if target == "-" else open(target, "w")


def cmd_classify(args) -> int:
    if not (math.isfinite(args.rho) and math.isfinite(args.d)):
        raise UsageError("rho and d must be finite numbers")
    doc = _load(args)
    region = classify(args.rho, args.d)
    result = {"region": region.value, "certified": False, "epsilon": None}
    if region != Region.OUTSIDE:
        cert = certify_global(
            args.rho,
            args.d,
            cfgmod.coefficient_model(doc),
            params=cfgmod.physical_params(doc),
            opts=cfgmod.integrator_options(doc),
        )
        if cert is not None:
            result["certified"] = True
            result["epsilon"] = cert.epsilon
    print(json.dumps(result))
    return EXIT_OK if result["certified"] else EXIT_OUTSIDE


def _status_text(traj) -> str:
    if traj.status is TerminalStatus.BLOW_UP:
        lo, hi = traj.blow_up_bracket
        return f"blowup[{fmt(lo)},{fmt(hi)}]"
    return _STATUS_TEXT[traj.status]


def cmd_simulate_ode(args) -> int:
    doc = _load(args)
    if "ode" not in doc:
        raise UsageError("config must provide an 'ode' section")
    opts = cfgmod.integrator_options(doc)
    system = ep_system(cfgmod.coefficient_model(doc), cfgmod.physical_params(doc))
    init = np.array([doc["ode"]["rho0"], doc["ode"]["d0"]])
    traj = integrate(system, init, opts)
    status = _status_text(traj)
    with _output(args.out) as fh:
        write_trajectory_csv(fh, traj, status, timestamp=not args.no_timestamp)
    if args.out != "-":
        print(f"status {status}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    doc = _load(args)
    if "sweep" not in doc:
        raise UsageError("config must provide a 'sweep' section")
    section = doc["sweep"]
    if not (section["rho_min"] < section["rho_max"] and section["d_min"] < section["d_max"]):
        raise UsageError("sweep ranges must be ordered min < max")
    rho_values = np.linspace(section["rho_min"], section["rho_max"], section["rho_count"])
    d_values = np.linspace(section["d_min"], section["d_max"], section["d_count"])

    opts = cfgmod.integrator_options(doc)
    system = ep_system(cfgmod.coefficient_model(doc), cfgmod.physical_params(doc))
    grid_r, grid_d = np.meshgrid(rho_values, d_values, indexing="ij")
    inits = np.stack([grid_r.ravel(), grid_d.ravel()], axis=1)
    result = integrate_batch(system, inits, opts)
    rows = []
    for i, (rho0, d0) in enumerate(inits):
        status = result.terminal_status(i)
        t_mid = None
        if status is TerminalStatus.BLOW_UP:
            t_mid = 0.5 * (result.blow_lo[i] + result.blow_hi[i])
        rows.append((rho0, d0, classify(rho0, d0).value, _STATUS_TEXT[status], t_mid))
    with _output(args.out) as fh:
        write_sweep_csv(fh, rows, timestamp=not args.no_timestamp)
    return EXIT_OK


def _resolve_scenario(args, doc):
    if args.example is not None:
        if "pde" in doc and "example" in doc["pde"]:
            raise UsageError("give the example via --example or config, not both")
        doc = dict(doc)
        doc["pde"] = {**doc.get("pde", {}), "example": args.example}
    elif "pde" not in doc:
        raise UsageError("choose a scenario via --example or a 'pde' config section")
    return cfgmod.scenario_config(doc)


def cmd_simulate_pde(args) -> int:
    result = run_example(_resolve_scenario(args, _load(args)))
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_run_snapshots(out_dir, result)
    with open(out_dir / "norms.csv", "w") as fh:
        write_norm_csv(fh, result.norms, timestamp=not args.no_timestamp)
    ns = result.norms
    print(
        "final norms: "
        f"rho_sup={fmt(ns.rho_sup[-1])} phi_sup={fmt(ns.phi_sup[-1])} "
        f"dphi_dx_sup={fmt(ns.dphi_dx_sup[-1])}"
    )
    return EXIT_OK


def cmd_trace(args) -> int:
    doc = _load(args)
    if args.x0 is not None:
        try:
            x0 = tuple(float(v) for v in args.x0.split(","))
            if len(x0) != 2 or not all(math.isfinite(v) for v in x0):
                raise ValueError
        except ValueError:
            raise UsageError("--x0 must be 'x,y' with finite numbers") from None
    elif "trace" in doc:
        x0 = tuple(doc["trace"]["x0"])
    else:
        raise UsageError("give a seed via --x0 or a 'trace' config section")
    cfg = replace(_resolve_scenario(args, doc), store_history=True)
    if not all(abs(v) <= cfg.grid.L for v in x0):
        raise UsageError(f"x0 {x0} outside the domain [-L, L]^2")
    result = run_example(cfg)
    series = trace_characteristic(result, x0)
    with _output(args.out) as fh:
        write_tracer_csv(fh, series, timestamp=not args.no_timestamp)
    return EXIT_OK


_COMMANDS = {
    "classify": cmd_classify,
    "simulate-ode": cmd_simulate_ode,
    "sweep": cmd_sweep,
    "simulate-pde": cmd_simulate_pde,
    "trace": cmd_trace,
}


def main(argv=None) -> int:
    """Run one command.  The only stderr writer: the error the command failed
    with, else the first warning it raised, as one line."""
    line = None
    with warnings.catch_warnings(record=True) as caught:
        try:
            args = _build_parser().parse_args(argv)
            code = _COMMANDS[args.command](args)
        except SystemExit as exc:  # --help
            code = int(exc.code or 0)
        except ConfigError as exc:
            code, line = EXIT_USAGE, f"config error: {exc}"
        except (UsageError, AdmissibilityError) as exc:
            code, line = EXIT_USAGE, f"error: {exc}"
        except EpriccatiError as exc:
            code, line = EXIT_INTERNAL, f"solver error: {exc}"
        except (OSError, MemoryError) as exc:  # MemoryError: e.g. too large a pde.N
            code, line = EXIT_INTERNAL, f"error: {str(exc) or 'out of memory'}"
    if line is None and caught:
        more = f" (and {len(caught) - 1} more)" if len(caught) > 1 else ""
        line = f"warning: {caught[0].message}{more}"
    if line is not None:
        print(line, file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
