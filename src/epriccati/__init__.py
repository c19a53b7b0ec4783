"""Critical-threshold analysis toolkit for the 2D pressureless Euler-Poisson system.

Subpackages cover the closed divergence/density ODE dynamics with a
time-dependent coefficient (:mod:`~epriccati.riccati`,
:mod:`~epriccati.coefficients`), adaptive integration with blow-up reporting
(:mod:`~epriccati.integrate`), the certified phase-plane regions and invariant
space (:mod:`~epriccati.regions`), the monotone comparison certifier
(:mod:`~epriccati.comparison`), a pseudo-spectral PDE solver (periodic, in
a comoving frame that carries the background's whole-plane force) with
characteristic tracing (:mod:`~epriccati.spectral`, :mod:`~epriccati.tracing`),
and a command-line front end (:mod:`~epriccati.cli`).
"""

from .coefficients import (
    CoefficientModel,
    ConstantCoefficient,
    ExponentialEnvelope,
    TabulatedCoefficient,
)
from .comparison import Certificate, CoupledRun, certify_global, d_upper_bound, run_coupled
from .integrate import (
    IntegratorOptions,
    TerminalStatus,
    Trajectory,
    integrate,
    integrate_batch,
    integrate_fixed_oracle,
)
from .regions import (
    Region,
    classify,
    escape,
    in_certified_interior,
    in_omega0,
    s1_flux,
    s2_flux,
)
from .riccati import (
    AuxState3,
    Deriv2,
    Deriv3,
    PhysicalParams,
    State2,
    aux_system,
    ep_system,
    eval_rhs_aux,
    eval_rhs_ep,
)
from .simulate import Blob, NormSeries, ScenarioConfig, example_config, run_example
from .spectral import ComovingFrame, Grid, WorkSet, diagnostics, make_density, step_ep
from .tracing import TracerSeries, trace_characteristic

__version__ = "0.1.0"
