"""Risk-averse dynamic programming and receding-horizon control for a
two-tank stormwater harvesting and green-roof irrigation system.

Modules
-------
plant      exact (non-smooth) two-tank dynamics and flow laws
smooth     differentiable surrogate of the plant: smooth field and Jacobian
linearize  operating-point model and the condensed MPC QP
riskdp     entropic-risk finite-horizon DP solver with oracle helpers
control    step-function interfaces of the three controllers
sim        weather handling, closed-loop simulation, comparison grids
cli        command-line entry points (simulate, dp solve, compare, lint)
"""

from .control import MpcConfig, dp_step, mpc_step, onoff_step
from .linearize import (
    CondensedHorizon,
    LinearModel,
    MpcSolution,
    NearSingularSystem,
    OperatingPoint,
    condense,
    condensed_cost,
    linearize_at,
    predict,
    solve_mpc_qp,
)
from .plant import PlantParams, f_rhs, q_drain, q_out, q_pump, q_pump_max, step
from .riskdp import (
    BruteForceResult,
    CostSpec,
    DisturbanceModel,
    Grid,
    PolicyTable,
    RiskParams,
    ValueTable,
    brute_force_optimal,
    evaluate_policy_W,
    lipschitz_regularize,
    risk_functional,
    solve,
    tracking_cost,
)
from .sim import (
    ControllerSpec,
    Scenario,
    Trace,
    WeatherSeries,
    compare,
    cumulative_deviation,
    load_weather_csv,
    make_controller,
    run_scenario,
    standard_initial_states,
    synth_storm,
    wet_12h,
    write_comparison_csv,
)
from .smooth import (
    SmoothParams,
    f_eps_rhs,
    q_drain_eps,
    q_out_eps,
    q_pump_eps,
    sigmoid_gate,
    smooth_sqrt,
)

__version__ = "0.1.0"
