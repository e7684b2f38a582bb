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

The package exports the names in each library module's ``__all__``;
``cli`` has none and is imported as ``stormdp.cli``.
"""

from .control import *
from .linearize import *
from .plant import *
from .riskdp import *
from .sim import *
from .smooth import *

__version__ = "0.1.0"
