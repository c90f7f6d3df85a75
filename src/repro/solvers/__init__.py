"""Points-to solvers over the CLA database.

* :class:`PreTransitiveSolver` — the paper's contribution (§5): a
  pre-transitive constraint graph with cached, cycle-eliminating
  reachability and demand loading.
* :class:`TransitiveSolver` — the classic transitively-closed worklist
  Andersen baseline the paper compares against.  Its int-bitmask core is
  §4's bit-vector implementation.
* :class:`SteensgaardSolver` — the unification-based analysis (§3/§4).
* :class:`OneLevelFlowSolver` — Das's hybrid "unification with directional
  assignments" (§3/§6's strongest unification-based competitor).

All consume a :class:`~repro.cla.store.ConstraintStore` and produce a
:class:`PointsToResult`.
"""

from .base import BaseSolver, FunPtrLinker, PointsToResult, SolverStats
from .onelevel import OneLevelFlowSolver
from .pretransitive import PreTransitiveSolver
from .shard import RegionPlan, plan_regions, solve_retracted
from .steensgaard import SteensgaardSolver
from .transitive import TransitiveSolver

SOLVERS = {
    "pretransitive": PreTransitiveSolver,
    "transitive": TransitiveSolver,
    "steensgaard": SteensgaardSolver,
    "onelevel": OneLevelFlowSolver,
}

__all__ = [
    "BaseSolver", "FunPtrLinker", "PointsToResult", "SolverStats",
    "OneLevelFlowSolver", "PreTransitiveSolver", "SteensgaardSolver",
    "TransitiveSolver", "SOLVERS",
    "RegionPlan", "plan_regions", "solve_retracted",
]
