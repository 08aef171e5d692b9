"""Spatiotemporal-tube control barrier functions for STL tasks.

Pipeline: parse an STL task, synthesize a spherical tube whose interior
trajectories all satisfy the task (scenario optimization with a Lipschitz
generalization certificate), convert the tube into a time-varying barrier,
and run a QP-filtered closed loop that stays inside it.
"""

from .basis import BernsteinBasis
from .cbf import (
    Barrier,
    ControlStep,
    InfeasibleStepError,
    barrier_gradients,
    barrier_value,
    min_norm_input,
    solve_safety_qp,
)
from .config import ConfigError, ScenarioConfig, load_config, save_config
from .dynamics import DiffDrive, OmniRobot, make_dynamics
from .simulate import (
    RunReport,
    SimulationError,
    read_trajectory_signal,
    run_closed_loop,
    write_trajectory_log,
)
from .stl import (
    TRUE,
    AffineHalfspace,
    Always,
    And,
    BallNorm2,
    BoxInfNorm,
    Eventually,
    Formula,
    FormulaSyntaxError,
    IntervalError,
    Not,
    Or,
    Predicate,
    RobustnessReport,
    Signal,
    UndefinedPredicateError,
    Until,
    horizon,
    parse,
    robustness,
    robustness_batch,
    robustness_lipschitz,
)
from .synthesis import (
    Cover,
    CoverError,
    CoverSpec,
    SOPInstance,
    SolverSettings,
    SynthesisResult,
    build_cover,
    recheck_constraints,
    solve_sop,
    sop_objective,
    warm_start,
)
from .tube import (
    LipschitzInfo,
    Tube,
    boundary_point,
    combine_constants,
    load_tube,
    save_tube,
    sphere_map,
    sphere_map_many,
    tube_from_record,
    tube_lipschitz,
    tube_to_record,
)

__version__ = "0.1.0"
