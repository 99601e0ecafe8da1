"""corrpose: correlation-aware rigid-body pose uncertainty on SE(2)/SE(3).

Poses carry Gaussian perturbations in the Lie algebra (twist space), jointly
correlated sets share one stacked covariance, and the compose / inverse /
between operations propagate the cross-covariance terms that the classical
independent treatment drops.  An Euler-coordinate baseline, an unscented
conversion from coordinate beliefs, a planar pose-graph solver with
twist-space marginal extraction, and Monte-Carlo validation tooling round
out the package.
"""

from .liegroup import (
    Pose,
    SingularLogError,
    adjoint,
    bch_approx,
    curly_hat,
    exp_map,
    exp_many,
    hat,
    inv_many,
    log_many,
    log_map,
    project_rotation,
    skew,
    vee,
)
from .belief import (
    JointPoseBelief,
    NumericalDegeneracyError,
    PosePairBelief,
    UncertainPose,
    between,
    between_ignoring_correlation,
    compose,
    compose_chain,
    inverse,
    marginal_pair,
)
from .mc import (
    InvalidSpecError,
    SampleBatch,
    SamplingError,
    chain_joint,
    chi2_quantile,
    containment_fraction,
    cov_error,
    mc_relative_cov,
    normalized_cov_error,
    sample_chain,
    sample_joint,
)
from .ssc import (
    GimbalLockError,
    SscBelief,
    head_to_tail,
    pose_to_ssc,
    ssc_inverse,
    ssc_to_pose,
    tail_to_tail,
)
from .convert import ConversionError, SigmaPointSingularityError, ut_convert
from .graph import (
    Edge,
    Marginals,
    PoseGraph,
    SolveReport,
    generate_grid_world,
    load_graph,
    solve,
)
from . import convert, experiments, graph, liegroup, mc, ssc  # noqa: F401

__version__ = "0.1.0"

__all__ = [
    "Pose",
    "SingularLogError",
    "adjoint",
    "bch_approx",
    "curly_hat",
    "exp_map",
    "exp_many",
    "hat",
    "inv_many",
    "log_many",
    "log_map",
    "project_rotation",
    "skew",
    "vee",
    "JointPoseBelief",
    "NumericalDegeneracyError",
    "PosePairBelief",
    "UncertainPose",
    "between",
    "between_ignoring_correlation",
    "compose",
    "compose_chain",
    "inverse",
    "marginal_pair",
    "InvalidSpecError",
    "SampleBatch",
    "SamplingError",
    "chain_joint",
    "chi2_quantile",
    "containment_fraction",
    "cov_error",
    "mc_relative_cov",
    "normalized_cov_error",
    "sample_chain",
    "sample_joint",
    "GimbalLockError",
    "SscBelief",
    "head_to_tail",
    "pose_to_ssc",
    "ssc_inverse",
    "ssc_to_pose",
    "tail_to_tail",
    "ConversionError",
    "SigmaPointSingularityError",
    "ut_convert",
    "Edge",
    "Marginals",
    "PoseGraph",
    "SolveReport",
    "generate_grid_world",
    "load_graph",
    "solve",
]
