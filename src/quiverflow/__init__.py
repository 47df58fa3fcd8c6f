"""Moment-map flows, critical-point classification and Hecke correspondences
for representations of quivers."""

from .quiver import (
    Quiver,
    QuiverReport,
    canonical_stability,
    check_quiver,
    crawley_boevey_frame,
    degree_rank_slope,
    double_quiver,
    handsaw_roles,
    handsaw_to_quiver,
    reverse_quiver,
    validate_quiver,
)
from .rep import (
    Representation,
    direct_sum,
    embed_rep,
    energy,
    grad_energy,
    group_act,
    hessian_apply,
    hessian_matrix,
    inf_action,
    inf_action_adjoint,
    moment_complex,
    moment_real,
    random_rep,
    restrict_rep,
    rep_distance,
)
from .flow import FlowOptions, FlowResult, flow, trajectory_csv
from .critical import (
    ClassifyTols,
    CriticalProfile,
    classify_critical,
    hessian_spectrum,
    negative_slice_basis,
    stratum_codim,
)
from .correspond import (
    FlowLinePair,
    Intertwiner,
    LagrangianReport,
    affine_project,
    flowline_to_hecke,
    handsaw_adjoint,
    handsaw_constraint,
    handsaw_hecke_check,
    hecke_check,
    hecke_to_flowline,
    intertwiner_space,
    is_isomorphic,
    lagrangian_check,
    snap_rep,
)
from .oracles import fd_gradient, fd_hessian, thin_hn_type
from .selfcheck import run_selfcheck

__version__ = "0.1.0"

__all__ = [
    "Quiver", "QuiverReport", "canonical_stability", "check_quiver", "crawley_boevey_frame",
    "degree_rank_slope", "double_quiver", "handsaw_roles", "handsaw_to_quiver",
    "reverse_quiver", "validate_quiver",
    "Representation", "direct_sum", "embed_rep", "energy", "grad_energy",
    "group_act", "hessian_apply", "hessian_matrix", "inf_action", "inf_action_adjoint",
    "moment_complex", "moment_real", "random_rep", "restrict_rep", "rep_distance",
    "FlowOptions", "FlowResult", "flow", "trajectory_csv",
    "ClassifyTols", "CriticalProfile", "classify_critical", "hessian_spectrum",
    "negative_slice_basis", "stratum_codim",
    "FlowLinePair", "Intertwiner", "LagrangianReport", "affine_project", "flowline_to_hecke",
    "handsaw_adjoint", "handsaw_constraint", "handsaw_hecke_check", "hecke_check",
    "hecke_to_flowline", "intertwiner_space", "is_isomorphic", "lagrangian_check",
    "snap_rep",
    "fd_gradient", "fd_hessian", "thin_hn_type",
    "run_selfcheck",
]
