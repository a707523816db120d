"""Independent sets in planar triangle-free graphs.

Constructive toolkit around the (n+1)/3 bound: the extremal family and its
diamond replacements, five reducible configurations with verified lifting,
a lower-bound solver with an exact oracle, and an instance-level
discharging engine.
"""
from .plane_graph import (Face, GraphError, InternalInvariantError, PlaneGraph, Rotation,
                          embed_edges, parse, serialize)
from .configurations import Configuration, NoConfigurationError, find_any, interferes
from .extremal import (Diamond, DiamondStep, MembershipTrace, avoiding_independent_set,
                       diamond_lift, diamond_project, diamond_reduce, find_diamonds,
                       generate_member, is_member, member_max_independent_set,
                       path_diamond_replacement, replace_diamond_with_path)
from .reductions import ReductionStep, lift, reduce
from .solver import SolveResult, check_theorem_bounds, exact_alpha, solve
from .discharging import (AuditReport, ChargeLedger, DangerousCycle, apply_rules,
                          audit, dangerous_cycles, initial_charges)

__all__ = [name for name in dir() if not name.startswith("_")]
