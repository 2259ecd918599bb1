"""Exact lifting of polynomial ODE systems to finite-dimensional linear ones.

The toolkit decides a graph-theoretic sufficient condition (constant cycle
weights on the dependency graph), constructs an explicit linear lift
(A, D, observables) when it holds, and certifies the result both symbolically
(exact rational identity) and numerically (shared-grid RK4 comparison).
"""

from .depgraph import (
    ConditionReport,
    SccDecomposition,
    SkeletonGraph,
    Wdg,
    build_skeleton,
    build_wdg,
    check_condition,
    enumerate_cycle_products,
    scc_decomposition,
    walk_weight,
)
from .document import document_to_lift, lift_to_document, load_lift, save_lift
from .errors import (
    ChainCapError,
    ConditionFailedError,
    DecompositionViolatedError,
    DimensionMismatchError,
    DivergenceError,
    NonPolynomialError,
    ParseError,
    SchemaError,
    SizeGuardError,
    SlinError,
    SpaceMismatchError,
)
from .lift import (
    Observable,
    SuperLinearization,
    XumamaCertificate,
    superlinearize,
    xumama_check,
)
from .poly import NEG_INF, Polynomial, VariableSpace, lie_derivative
from .sysparse import PolySystem, parse_polynomial, parse_system, render_system
from .verify import Trajectory, VerifyReport, simulate, verify_numeric, verify_symbolic

__version__ = "0.1.0"

__all__ = [
    "ChainCapError",
    "ConditionFailedError",
    "ConditionReport",
    "DecompositionViolatedError",
    "DimensionMismatchError",
    "DivergenceError",
    "NEG_INF",
    "NonPolynomialError",
    "Observable",
    "ParseError",
    "PolySystem",
    "Polynomial",
    "SccDecomposition",
    "SchemaError",
    "SizeGuardError",
    "SkeletonGraph",
    "SlinError",
    "SpaceMismatchError",
    "SuperLinearization",
    "Trajectory",
    "VariableSpace",
    "VerifyReport",
    "Wdg",
    "XumamaCertificate",
    "build_skeleton",
    "build_wdg",
    "check_condition",
    "document_to_lift",
    "enumerate_cycle_products",
    "lie_derivative",
    "lift_to_document",
    "load_lift",
    "parse_polynomial",
    "parse_system",
    "render_system",
    "save_lift",
    "scc_decomposition",
    "simulate",
    "superlinearize",
    "verify_numeric",
    "verify_symbolic",
    "walk_weight",
    "xumama_check",
]
