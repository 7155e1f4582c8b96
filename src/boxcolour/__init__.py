"""Acyclic edge colouring of cartesian graph products.

An acyclic edge colouring is proper and leaves no cycle on just two
colours; the least number of colours needed is the acyclic chromatic
index.  This package composes acyclic colourings of two factors into one
of their cartesian product within the sum of the factor palettes, and
ships the exact solver, verifier, and generators needed to check that
claim on small graphs.
"""

from .colouring import (
    BichromaticCycle,
    ColourPalette,
    EdgeColouring,
    NotProper,
    Violation,
    check_acyclic,
    check_proper_vertex,
    colours_used,
)
from .compose import compose, compose_many, hypercube_colouring
from .graphs import (
    Graph,
    adjacency,
    cartesian_product,
    classify,
    complete,
    cycle,
    grid,
    hypercube,
    is_connected,
    path,
)
from .solver import AciResult, SearchBudget, exact_aci, greedy_acyclic, lower_bound
from .vertex_colouring import brooks_bound, brooks_colouring

__all__ = [
    "AciResult",
    "BichromaticCycle",
    "ColourPalette",
    "EdgeColouring",
    "Graph",
    "NotProper",
    "SearchBudget",
    "Violation",
    "adjacency",
    "brooks_bound",
    "brooks_colouring",
    "cartesian_product",
    "check_acyclic",
    "check_proper_vertex",
    "classify",
    "colours_used",
    "complete",
    "compose",
    "compose_many",
    "cycle",
    "exact_aci",
    "greedy_acyclic",
    "grid",
    "hypercube",
    "hypercube_colouring",
    "is_connected",
    "lower_bound",
    "path",
]
