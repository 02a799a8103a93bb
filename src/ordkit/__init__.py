"""ordkit: exact order-structure correspondences on finite carriers.

Preorders <-> finite topologies, digraph reachability, monomial ideals and
their associated preorders, pattern matrix groups, and the poset <->
Cohen-Macaulay bipartite dictionary, all in exact arithmetic.
"""

from .errors import OrdkitError
from .relations import (
    BubbleDecomposition,
    MonotoneMap,
    Preorder,
    PropertyFlags,
    Relation,
    are_isomorphic,
    bubbles,
    canonical_form,
    check_galois_connection,
    classify,
    closure,
    enumerate_preorders,
    monotone_maps,
    refines,
    relabel,
    up_sets,
)

__all__ = [
    "OrdkitError",
    "Relation",
    "Preorder",
    "PropertyFlags",
    "BubbleDecomposition",
    "MonotoneMap",
    "closure",
    "classify",
    "bubbles",
    "refines",
    "up_sets",
    "enumerate_preorders",
    "canonical_form",
    "are_isomorphic",
    "relabel",
    "monotone_maps",
    "check_galois_connection",
]
