"""Exact tools for line- and hyperplane-stochastic arrays.

Membership and vertex certification for two polytope families over
n x ... x n arrays, explicit fractional-vertex constructions, exact
counting bounds, and a rational simplex optimizer, all over exact
rational arithmetic.
"""

from stocharray.core import (
    Array3,
    PolytopeSpec,
    from_json_dict,
    is_member,
    to_json_dict,
    uniform_array,
)

__version__ = "0.1.0"

__all__ = [
    "Array3",
    "PolytopeSpec",
    "from_json_dict",
    "is_member",
    "to_json_dict",
    "uniform_array",
    "__version__",
]
