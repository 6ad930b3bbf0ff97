"""Skeletal signatures of finite group actions on closed surfaces.

Exact Riemann-Hurwitz arithmetic, (h, r)-plane gap geometry, explicit finite
groups, exhaustive generating-vector search, and figure emission.  This
namespace defines only ``__version__``: import the submodule you need.
"""

__version__ = "0.1.0"
