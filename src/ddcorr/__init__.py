"""ddcorr: multi-dimensional dynamical-decoupling spectroscopy of spin clusters.

Simulates the coherence of a two-level sensor spin running 1D/2D/3D CPMG
sequences against d-level target clusters, evaluates the matching
closed-form dip expressions and filter functions, classifies transition
correlations from measured dip minima, and budgets measurement time.

The API lives in the submodules (analytic, cli, exact, planner, scan,
sequence, spin_model); the package itself defines only __version__.
"""

__version__ = "0.1.0"
