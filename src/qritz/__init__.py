"""Rayleigh-Ritz projection, refined extraction and convergence diagnostics
for dense quadratic eigenvalue problems ``(lam^2 M + lam D + K) x = 0``.

The library solves small dense problems exactly through the companion
linearization, projects large-in-spirit problems onto orthonormal search
spaces, extracts plain and refined approximate eigenvectors, and computes
the separation-based a-priori bounds that explain when each extraction
converges.  The package root exports nothing: import each name from the
module that defines it (``from qritz.refined import refined_ritz``).
"""
