"""Numerical verification and construction of biharmonic geometry on
product 3-manifolds (surface x line).

The package evaluates the residual systems characterizing biharmonic
isometric immersions of surfaces into, and biharmonic Riemannian
submersions from, charts of the form e^{2q} dt^2 + ds^2 + dz^2, and
constructs new proper biharmonic submersions by integrating the
fiber-angle ODE through its Riccati reduction.
"""

__version__ = "0.1.0"
