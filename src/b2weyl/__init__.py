"""Exact affine Weyl orbit engine for quantized blow-up masses.

The package enumerates, classifies and verifies the reflection orbit of
the origin for the three-component affine Toda coupling of type B2(1),
entirely in exact integer/rational arithmetic: the orbit itself, its
eight closed-form families, the rank-one (sinh-Gordon) reduction, the
finite rank-two subsystem tables, and a simulator of the bubbling
mass-combination algebra.  All of the reflection systems involved are
instances of one rank-generic ``ReflectionSystem``.  Each name is
imported from the module that owns it (``from b2weyl.orbit import
OrbitWalk``); ``import b2weyl`` alone loads no other module.
"""

__version__ = "0.1.0"
