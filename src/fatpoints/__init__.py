"""Exact-arithmetic toolkit for point configurations in the projective
plane: fat point schemes, their Hilbert functions by exact rank, the
reduction-vector sandwich bounds, and verification of the line-count
identities satisfied by k-configurations.

The package root exports nothing: import each name from its module
(``fatpoints.hilbert.hilbert_value``, ``fatpoints.verify.verify_main``,
``fatpoints.kconfig.generate_generic``, ...).  The command line is the
``fatpoints`` console script, or ``python -m fatpoints``."""
