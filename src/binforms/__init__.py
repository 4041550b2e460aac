"""Invariant theory of binary forms: transvectants, covariant catalogs,
Poincare series, nullcone tests, basic-invariant discovery, and
parameter-system certification.

The package root exports only `__version__`; import everything else from its
submodule (`binforms.pipeline`, `binforms.catalog`, ...), so that a command
loads only the modules it runs.
"""

__version__ = "0.1.0"
