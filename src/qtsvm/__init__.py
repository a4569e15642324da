"""Robust kernel-free quadratic-surface twin SVM toolkit.

Import each name from its submodule (``qtsvm.data``, ``qtsvm.solver_cl1``,
...); importing the package itself loads nothing else.
"""

__version__ = "0.1.0"
