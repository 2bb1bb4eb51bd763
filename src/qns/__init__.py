"""Teacher-student quadratic networks: Gram flows, Stiefel SGD, scaling laws.

Each public name is imported from the module that defines it, e.g.
``from qns.flow import FlowParams``; a module's ``__all__`` lists its names.
Importing the package loads none of its modules.
"""

__version__ = "0.1.0"
