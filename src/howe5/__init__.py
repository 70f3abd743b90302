"""Genus-5 twisted Howe curves over prime fields.

Construction of genus-5 fibre products whose Jacobian splits into five
twisted Legendre elliptic curves, congruence predicates deciding Serre-bound
attainment over F_p, F_{p^2}, F_{p^3}, brute-force counting oracles, and a
search engine for parameter tuples.  Import each name from the module that
defines it.
"""

__version__ = "0.1.0"
