"""torsor-lab: finite skeletons of torsor classification.

Finite groups and G-sets, equivariant integer lattices, group cohomology
(abelian and nonabelian), torsor twisting, inverse-limit lim^1 verdicts,
and the number-theoretic certificates that feed them.
"""

__version__ = "0.1.0"

# Convention flag: the quotient-of-Serre-group character lattice is cut out
# by n + (involution)n = 0.  CLI reports carry it under `conventions`, so the
# choice is auditable.
SBAR_CONDITION = 0
