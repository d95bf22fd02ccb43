"""torsor-lab: finite skeletons of torsor classification.

Finite groups and G-sets, equivariant integer lattices, group cohomology
(abelian and nonabelian), torsor twisting, inverse-limit lim^1 verdicts,
and the number-theoretic certificates that feed them.
"""

__version__ = "0.1.0"

# Convention flag: the quotient-of-Serre-group character lattice is cut out
# by n + (involution)n = 0.  Reports carry this so the choice is auditable.
SBAR_CONDITION = 0

from .groups import (  # noqa: E402,F401
    FiniteGroup,
    GammaGroup,
    GroupHom,
    center,
    centralizer,
    class_fiber,
    conjugacy_classes,
    cyclic_group,
    dihedral_group,
    direct_product,
    heisenberg_group,
    quotient,
    semidirect_product,
    symmetric_group,
)
from .gsets import (  # noqa: E402,F401
    GSet,
    coset_gset,
    conjugation_twist,
    descent_orbit_decomposition,
    gset_iso,
    orbits,
)
from .lattices import (  # noqa: E402,F401
    LatticeMap,
    ZGLattice,
    equivariant_sublattice,
    exactness_report,
    induced_lattice,
    is_equivariant_iso,
    is_exact,
    permutation_lattice,
    smith_normal_form,
)
from .cohomology import (  # noqa: E402,F401
    CrossedHom,
    FiniteModule,
    h0,
    h1_abelian,
    h1_nonabelian,
    lim1_obstruction,
    shapiro_check,
    twist_group,
    twist_lattice,
)
from .torsors import (  # noqa: E402,F401
    TorsorRep,
    contracted_product,
    inner_twist,
    relative_h1,
    verify_twist_bijection,
)
from .invsys import (  # noqa: E402,F401
    ConstantEndo,
    ExplicitFinite,
    NormTower,
    Product,
    SubgroupChain,
    lim1_classify,
    lim1_truncated,
    lim_truncated,
    ml_check,
    six_term_check,
    truncate,
)
from .numtheory import (  # noqa: E402,F401
    AbelianFieldDatum,
    NumberFieldDatum,
    SplittingType,
    abelian_split,
    dedekind_split,
    factor_mod_p,
    norm_image_valuation,
    norm_tower_certificate,
    scholz_reichardt_skeleton,
    tame_local_norm_index,
)
from .serre import (  # noqa: E402,F401
    CMGaloisDatum,
    TowerRecipe,
    block_h1_vanishing,
    build_serre,
    cm_type_basis,
    conjugation_block_decomposition,
    scenario_report,
    serre_tower_recipe,
    twist_serre,
    verify_serre_sequence,
)
