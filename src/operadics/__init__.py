"""
operadics: a computational calculus of permutation and braid operads,
finite operads acted on by groups of symmetries, and the free-algebra
monads they generate.

The package is organized bottom-up:

- ``permutations``: the symmetric groups with block sums, block lifts,
  operadic substitution, and grid transpositions.
- ``braids``: braid words, handle reduction for the word problem,
  cabling, substitution, and minimal positive lifts of permutations.
- ``action_operads``: the shared interface of groups-that-form-an-operad
  (trivial, symmetric, braid) plus its law battery.
- ``g_operads``: finite operads acted on by such a group family — law
  checkers, builders, JSON documents, and the composition product.
- ``free_monad``: free-algebra classes, monad laws, and the pullback
  criterion deciding when the monad preserves that structure.
- ``pseudocomm``: the interchange families of grid-transposition lifts,
  verified over permutations and certified over braids.
- ``cli``: the ``operadics`` command.

The most commonly used names are re-exported here.
"""

from .action_operads import (
    ActionOperad,
    check_axioms,
    instance_braid,
    instance_symmetric,
    instance_trivial,
)
from .braids import (
    BraidWord,
    braid_identity,
    cable,
    equal,
    format_word,
    handle_reduce,
    is_minimal_positive,
    is_positive,
    is_trivial,
    mu_br,
    parse_word,
    permutation_braid,
    render_ascii,
    t_negative,
    t_positive,
    underlying_permutation,
)
from .free_monad import (
    ArityOverflowError,
    FreeAlgebra,
    FreeAlgebraClass,
    cartesian_condition,
    check_monad_laws,
    free_algebra,
    mult_mu,
    pullback_witness_test,
    unit_eta,
)
from .g_operads import (
    AlgebraStructure,
    FiniteGCollection,
    FiniteGOperad,
    check_algebra,
    check_collection,
    check_operad,
    compose_collections,
    endomorphism_operad,
    enumerate_algebra_structures,
    enumerate_operad_maps,
    load_operad,
    operad_ass,
    operad_comm,
    unit_collection,
    write_operad_document,
)
from .permutations import (
    Permutation,
    act_on_list,
    block_lift,
    block_sum,
    compose,
    format_permutation,
    identity,
    inversions,
    mu_sigma,
    parse_permutation,
    tau,
)
from .pseudocomm import (
    Orientation,
    TFamily,
    braid_theorem_report,
    resolve_orientation,
    symmetric_theorem_report,
    t_family_braid_negative,
    t_family_braid_positive,
    t_family_symmetric,
    verify_interchange,
    verify_interchange_dual,
    verify_symmetry,
)
from .reporting import CheckResult, Report

__version__ = "0.1.0"

__all__ = [
    "ActionOperad",
    "AlgebraStructure",
    "ArityOverflowError",
    "BraidWord",
    "CheckResult",
    "FiniteGCollection",
    "FiniteGOperad",
    "FreeAlgebra",
    "FreeAlgebraClass",
    "Orientation",
    "Permutation",
    "Report",
    "TFamily",
    "act_on_list",
    "block_lift",
    "block_sum",
    "braid_identity",
    "braid_theorem_report",
    "cable",
    "cartesian_condition",
    "check_algebra",
    "check_axioms",
    "check_collection",
    "check_monad_laws",
    "check_operad",
    "compose",
    "compose_collections",
    "endomorphism_operad",
    "enumerate_algebra_structures",
    "enumerate_operad_maps",
    "equal",
    "format_permutation",
    "format_word",
    "free_algebra",
    "handle_reduce",
    "identity",
    "instance_braid",
    "instance_symmetric",
    "instance_trivial",
    "inversions",
    "is_minimal_positive",
    "is_positive",
    "is_trivial",
    "load_operad",
    "mu_br",
    "mu_sigma",
    "mult_mu",
    "operad_ass",
    "operad_comm",
    "parse_permutation",
    "parse_word",
    "permutation_braid",
    "pullback_witness_test",
    "render_ascii",
    "resolve_orientation",
    "symmetric_theorem_report",
    "t_family_braid_negative",
    "t_family_braid_positive",
    "t_family_symmetric",
    "t_negative",
    "t_positive",
    "tau",
    "underlying_permutation",
    "unit_collection",
    "unit_eta",
    "verify_interchange",
    "verify_interchange_dual",
    "verify_symmetry",
    "write_operad_document",
    "__version__",
]
