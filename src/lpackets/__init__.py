"""Exact combinatorics of discrete-series L-packets for U(r, s).

Everything is computed in exact rational arithmetic: packet enumeration
by block shuffles of a regular infinitesimal character, lowest K-type
recovery, classical U(m) -> U(m-1) branching, and the descent calculus
for restriction to U(r-1, s) with its isomorphism/zero dichotomy.
"""

from .branching import (
    BranchConstituent,
    KRestriction,
    branch,
    interlaces,
    restrict_ktype,
    restriction_contains,
    weyl_dim,
)
from .cartan import (
    Signature,
    Weight,
    hodge_parameter,
    pairing,
    rho,
    rho_tilde,
    weight_from_strings,
    weight_to_strings,
)
from .descent import (
    ChainStep,
    PlacedParameter,
    RestrictedParameter,
    RestrictionClass,
    classify_restriction,
    descent_chain,
    expected_fraction,
    isomorphism_fraction,
    min_entry_in_a,
    min_entry_in_a_everywhere,
    noncompact_support_matches,
    restrict_parameter,
    restriction_is_discrete_series,
    well_spaced,
    well_spaced_everywhere,
)
from .minimal_ktype import (
    MinimalKTypeVerdict,
    ThetaParabolic,
    minimal_ktype_test,
    regularity_margin,
    shifted_weight,
    theta_parabolic,
)
from .packets import (
    HCParameter,
    InfinitesimalCharacter,
    PacketMember,
    blattner,
    coherent_parameter,
    degree,
    dual_parameter,
    enumerate_packet,
    extremes,
    infinitesimal_character,
    shuffle_length,
)

__version__ = "0.4.0"
