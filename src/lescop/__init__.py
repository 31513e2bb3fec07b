"""Exact-arithmetic invariants of 3-manifolds from surgery presentations.

The package computes Alexander polynomials, the Casson surgery ledger,
Sato-Levine and squared-triple-linking numbers, and the Lescop invariant
from Seifert-matrix data, and cross-checks the Euler characteristic of
instanton Floer homology by two independent routes: closed-form case
formulas and the surgery exact triangle, summed over its leaves.
"""

from types import ModuleType as _ModuleType

from .ring import (
    ONE,
    T,
    Z,
    ZERO,
    HalfLaurent,
    NonSquareError,
    determinant,
    divides_z_power,
    z_power_quotient,
)
from .presentation import (
    FIGURE_EIGHT,
    TREFOIL,
    UNKNOT,
    Component,
    InvalidSpecError,
    RibbonPairSpec,
    SurgeryPresentation,
    UnknownComponentError,
    blow_down,
    build_ribbon_pair,
    build_triple,
    connected_sum_knot,
    drop_component,
    validate,
)
from .invariants import (
    DERIVED,
    PAPER_LITERAL,
    InvalidPresentationError,
    SurgeryChain,
    WrongComponentCountError,
    alexander,
    casson,
    delta2,
    knot_alexander,
    lescop,
    milnor_mu_squared,
    normalized,
    sato_levine,
)
from .floer import (
    BundleSpec,
    ChiReport,
    InadmissibleBundleError,
    NonIntegralChiError,
    bundle_ambiguity,
    chi_closed_form,
    chi_to_lescop,
    chi_via_triangle,
    lescop_to_chi,
    reduced_knot_chi,
    taubes_chi,
)
from .lens import InvalidPError, LensBreakdown, connect_sum_chi, lescop_connect_sum, rep_classes
from .documents import PresentationDocument, parse, parse_chain, serialize, serialize_chain
from .corpus import corpus

__version__ = "0.1.0"

# Every name imported above is public: __all__ is the names bound here,
# without the submodules that those imports bind as package attributes.
__all__ = [name for name, value in globals().items()
           if not name.startswith("_") and not isinstance(value, _ModuleType)]
