"""Belief-function fusion over the super-power set.

The package builds the Boolean algebra generated by a small frame of
hypotheses (union, intersection, complement), assigns basic belief
masses to its elements, and combines sources of evidence under a
catalog of rules: conjunctive and disjunctive baselines, classical
normalised combination, ignorance/open-world conflict handling,
union-escalation, proportional conflict redistribution, and a
scenario-driven engine that routes each partial conflict according to
what is known about the pair behind it.  Fuzzy T-norm-valued variants,
a neutrosophic (T, I, F) logic core and a grayscale image
denoising/segmentation pipeline round out the toolkit.
"""

from . import errors
from .algebra import (
    AtomSet,
    EmptinessModel,
    Frame,
    SetOpKind,
    World,
    atoms_of,
    build_frame,
    is_model_empty,
    parse_expr,
    set_op,
    superpower_cardinality,
)
from .mass import (
    Bba,
    NormClass,
    classify,
    conjunctive_intervals,
    discount,
    from_json,
    make_bba,
    normalize,
    vacuous,
)
from .rules import (
    ConflictLedger,
    LedgerEntry,
    RuleId,
    combine,
    conjunctive,
    disjunctive,
    exclusive_disjunctive,
    fuse_many,
    mixed,
    murphy_average,
    pcr5,
    product_terms,
)
from .uft import (
    Annotation,
    RedistContext,
    Relationship,
    Reliability,
    ReliabilityKind,
    TransferRecord,
    UftOptions,
    UftResult,
    UftScenario,
    fusion_inputs_from_json,
    redistribute,
    reroute_mass,
    scenario_from_json,
    uft_fuse,
    uft_fuse_dynamic,
)
from .tcn import (
    DUAL_CONORM,
    StarOp,
    TConorm,
    TNorm,
    TransferPolicy,
    UfrConfig,
    pcr5v2_tn,
    tcn_conjunctive,
    tcn_pcr5_original,
    tconorm,
    tn_family,
    tnorm,
    ufr_combine,
)
from .neutro import (
    NS_ONE,
    NS_ZERO,
    NormPolicy,
    NsClass,
    NsRecipe,
    NsTriple,
    NsVector,
    c3_tif,
    c_itf,
    c_tif,
    classify_ns,
    d3_fti,
    d_fti,
    d_fti_pessimistic,
    klaw3,
    klaw_mixed,
    klaw_same,
    klaw_term_count,
    n_conorm,
    n_norm,
    norm_target,
    ns_and_interval,
    ns_combine_graded,
    ns_contains,
    ns_leq,
    ns_negate,
    ns_normalize,
    ns_not,
    ns_or_interval,
    vector_norm,
)
from .nimage import (
    DenoiseResult,
    GrayImage,
    NsImage,
    SFunctionParams,
    SegmentResult,
    denoise,
    denoise_detailed,
    fit_abc,
    gamma_median,
    load_pgm,
    ns_entropy,
    ns_to_gray,
    s_function,
    save_pgm,
    segment,
    sfunction_ns,
    to_ns,
)

__version__ = "0.1.0"

__all__ = [
    "errors",
    # algebra
    "AtomSet", "EmptinessModel", "Frame", "SetOpKind", "World",
    "atoms_of", "build_frame", "is_model_empty", "parse_expr", "set_op",
    "superpower_cardinality",
    # mass
    "Bba", "NormClass", "classify", "conjunctive_intervals", "discount",
    "from_json", "make_bba", "normalize", "vacuous",
    # rules
    "ConflictLedger", "LedgerEntry", "RuleId", "combine", "conjunctive",
    "disjunctive", "exclusive_disjunctive", "fuse_many", "mixed",
    "murphy_average", "pcr5", "product_terms",
    # uft
    "Annotation", "RedistContext", "Relationship", "Reliability",
    "ReliabilityKind", "TransferRecord", "UftOptions", "UftResult",
    "UftScenario", "fusion_inputs_from_json", "redistribute",
    "reroute_mass", "scenario_from_json", "uft_fuse", "uft_fuse_dynamic",
    # tcn
    "DUAL_CONORM", "StarOp", "TConorm", "TNorm", "TransferPolicy",
    "UfrConfig", "pcr5v2_tn", "tcn_conjunctive", "tcn_pcr5_original",
    "tconorm", "tn_family", "tnorm", "ufr_combine",
    # neutro
    "NS_ONE", "NS_ZERO", "NormPolicy", "NsClass", "NsRecipe", "NsTriple",
    "NsVector", "c3_tif", "c_itf", "c_tif", "classify_ns", "d3_fti",
    "d_fti", "d_fti_pessimistic", "klaw3", "klaw_mixed", "klaw_same",
    "klaw_term_count", "n_conorm", "n_norm", "norm_target",
    "ns_and_interval", "ns_combine_graded", "ns_contains", "ns_leq",
    "ns_negate", "ns_normalize", "ns_not", "ns_or_interval", "vector_norm",
    # nimage
    "DenoiseResult", "GrayImage", "NsImage", "SFunctionParams",
    "SegmentResult", "denoise", "denoise_detailed", "fit_abc",
    "gamma_median", "load_pgm", "ns_entropy", "ns_to_gray", "s_function",
    "save_pgm", "segment", "sfunction_ns", "to_ns",
]
