"""Modular Terwilliger algebras of association schemes over GF(p).

Exact computation of the algebra T(x) generated by the adjacency matrices
and dual idempotents of an association scheme over a prime field, the
primary module W_0 with its valuation filtration and composition factors,
the ideals B0/B1, the Jacobson radical, the annihilator of W_0, and the
suite of equivalent p'-valenced characterizations.
"""

from . import analysis, characterize, errors, ffmat, fixtures, oracles, primary, scheme, talg
from .analysis import (
    AnalysisReport,
    Artifacts,
    SchemeArtifacts,
    analyze,
    compute_artifacts,
    report_to_json,
    scheme_artifacts,
)
from .characterize import CharReport, CorollaryReport, check_corollary, check_equivalences
from .ffmat import FieldCtx, Subspace, field_ctx
from .primary import (
    ClosureDigraph,
    CompositionReport,
    GeneratorAction,
    build_primary,
    closure_digraph,
    composition_factors,
    filtration,
    is_selfcontragredient,
    uniserial_check,
    verify_Ml_iso,
)
from .scheme import (
    RelationTable,
    SchemeData,
    Strata,
    gen_cyclic,
    gen_hamming,
    gen_thin,
    parse_scheme,
    serialize_scheme,
    strata,
    validate_axioms,
)
from .talg import (
    AlgebraBasis,
    TalgContext,
    annihilator_W0,
    b0_b1,
    build_context,
    generate_algebra,
    radical,
    triple_product,
)

__version__ = "0.1.0"
