"""bcvlab: a numerical laboratory for finite Bernoulli convolutions.

Generate the 2**N-point sets of partial sums ``sum a_n lambda^n`` (floating
point, or exactly for algebraic lambda), study their spacing distributions,
pair correlations and gap statistics against the Poisson model, and analyze
the algebraic side: Pisot/Garsia classification, {0,±1}-polynomial zeros, and
subshift growth rates that control coincidence counts.
"""

__version__ = "0.1.0"

from .errors import DomainError, SizeCapError
from .pointset import (
    Form,
    PointSet,
    ExactPointSet,
    generate,
    generate_exact,
    exact_levels,
    distinct_count,
    distinct_count_profile,
    write_binary,
    read_binary,
    write_csv,
)
from .algebraic import (
    SignedPoly,
    GreedyExpansion,
    AlgebraicClass,
    GrowthReport,
    Verdict,
    parse_poly,
    poly_to_string,
    poly_eval,
    poly_roots,
    classify,
    greedy_expansion,
    nearest_zero_above,
    forbidden_block,
    sft_growth_rate,
    reduce_mod_minpoly,
)
from .stats import (
    SpacingSet,
    CdfModel,
    Histogram,
    CorrelationCurve,
    GapReport,
    GofReport,
    spacings,
    cdf_sqrt_half,
    cdf_empirical,
    rescale,
    histogram,
    poisson_reference,
    poisson_cdf,
    gof_statistics,
    pair_correlation,
    pair_correlation_interval,
    coincidence_rate,
    gaps,
)
from .sweep import (
    SweepConfig,
    SweepReport,
    MinGapScan,
    TransversalityReport,
    AttractingParameter,
    averaged_pair_correlation,
    min_gap_scan,
    sublevel_ratio,
    transversality_check,
    construct_attracting_parameter,
)

__all__ = [name for name in dir() if not name.startswith("_")]
