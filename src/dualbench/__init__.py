"""dualbench: exact duality-measure experiments over F2^n and protocol
compilation of low-rank boolean matrices."""

from .adcomb import BsgResult, DoublingReport, PfrResult, bsg_extract, doubling_report, pfr_extract
from .approxdual import (
    DualPair,
    PipelineTrace,
    SequenceState,
    base_case_dual,
    exact_dual_oracle,
    find_dual_pair,
    greedy_dual_pair,
    markov_restrict,
    next_set,
    pull_back,
    run_sequence,
    small_span_dual,
)
from .f2 import (
    F2Set,
    SpectrumResult,
    duality_measure,
    span,
    spectrum,
    sumset,
    wht,
)
from .matrix import (
    BoolMatrix,
    Factorization,
    MatrixStats,
    SubmatrixView,
    dedup,
    discrepancy,
    factorize_f2,
    find_biased_submatrix,
    max_mono_exact,
    rank_f2,
    rank_real,
    stats,
)
from .protocol import (
    CostReport,
    ProtocolTree,
    build_protocol,
    leaf_recurrence_audit,
    mono_via_dual,
    simulate,
    verify,
)

__version__ = "0.1.0"
