"""dualbench: exact duality-measure experiments over F2^n and protocol
compilation of low-rank boolean matrices.

The package re-exports its public names lazily (PEP 562): `import dualbench`
loads no submodule, and `dualbench.X` loads only the module that defines X.
"""

import importlib

# public name -> the submodule that defines it
_EXPORTS = {
    **dict.fromkeys(
        ("BsgResult", "DoublingReport", "PfrResult", "bsg_extract", "doubling_report",
         "pfr_extract"),
        "adcomb",
    ),
    **dict.fromkeys(
        ("DualPair", "PipelineTrace", "SequenceState", "base_case_dual", "exact_dual_oracle",
         "find_dual_pair", "greedy_dual_pair", "markov_restrict", "mono_via_dual", "next_set",
         "pull_back", "run_sequence", "small_span_dual"),
        "approxdual",
    ),
    **dict.fromkeys(
        ("F2Set", "SpectrumResult", "duality_measure", "span", "spectrum", "sumset", "wht"),
        "f2",
    ),
    **dict.fromkeys(
        ("BoolMatrix", "Factorization", "MatrixStats", "SubmatrixView", "dedup",
         "discrepancy", "factorize_f2", "find_biased_submatrix", "max_mono_exact", "rank_f2",
         "rank_real", "stats"),
        "matrix",
    ),
    **dict.fromkeys(
        ("CostReport", "ProtocolTree", "build_protocol", "leaf_recurrence_audit", "simulate",
         "verify"),
        "protocol",
    ),
}

__all__ = sorted(_EXPORTS)
__version__ = "0.1.0"


def __getattr__(name):
    # Called only for a name the package does not bind, which includes a
    # submodule not yet imported: `from . import runners` asks here first,
    # so any other name raises, and nothing is loaded for it.  The value is
    # returned, not bound here, so each lookup reads the defining module's
    # current binding.
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__():
    return sorted({*globals(), *_EXPORTS})
