"""graypol: a rewriting engine for presented semistrict 3-categories.

Normalizes cells of free precategories, enumerates critical branchings,
certifies termination through reduction orders, and performs Squier
completion to produce coherence certificates.

The package namespace is lazy (PEP 562): ``import graypol`` loads only
``cells`` and ``shuffle``, and each public name below, and each
submodule named in ``_EXPORTS``, imports its module on first use and is
then bound here.  So ``import graypol.catalog`` costs only the catalog
and what it imports, and ``from graypol import normalize2`` loads
``coherence`` and the modules it needs.  ``shuffle`` stays eager because
the benchmark's span tracer looks it up in ``sys.modules`` (see the
comment at its import).
"""

# Eager: bench/spans.py's Tracer.install reads sys.modules["graypol.shuffle"]
# to wrap interp_edge, and no benchmark workload imports shuffle, so a lazy
# shuffle makes a traced run fail with KeyError: 'graypol.shuffle'.
from . import shuffle  # noqa: F401

# module: the public names the package re-exports from it
_EXPORTS = {
    "cells": (
        "CellError",
        "CompositionError",
        "Interchanger",
        "InternalError",
        "OneCell",
        "OpGen",
        "QInterchanger",
        "Signature",
        "SignatureError",
        "Step",
        "ThreeCell",
        "TwoCell",
        "TypingError",
        "Whisker2",
        "dim",
        "length",
    ),
    "expressions": (
        "EGen",
        "EId",
        "ELowL",
        "ELowR",
        "ETop",
        "eval_cell",
        "measure",
        "normal_form_expr",
        "normalize_expression",
        "reducts",
        "typecheck",
    ),
    "presentation": ("GrayPresentation", "QMode", "Tile", "validate"),
    "shuffle": (
        "ShuffleEdge",
        "big_x",
        "interp_edge",
        "interp_vertex",
        "inv",
        "lindex",
        "path_exists",
        "shuffle_graph",
        "sigma_path",
    ),
    "rewriting": (
        "Branching",
        "Critical",
        "CriticalBranching",
        "Independent",
        "Natural",
        "NonMinimal",
        "Trivial",
        "UnsupportedError",
        "branching_key",
        "classify",
        "enumerate_critical",
        "find_redexes",
    ),
    "termination": (
        "AffineMap",
        "Cospan",
        "LinearInterpretation",
        "SelfDualMeasure",
        "TerminationCertificate",
        "TerminationRefused",
        "certify_termination",
        "check_interpretation_decrease",
        "check_positive_intnorm",
        "check_q_system",
        "cospan_of",
        "eval_interpretation",
        "interchange_norm",
        "is_connected",
        "measure_less",
        "selfdual_measure",
        "seq_less",
    ),
    "coherence": (
        "CoherenceReport",
        "JoinRecord",
        "NonTermination",
        "Zigzag",
        "join_branching",
        "normalize2",
        "squier_completion",
        "tile_covers",
        "zz_all_reduced_forms",
        "zz_compose",
        "zz_identity",
        "zz_invert",
        "zz_is_reduced",
        "zz_of",
        "zz_simplify",
    ),
    "catalog": ("BUILTIN_NAMES", "BuiltinEntry", "get_builtin"),
    "textio": (
        "ParseError",
        "parse_cell",
        "parse_presentation",
        "render_cell",
        "serialize_presentation",
    ),
}

__all__ = [name for names in _EXPORTS.values() for name in names]

__version__ = "0.1.0"


def __getattr__(name):
    """Import the module that owns ``name`` (or the submodule ``name``), bind it here and return it."""
    import importlib

    if name in _EXPORTS:
        value = importlib.import_module(f"{__name__}.{name}")
    else:
        owner = next((module for module, names in _EXPORTS.items() if name in names), None)
        if owner is None:
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(f"{__name__}.{owner}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS, *__all__})
