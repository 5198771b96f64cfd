"""What a ``graypol`` process loads: the lazy package namespace resolves
each public name on first use, and the command line imports the engine
module a command runs only when that command runs."""

import json
import os
import subprocess
import sys

import pytest

import graypol

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
ENGINE = {"graypol.rewriting", "graypol.coherence", "graypol.expressions"}

# the names the package re-exported when its import loaded every module
PUBLIC_NAMES = [
    "AffineMap", "BUILTIN_NAMES", "Branching", "BuiltinEntry", "CellError", "CoherenceReport",
    "CompositionError", "Cospan", "Critical", "CriticalBranching", "EGen", "EId", "ELowL", "ELowR",
    "ETop", "GrayPresentation", "Independent", "Interchanger", "InternalError", "JoinRecord",
    "LinearInterpretation", "Natural", "NonMinimal", "NonTermination", "OneCell", "OpGen",
    "ParseError", "QInterchanger", "QMode", "SelfDualMeasure", "ShuffleEdge", "Signature",
    "SignatureError", "Step", "TerminationCertificate", "TerminationRefused", "ThreeCell", "Tile",
    "Trivial", "TwoCell", "TypingError", "UnsupportedError", "Whisker2", "Zigzag", "big_x",
    "branching_key", "certify_termination", "check_interpretation_decrease",
    "check_positive_intnorm", "check_q_system", "classify", "cospan_of", "dim",
    "enumerate_critical", "eval_cell", "eval_interpretation", "find_redexes", "get_builtin",
    "interchange_norm", "interp_edge", "interp_vertex", "inv", "is_connected", "join_branching",
    "length", "lindex", "measure", "measure_less", "normal_form_expr", "normalize2",
    "normalize_expression", "parse_cell", "parse_presentation", "path_exists", "reducts",
    "render_cell", "selfdual_measure", "seq_less", "serialize_presentation", "shuffle_graph",
    "sigma_path", "squier_completion", "tile_covers", "typecheck", "validate",
    "zz_all_reduced_forms", "zz_compose", "zz_identity", "zz_invert", "zz_is_reduced", "zz_of",
    "zz_simplify",
]

# After each command line, the graypol modules loaded so far, in a fresh
# interpreter that imported only ``graypol.cli``.
LOADED_AFTER = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
import graypol.cli
for argv in json.loads(sys.argv[2]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = graypol.cli.main(argv)
    print(json.dumps([code, sorted(m for m in sys.modules if m.startswith("graypol."))]))
"""


def _loaded_after(*argvs):
    done = subprocess.run(
        [sys.executable, "-c", LOADED_AFTER, SRC, json.dumps(argvs)], capture_output=True, text=True, check=True
    )
    return [(code, set(loaded)) for code, loaded in map(json.loads, done.stdout.splitlines())]


@pytest.mark.parametrize("module", ["graypol.catalog", "graypol.cli"])
def test_importing_a_front_module_loads_no_engine_module(module):
    code = f"import json, sys; sys.path.insert(0, sys.argv[1]); import {module}; print(json.dumps(list(sys.modules)))"
    done = subprocess.run([sys.executable, "-c", code, SRC], capture_output=True, text=True, check=True)
    loaded = set(json.loads(done.stdout))
    assert not loaded & ENGINE
    assert {module, "graypol.shuffle"} <= loaded


def test_each_command_loads_only_the_engine_module_it_runs():
    source = "builtin:pseudomonoid"
    steps = _loaded_after(
        ["validate", source],
        ["check-termination", source],
        ["critical-pairs", source],
        ["report", source, "--format", "json", "--max-steps", "30"],
    )
    assert [code for code, _ in steps] == [0, 0, 0, 0]
    (_, validated), (_, checked), (_, paired), (_, reported) = steps
    assert not validated & ENGINE and not checked & ENGINE
    assert paired & ENGINE == {"graypol.rewriting"}
    assert reported & ENGINE == {"graypol.rewriting", "graypol.coherence"}


def test_every_public_name_resolves_to_its_modules_attribute():
    import importlib

    assert sorted(graypol.__all__) == PUBLIC_NAMES
    listed = set(dir(graypol))
    for module, names in graypol._EXPORTS.items():
        owner = importlib.import_module(f"graypol.{module}")
        assert getattr(graypol, module) is owner and module in listed
        for name in names:
            assert getattr(graypol, name) is getattr(owner, name) and name in listed
    star = {}
    exec("from graypol import *", star)
    assert sorted(set(star) - {"__builtins__"}) == PUBLIC_NAMES
    with pytest.raises(AttributeError, match="no_such_name"):
        graypol.no_such_name
