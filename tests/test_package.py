"""The package's public names and the demo scripts that use them."""

import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from conftest import loaded_modules, run_fresh

import locdom

# the recorded public names; a change here is a change of the public API
PUBLIC_NAMES = {
    "__version__",
    # graph
    "UNREACHABLE", "DisconnectedGraphError", "Graph", "TreeProfile", "tree_profile",
    "strong_product", "join", "disjoint_union", "complement", "relabeled",
    # canonical
    "canonical_form", "canonical_labeling", "automorphism_generators", "are_isomorphic",
    # predicates
    "Code", "metric_vector", "is_dominating", "is_locating", "is_mld", "is_ld",
    # solvers
    "InvariantViolation", "ParameterReport", "PARAMETERS", "minimum_code",
    "parameter_satisfies", "domination_number", "metric_dimension", "mld_number",
    "ld_number", "full_report",
    # graph6
    "Graph6Error", "write_graph6", "read_graph6", "read_graph6_stream",
    # enumeration
    "MAX_ENUMERATION_ORDER", "connected_graphs", "connected_graph_count", "tree_classes",
    "trees", "CensusEntry", "CensusReport", "census",
    # families
    "FamilyInstance", "NotRealizableError", "path", "cycle", "complete", "star",
    "complete_bipartite", "wheel", "strong_grid", "spider", "spider_k3", "spider_k4",
    "spider_mixed", "g_eta_construction", "ETA_EXTREMAL_KINDS", "eta_n_minus_2_family",
    "eta_extremal_instances_of_order", "realization_graph", "realization_tree",
    # theorems
    "Verdict", "THEOREM_IDS", "run_theorem", "sweep", "check_inequality_chain",
    "check_eta_bounds", "check_lambda_bounds", "check_tree_bounds",
    "check_eta_equals_lambda_conditions", "check_eta2_membership", "check_lambda_extremal",
    "metric_coordinate_map", "isometric_embedding_check", "king_grid_subgraph_check",
    "verify_realization", "verify_tree_realization",
}

# the public records' fields, in order, and their defaults
RECORDS = {
    "TreeProfile": ("leaves", "supports", "strong_supports"),
    "ParameterReport": ("n", "diameter", "gamma", "beta", "eta", "lambda_", "witness_gamma",
                        "witness_beta", "witness_eta", "witness_lambda"),
    "CensusEntry": ("order", "canonical", "graph6"),
    "CensusReport": ("description", "counts", "total", "representatives"),
    "FamilyInstance": ("graph", "name", "claimed_values", "claimed_codes"),
    "Verdict": ("theorem", "scope", "status", "reason", "counterexamples", "parts"),
}
RECORD_DEFAULTS = {
    "FamilyInstance": {"claimed_values": {}, "claimed_codes": {}},
    "Verdict": {"reason": "", "counterexamples": (), "parts": ()},
}

DEMOS = sorted((Path(__file__).parents[1] / "demos").glob("*.py"))


def test_public_names_are_unique_resolve_and_match_the_record():
    names = locdom.__all__
    assert len(names) == len(set(names))
    assert all(hasattr(locdom, name) for name in names)
    assert set(names) == PUBLIC_NAMES


@pytest.mark.parametrize("name", RECORDS)
def test_records_keep_their_fields_and_defaults(name):
    params = inspect.signature(getattr(locdom, name)).parameters.values()
    assert tuple(p.name for p in params) == RECORDS[name]
    defaults = {p.name: p.default for p in params if p.default is not p.empty}
    assert defaults == RECORD_DEFAULTS.get(name, {})


def test_star_import_binds_exactly_the_public_names():
    script = (
        "import json; before = set(globals()) | {'before'}\n"
        "from locdom import *\n"
        "print(json.dumps(sorted(set(globals()) - before)))"
    )
    assert set(json.loads(run_fresh(script))) == PUBLIC_NAMES


def test_dir_lists_every_public_name():
    listed = json.loads(run_fresh("import json, locdom; print(json.dumps(dir(locdom)))"))
    assert PUBLIC_NAMES <= set(listed)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        locdom.no_such_name


def test_submodule_import_loads_only_what_it_uses():
    loaded = loaded_modules("from locdom import families")
    assert loaded == {"locdom", "locdom.families", "locdom.graph", "locdom.predicates"}


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_runs(script):
    # the demos import the same locdom the tests do
    path = [str(Path(locdom.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    args = ["--fast"] if script.name == "03_small_graph_census.py" else []
    done = subprocess.run([sys.executable, str(script), *args], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
