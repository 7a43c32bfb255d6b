"""Guards on what other code reaches: the benchmark tracer, its recorded
report digests and ``__all__``."""

import ast
import json
import pkgutil
import sys
from pathlib import Path

import pytest

import hopflike
from hopflike import symfunc

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
import tracer  # noqa: E402  (standard library only)
import workloads  # noqa: E402


def test_every_traced_name_resolves():
    for _, module, attr, _ in tracer.LAYERS + tracer.MEMOS:
        owner, name = tracer._resolve(module, attr)
        assert callable(getattr(owner, name, None)), f"{module}.{attr}"
    for _, module, attr, _ in tracer.MEMOS:
        owner, name = tracer._resolve(module, attr)
        assert hasattr(getattr(owner, name), "cache_info"), f"{module}.{attr}"
    assert "entries" in symfunc.transition_cache().stats()


def test_public_names_are_pinned():
    assert sorted(hopflike.__all__) == [
        "SymElement", "check_bidegree12", "check_hopf_compat",
        "check_relation_family", "check_square_condition",
        "check_worked_examples", "count_matrices", "explore_mixed_bidegree",
        "h_mult", "h_to_m", "hall_inner", "m_to_h", "schur",
        "verify_simplicial_identities",
    ]
    for name in hopflike.__all__:
        assert hasattr(hopflike, name), name


def test_realization_surface_is_pinned():
    # what a second realization has to provide: its basis, its coproduct
    # table (_splittings, which the sweeps' coded tables and every merge
    # read), its step hook and the word compiler; the towers live on the
    # sweep's coded tables, not here
    own = {n for n in vars(symfunc.PshRealization) if not n.startswith("__")}
    assert own == {
        "tensor_basis", "_basis_labels", "_splittings", "_action", "realize_word",
    }


def names_in(node) -> set:
    """Every name, attribute and imported name that ``node`` mentions."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.alias):
            names.add(sub.name)
    return names


def test_sweeps_read_the_coproduct_through_the_realization():
    # the sweeps' tables come from one realization: hopfverify names no
    # module-level coproduct, the coded tables read none, and the step
    # tables are built only as the coded tables' own
    src = ROOT / "src" / "hopflike"
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(src.glob("*.py"))}
    bypass = {"_comult_table", "comult_splittings", "_comult_action"}
    assert names_in(trees["hopfverify.py"]) & bypass == set()
    (coded,) = [
        node for node in trees["symfunc.py"].body
        if isinstance(node, ast.ClassDef) and node.name == "_CodedTables"
    ]
    assert "_comult_table" not in names_in(coded)
    (init,) = [
        node for node in coded.body
        if isinstance(node, ast.FunctionDef) and node.name == "__init__"
    ]

    def builds(node):
        return [
            sub for sub in ast.walk(node)
            if isinstance(sub, ast.Call) and "_StepTables" in names_in(sub.func)
        ]

    assert [call for tree in trees.values() for call in builds(tree)] == builds(init)
    assert len(builds(init)) == 1


def test_root_exports_what_callers_read():
    # The scripts and the benchmark read the package root, and tier-1 runs
    # neither, so a name missing from it would show only as their failure.
    # Conversely, a root name that none of them reads belongs in its module.
    submodules = {m.name for m in pkgutil.iter_modules(hopflike.__path__)}
    callers = [
        *sorted((ROOT / "scripts").glob("*.py")),
        ROOT / "perfbench" / "workloads.py",
        ROOT / "tests" / "test_acceptance.py",
    ]
    read = set()
    for path in callers:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in ("hk", "hopflike")
            ):
                read.add((path.name, node.attr))
            elif isinstance(node, ast.ImportFrom) and node.module == "hopflike":
                read.update((path.name, alias.name) for alias in node.names)
    assert read, "no caller reads the package root"
    missing = sorted(
        (where, name) for where, name in read
        if not name.startswith("__")
        and name not in submodules
        and name not in hopflike.__all__
    )
    assert missing == []
    assert set(hopflike.__all__) - {name for _, name in read} == set()


@pytest.mark.parametrize("name", [*workloads.CLI_SWEEPS, "worked-8"])
def test_reports_match_recorded_digests(name):
    # "the same reports" means byte-identical JSON: these are the recorded
    # bytes' SHA-256, for the sweeps fast enough to run on every test run.
    # The worked sweep has no command, so its report is read from the API.
    digests = json.loads(workloads.DIGESTS.read_text(encoding="utf-8"))
    if name == "worked-8":
        out = workloads.worked_report_bytes()
    else:
        status, out = workloads.run_cli(workloads.CLI_SWEEPS[name])
        assert status == (1 if name == workloads.PER_K else 0)
    assert workloads.digest(out) == digests[name]
