"""Tooling checks on the public surface: every cenizk module imports on
its own (so an import cycle fails here), every name it exports resolves,
no module imports a `_`-prefixed name from a sibling, every definition
is read by the package, the acceptance suite or perfbench's workloads
(a name-based reachability check with an allowlist), every function
reads every parameter it takes, and every function the layered
benchmark traces (perfbench/spans.py TARGETS) exists where the tracer
looks for it, so a rename or deletion fails here rather than in
`perfbench/run.py --trace 1`."""

import ast
import importlib
import importlib.util
import os
import pkgutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import cenizk

MODULES = sorted(m.name for m in pkgutil.iter_modules(cenizk.__path__))
REPO_ROOT = Path(__file__).resolve().parents[1]
SPANS_PATH = REPO_ROOT / "perfbench" / "spans.py"
PACKAGE_ROOT = Path(cenizk.__file__).resolve().parents[1]


def _traced_targets():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return [(layer, qual) for layer, quals in spans.TARGETS.items() for qual in quals]


@pytest.mark.parametrize("name", MODULES)
def test_module_imports_alone(name):
    # a fresh interpreter has no other cenizk module loaded, so a cycle
    # through this module cannot be hidden by an earlier import
    path = os.pathsep.join(filter(None, [str(PACKAGE_ROOT), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", f"import cenizk.{name}"],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"cenizk.{name}")
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert not missing, f"cenizk.{name}.__all__ lists undefined names {missing}"


@pytest.mark.parametrize("name", MODULES)
def test_no_private_name_imported_from_a_sibling(name):
    # a private name is its module's own business: a sibling that needs
    # it should get a public name instead
    tree = ast.parse((PACKAGE_ROOT / "cenizk" / f"{name}.py").read_text(encoding="utf-8"))
    private = [
        f"{node.module or '.'}.{alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("cenizk"))
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert not private, f"cenizk.{name} imports private names {private}"


# the files whose reads count as uses: the package itself (cli included),
# the acceptance suite, and the benchmark's workloads
READERS = [PACKAGE_ROOT / "cenizk" / f"{name}.py" for name in MODULES] + [
    REPO_ROOT / "tests" / "test_acceptance.py",
    REPO_ROOT / "perfbench" / "workloads.py",
]

# names nothing in READERS reads, each kept for the reason given
ALLOWLIST = {
    "attacks.commit_bits": "in perfbench/spans.py's trace list only; goes when the benchmark drops it",
    "state.drop_last_register": "in perfbench/spans.py's trace list only; goes when the benchmark drops it",
    "hbnizk.useful_probability": "the closed form the decoder tests check; ROADMAP item 5 gives it a caller",
}


def _definitions():
    """(module.qualname, node) for every top-level function, class and
    constant of every module, and every method or property of its
    classes; dunders excluded."""
    for name in MODULES:
        for node in ast.parse((PACKAGE_ROOT / "cenizk" / f"{name}.py").read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                yield f"{name}.{node.name}", node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("__"):
                        yield f"{name}.{node.name}.{item.name}", item
            targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
            for target in targets:
                if isinstance(target, ast.Name) and not target.id.startswith("__"):
                    yield f"{name}.{target.id}", node


def _reads(tree) -> Counter:
    """How often each name is read in tree, as a bare name or an attribute."""
    return Counter(
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(tree)
        if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load)
    )


def _unread_names() -> set[str]:
    """Every definition whose last name READERS never read outside the
    definition itself. The match is by name alone, so a read of any
    attribute or variable with the same name counts as a use."""
    reads = sum((_reads(ast.parse(path.read_text(encoding="utf-8"))) for path in READERS), Counter())
    unread = set()
    for qual, node in _definitions():
        last = qual.rsplit(".", 1)[1]
        if reads[last] <= _reads(node)[last]:
            unread.add(qual)
    return unread


def test_every_definition_is_read():
    unread = _unread_names() - ALLOWLIST.keys()
    assert not unread, f"defined but read by nothing in the package, the acceptance suite or perfbench: {sorted(unread)}"


def test_allowlist_names_only_unread_definitions():
    defined = {qual for qual, _ in _definitions()}
    unread = _unread_names()
    stale = {qual: "no such definition" if qual not in defined else "read" for qual in ALLOWLIST if qual not in unread}
    assert not stale, f"allowlist entries to remove: {stale}"


@pytest.mark.parametrize("layer,qual", _traced_targets())
def test_traced_target_exists(layer, qual):
    obj = importlib.import_module(f"cenizk.{layer}")
    for part in qual.split("."):
        obj = getattr(obj, part)
    assert callable(obj)


# parameters whose place a signature fixes, read or not: a dispatch
# table's session body takes (params, seed, stop) and its experiment
# (trials, params, seed); a protocol algorithm takes the CRS, and the
# forged-proof prover the honest prover's whole input
UNREAD_PARAM_EXEMPT = {
    ("_run_dry_session", "stop"),
    ("_deletion_honest_td", "trials"),
    ("_deletion_leaking_td", "trials"),
    ("_attack", "params"),
    ("toy_prove", "crs"),
    ("toy_verify", "crs"),
    ("crs_verify", "crs"),
    ("forged_proof_prover", "crs"),
    ("forged_proof_prover", "network"),
    ("forged_proof_prover", "x"),
}


def _unread_params(name: str, private: bool) -> list[tuple[str, str]]:
    """(function, parameter) for every parameter of a function of module
    name, `_`-prefixed or public as private says, that the function's
    body (nested functions included) never reads."""
    path = PACKAGE_ROOT / "cenizk" / f"{name}.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    unread = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) or node.name.startswith("_") != private:
            continue
        a = node.args
        params = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg] if p is not None]
        body = (n for stmt in node.body for n in ast.walk(stmt))
        read = {n.id for n in body if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        unread += [(node.name, p) for p in params if p not in read and (node.name, p) not in UNREAD_PARAM_EXEMPT]
    return unread


@pytest.mark.parametrize("name", MODULES)
def test_private_functions_read_every_parameter(name):
    unread = _unread_params(name, private=True)
    assert not unread, f"cenizk.{name}: parameters never read {unread}"


@pytest.mark.parametrize("name", MODULES)
def test_public_functions_read_every_parameter(name):
    unread = _unread_params(name, private=False)
    assert not unread, f"cenizk.{name}: parameters never read {unread}"
