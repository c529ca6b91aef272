"""Reachability guard: every top-level function and class of ``src/imforge``,
and every public method of such a class, is referenced by name or attribute
from code that is itself reached, or is allowlisted below with the reason it
is kept.

Reached code starts at module-level statements (tables, ``__main__``
blocks) and the allowlisted definitions, and grows by every definition whose
name it mentions; a class brings along its fields and private methods.
Names match by spelling only, so an attribute ``x.to_json`` reaches every
``to_json``.  Import statements do not count, so a re-export in
``__init__`` reaches nothing.

Import guard: every name an import binds in a module of ``src/imforge`` or
``tests`` is used by that module's code.  ``__init__`` re-exports and
imports under ``if TYPE_CHECKING:`` are exempt.

Draw guard: no module of ``src/imforge`` imports CPython's ``random`` or
calls a ``Generator`` draw method (``choice``, ``sample``,
``standard_normal``, ``random``) or ``default_rng``, except in the
functions allowlisted below.  NumPy keeps only a bit generator's raw stream
stable across releases, and CPython only ``random()``'s sequence, so every
draw that reaches a certificate reads raw PCG64 words or the nibble's
SplitMix64 counter.  Calls match by name only, whatever their receiver.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "imforge"
TESTS = Path(__file__).resolve().parent

ALLOWLIST = {
    "certify.verify_adjuster": "criterion 10 verifies chained adjusters with it",
    "gadgets.build_1_adjuster": "criterion 10 builds adjusters with it",
    "gadgets.chain_adjusters": "criterion 10 chains adjusters with it",
    "immersion_medium.ConnectionLedger.check_invariants":
        "criterion 7 checks the connection ledger with it",
    "nibble.Matching3.achieved_fraction": "criterion 4 measures the matching with it",
    "certify.verify_unit": "test oracle for units",
    "graphs.GraphView.materialize": "test oracle for views",
    "graphs.Graph.edge_set": "perfbench `Host` rebuilds graph shells from it",
    "nibble.Hypergraph3.n_triples": "perfbench's trace counts nibble.triples with it",
    "util.np_rng": "perfbench/workloads.py draws the bench's bipartite host with it",
}

DRAW_CALLS = {"choice", "sample", "standard_normal", "random", "default_rng"}
DRAW_ALLOWLIST = {"util.np_rng": ALLOWLIST["util.np_rng"]}


def _names(nodes) -> set[str]:
    out = set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                out.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                out.add(sub.attr)
    return out


def _is_public_method(node) -> bool:
    return isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
        and not node.name.startswith("_")


def scan(src: Path):
    """Definitions as {qualified name: (name, names its code mentions)},
    and the names mentioned by module-level code."""
    defs: dict[str, tuple[str, set[str]]] = {}
    top_level: set[str] = set()
    for path in sorted(src.glob("*.py")):
        module = path.stem
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defs[f"{module}.{node.name}"] = (node.name, _names([node]))
            elif isinstance(node, ast.ClassDef):
                methods = [m for m in node.body if _is_public_method(m)]
                rest = [m for m in node.body if not _is_public_method(m)]
                body = _names(rest + node.bases + node.decorator_list + node.keywords)
                defs[f"{module}.{node.name}"] = (node.name, body)
                for m in methods:
                    defs[f"{module}.{node.name}.{m.name}"] = (m.name, _names([m]))
            elif not isinstance(node, (ast.Import, ast.ImportFrom)):
                top_level |= _names([node])
    return defs, top_level


def unreached(defs, top_level, roots) -> set[str]:
    """Definitions not reached from module-level code and the roots."""
    live = set(roots) & set(defs)
    mentioned = set(top_level)
    for qual in live:
        mentioned |= defs[qual][1]
    grew = True
    while grew:
        grew = False
        for qual, (name, body) in defs.items():
            if qual not in live and name in mentioned:
                live.add(qual)
                mentioned |= body
                grew = True
    return set(defs) - live


DEFS, TOP_LEVEL = scan(SRC)


def test_every_definition_is_reached_or_allowlisted():
    assert sorted(unreached(DEFS, TOP_LEVEL, ALLOWLIST)) == []


@pytest.mark.parametrize("qual", sorted(ALLOWLIST))
def test_allowlist_entry_is_needed(qual):
    # the name still exists, and nothing but the allowlist keeps it
    assert qual in DEFS, f"{qual} no longer exists"
    assert qual in unreached(DEFS, TOP_LEVEL, set(ALLOWLIST) - {qual})


def test_guard_catches_an_unreached_helper(tmp_path):
    # a helper only a test would call, and a chain hanging off it
    for path in SRC.glob("*.py"):
        (tmp_path / path.name).write_text(path.read_text(encoding="utf-8"), encoding="utf-8")
    extra = "\n\ndef orphan_helper(x):\n    return orphan_leaf(x)\n\n\ndef orphan_leaf(x):\n    return x\n"
    with open(tmp_path / "graphs.py", "a", encoding="utf-8") as fh:
        fh.write(extra)
    defs, top_level = scan(tmp_path)
    assert unreached(defs, top_level, ALLOWLIST) == {"graphs.orphan_helper",
                                                     "graphs.orphan_leaf"}


def unused_imports(src: Path) -> list[str]:
    """``module:line name`` for each name an import binds that the rest of
    its module never mentions as a plain name."""
    out = []
    for path in sorted(src.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        exempt = {id(sub) for node in ast.walk(tree)
                  if isinstance(node, ast.If) and "TYPE_CHECKING" in _names([node.test])
                  for sub in ast.walk(node)}
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)) or id(node) in exempt \
                    or getattr(node, "module", None) == "__future__":
                continue
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                if name not in used:
                    out.append(f"{path.stem}:{node.lineno} {name}")
    return out


def test_every_import_is_used():
    assert unused_imports(SRC) == []


def test_every_test_import_is_used():
    assert unused_imports(TESTS) == []


def test_import_guard_catches_an_unused_import(tmp_path):
    for path in SRC.glob("*.py"):
        (tmp_path / path.name).write_text(path.read_text(encoding="utf-8"), encoding="utf-8")
    with open(tmp_path / "graphs.py", "a", encoding="utf-8") as fh:
        fh.write("\nif TYPE_CHECKING:\n    from .expanders import Unit\n")
        fh.write("\n\ndef helper():\n    import os.path\n    from typing import Optional as Opt\n")
        fh.write("    return TYPE_CHECKING\n")
    lines = len((tmp_path / "graphs.py").read_text(encoding="utf-8").splitlines())
    assert unused_imports(tmp_path) == [f"graphs:{lines - 2} os", f"graphs:{lines - 1} Opt"]


def library_draws(src: Path, allow=DRAW_ALLOWLIST) -> list[str]:
    """``module:line name`` for each import of ``random`` and each call named
    in ``DRAW_CALLS``, outside the top-level functions in ``allow``."""
    out = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        exempt = {id(sub) for node in tree.body
                  if isinstance(node, ast.FunctionDef) and f"{path.stem}.{node.name}" in allow
                  for sub in ast.walk(node)}
        for node in ast.walk(tree):
            if id(node) in exempt:
                continue
            if isinstance(node, ast.Import):
                hits = ["random" for alias in node.names if alias.name.split(".")[0] == "random"]
            elif isinstance(node, ast.ImportFrom):
                hits = ["random"] if node.module == "random" and not node.level else []
            elif isinstance(node, ast.Call):
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                hits = [name] if name in DRAW_CALLS else []
            else:
                continue
            out += [f"{path.stem}:{node.lineno} {name}" for name in hits]
    return out


def test_no_certificate_draw_uses_a_library_algorithm():
    assert library_draws(SRC) == []


@pytest.mark.parametrize("qual", sorted(DRAW_ALLOWLIST))
def test_draw_allowlist_entry_is_needed(qual):
    module, _ = qual.split(".")
    assert any(hit.startswith(f"{module}:")
               for hit in library_draws(SRC, set(DRAW_ALLOWLIST) - {qual}))


def test_draw_guard_catches_each_library_draw(tmp_path):
    for path in SRC.glob("*.py"):
        (tmp_path / path.name).write_text(path.read_text(encoding="utf-8"), encoding="utf-8")
    lines = len((tmp_path / "graphs.py").read_text(encoding="utf-8").splitlines())
    with open(tmp_path / "graphs.py", "a", encoding="utf-8") as fh:
        fh.write("\nimport random\nfrom random import shuffle\n")
        fh.write("\n\ndef helper(rng, pool):\n    rng.choice(pool)\n    random.sample(pool, 2)\n")
        fh.write("    rng.standard_normal(3)\n    rng.random()\n    default_rng(5)\n")
        fh.write("    return np.random.PCG64(5).random_raw(2)\n")
    assert library_draws(tmp_path) == [
        f"graphs:{lines + 2} random", f"graphs:{lines + 3} random",
        *(f"graphs:{lines + k} {name}" for k, name in
          [(7, "choice"), (8, "sample"), (9, "standard_normal"), (10, "random"),
           (11, "default_rng")])]
