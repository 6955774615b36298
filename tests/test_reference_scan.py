"""Every definition under ``src/`` is named by the program that runs it.

A function, class or method that no file in ``src/``, ``bench/``,
``benchmarks/`` or ``examples/`` names — outside its own body and the
package ``__init__`` re-exports — is reached by tests alone: code the
program carries for nobody.  Such code is deleted, or, when a test uses
it as an oracle for program code, moved into ``tests/``.  The few
oracles and state readers kept beside the code they check are listed in
:data:`KEPT_FOR_TESTS`, each with the tests that read it.

A reference is a name or an attribute in the syntax tree, or a string
constant that is a (dotted) identifier (``bench/spans.py`` names the
methods it wraps in strings, ``getattr`` a field); comments, docstrings
and prose in strings name nothing.  A
reference inside a definition of :data:`KEPT_FOR_TESTS` does not count:
what only test-kept code calls is test-kept too.  A definition whose
name is shared with a live reference still passes, so the scan can only
under-report.
"""

import ast
import os
import re

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
SRC = os.path.join(ROOT, "src")
READERS = ("src", "bench", "benchmarks", "examples")

#: Definitions only tests name, kept in ``src/``: oracles a test holds
#: program code to, and readers of state a test observes through them.
KEPT_FOR_TESTS = {
    # Every journaled field of a record in order: crash-recover identity
    # (test_lifeguard_recovery, test_journal_fold, test_defenses), and
    # the canonical form it puts each field in.
    "repro.control.record.RepairRecord.fingerprint",
    "repro.control.record._canonical",
    # Compaction-aware count of one kind: test_journal_fold and
    # test_control_journal check the service's arrival cursor with it.
    "repro.control.journal.RepairJournal.count_of",
    # One outage's entries (test_control_guard, test_control_journal,
    # test_lifeguard_recovery, test_lifeguard_edge_cases).
    "repro.control.journal.RepairJournal.for_outage",
    # The bus digest recomputed from a read-back log: test_cli,
    # test_obs_cli and CI's service job hold the printed digest to it.
    "repro.obs.export.event_log_digest",
    # Adj-RIB-In rows and damping state, read by the BGP tests
    # (test_bgp_decision, test_bgp_damping, test_bgp_materialize,
    # test_bgp_policy_resolved, test_bgp_policy_origin).
    "repro.bgp.rib.RouteTable.route_from",
    "repro.bgp.speaker.BGPSpeaker.is_suppressed",
    # The routers realizing one AS link (test_topology_routers,
    # test_dataplane_equivalence).
    "repro.topology.routers.RouterTopology.as_link_routers",
    # Gives an AS a second prefix: how ten test files build a
    # multi-prefix origin.
    "repro.topology.as_graph.ASGraph.assign_prefix",
    # A journal's entries of one kind (test_control_journal,
    # test_defenses, test_lifeguard_edge_cases, test_lifeguard_recovery);
    # count_of counts through it.
    "repro.control.journal.RepairJournal.of_event",
    # The one door a built engine's policy changes by: it re-resolves
    # the speaker's config and empties the delta gate's cached verdict
    # (bgp/delta.py), which an assignment would leave stale
    # (test_bgp_delta, test_bgp_policy_resolved, test_defenses,
    # test_journal_fold, test_obs_trace; test_imports bans the
    # assignment).
    "repro.bgp.speaker.BGPSpeaker.reconfigure",
}

_DOTTED = re.compile(r"[A-Za-z_][A-Za-z0-9_]*(\.[A-Za-z_][A-Za-z0-9_]*)*")


def _python_files(top):
    for dirpath, dirnames, filenames in os.walk(top):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                yield os.path.join(dirpath, name)


def _module_name(path):
    rel = os.path.relpath(path, SRC)[: -len(".py")].split(os.sep)
    if rel[-1] == "__init__":
        rel = rel[:-1]
    return ".".join(rel)


def _definitions(tree, prefix):
    """``(dotted name, node)`` of every module-level function and class
    and of every method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield f"{prefix}.{node.name}", node
        elif isinstance(node, ast.ClassDef):
            yield f"{prefix}.{node.name}", node
            for child in node.body:
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield f"{prefix}.{node.name}.{child.name}", child


def _span(node):
    first = min(
        [node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())]
    )
    return first, node.end_lineno


def _reexport_lines(tree):
    """Lines of a package ``__init__``'s imports and ``__all__``."""
    lines = set()
    for node in tree.body:
        reexport = isinstance(node, (ast.Import, ast.ImportFrom)) or (
            isinstance(node, ast.Assign)
            and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets
            )
        )
        if reexport:
            lines.update(range(node.lineno, node.end_lineno + 1))
    return lines


def _docstrings(tree):
    """The string constants of *tree* that are docstrings."""
    return {
        id(node.body[0].value)
        for node in ast.walk(tree)
        if isinstance(
            node,
            (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef),
        )
        and node.body
        and isinstance(node.body[0], ast.Expr)
        and isinstance(node.body[0].value, ast.Constant)
        and isinstance(node.body[0].value.value, str)
    }


def _references(tree):
    """``(word, line)`` of every name and attribute in *tree*, and of
    each part of a string constant that is a (dotted) identifier."""
    docstrings = _docstrings(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.end_lineno
        elif (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and id(node) not in docstrings
            and _DOTTED.fullmatch(node.value)
        ):
            for word in node.value.split("."):
                yield word, node.lineno


def unnamed_definitions():
    """Dotted names of the ``src/`` definitions no reader names."""
    counts = {}
    defs = []
    for top in READERS:
        for path in _python_files(os.path.join(ROOT, top)):
            with open(path, encoding="utf-8") as handle:
                tree = ast.parse(handle.read())
            skip = set()
            if os.path.basename(path) == "__init__.py" and top == "src":
                skip = _reexport_lines(tree)
            if top == "src":
                for name, node in _definitions(tree, _module_name(path)):
                    defs.append((name, path, _span(node)))
                    if name in KEPT_FOR_TESTS:
                        first, last = _span(node)
                        skip.update(range(first, last + 1))
            for word, lineno in _references(tree):
                if lineno not in skip:
                    counts.setdefault(word, {}).setdefault(path, []).append(
                        lineno
                    )
    unnamed = []
    for name, path, (first, last) in defs:
        word = name.rsplit(".", 1)[-1]
        if word.startswith("__") and word.endswith("__"):
            continue
        outside = [
            (where, lineno)
            for where, linenos in counts.get(word, {}).items()
            for lineno in linenos
            if where != path or not first <= lineno <= last
        ]
        if not outside:
            unnamed.append(name)
    return sorted(unnamed)


def test_every_src_definition_is_named_by_the_program():
    unnamed = set(unnamed_definitions())
    assert sorted(unnamed - KEPT_FOR_TESTS) == []


def test_the_allowlist_names_only_live_definitions():
    """An allowlisted oracle that the program came to name, or that was
    deleted, leaves the list too."""
    assert KEPT_FOR_TESTS <= set(unnamed_definitions())
