"""Importing the program pulls in the standard library and nothing else.

README promises "Runtime dependencies: none"; the benchmark VM has numpy
installed and most CI jobs do not, so an optional import on the way in
makes them measure different programs (it once cost 151 ms of a 395 ms
``import repro.service`` and 16 MiB of RSS).  CI's ``bench-smoke`` job
installs numpy and runs this file before its workloads, so the check can
fail there too.  A fresh interpreter, because this process has long
since imported whatever pytest's plugins wanted.

The second check is a source scan of the same promise's other half: what
the program is handed from outside is arguments, and no environment
variable.  A third scan keeps one door shut: a speaker resolves its
config once, so nothing assigns to a speaker's policy or config but
``BGPSpeaker.reconfigure``.  A fourth keeps the repair loop's five
decisions at one definition each, a fifth keeps the service daemon from
storing a record's stage, and a sixth keeps the controller cut along its
seam: the fold and the policy hold no deployment, the shell decides
nothing.
"""

import ast
import inspect
import os
import re
import subprocess
import sys
import textwrap

import repro
from repro.control.lifeguard import Lifeguard
from repro.control.record import RECORD_REDUCERS

CHECK = (
    "import sys, repro, repro.service, repro.fuzz, repro.cli; "
    "heavy = sorted({'numpy', 'scipy', 'networkx'} & set(sys.modules)); "
    "assert not heavy, heavy"
)


def test_importing_the_program_imports_no_numeric_stack():
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    inherited = os.environ.get("PYTHONPATH")
    env = dict(
        os.environ,
        PYTHONPATH=src + (os.pathsep + inherited if inherited else ""),
    )
    done = subprocess.run(
        [sys.executable, "-c", CHECK],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert done.returncode == 0, done.stderr


#: Where the program may read the environment: file under ``src/repro``
#: -> the one function allowed to do it.  Nowhere.
ENV_SITES = {}

ENV_NAMES = set()


def _enclosing_function(lines, index):
    """Name of the innermost ``def`` above ``lines[index]``."""
    indent = len(lines[index]) - len(lines[index].lstrip())
    for line in reversed(lines[:index]):
        found = re.match(r"( *)def (\w+)", line)
        if found and len(found.group(1)) < indent:
            return found.group(2)
    return None


def test_the_environment_is_read_at_the_allow_listed_sites_only():
    """Options are flags and arguments, never the environment, so a new
    ``REPRO_*`` variable fails here before it reaches README."""
    root = os.path.dirname(os.path.abspath(repro.__file__))
    reads, names = set(), set()
    for folder, _dirs, files in os.walk(root):
        for name in files:
            if not name.endswith(".py"):
                continue
            path = os.path.join(folder, name)
            with open(path, encoding="utf-8") as handle:
                lines = handle.read().splitlines()
            relative = os.path.relpath(path, root).replace(os.sep, "/")
            for index, line in enumerate(lines):
                names.update(re.findall(r"REPRO_[A-Z_]+", line))
                if re.search(r"os\.environ|getenv", line):
                    reads.add((relative, _enclosing_function(lines, index)))
    assert reads == set(ENV_SITES.items())
    assert names == ENV_NAMES


#: An assignment to something's policy, its config or a field of that.
POLICY_ASSIGNMENT = re.compile(r"\.policy(\.config(\.\w+)?)?\s*=[^=]")


def test_speaker_policy_changes_through_reconfigure_only():
    """``speaker.policy.config.<field> = ...`` on a built engine left
    the resolved tables and the engine's cached gate verdict stale (two
    tests did it); the dataclass is frozen now, and this scan covers
    what freezing cannot — swapping the config or the policy object."""
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    assigned = set()
    for top in ("src", "tests", "bench", "benchmarks", "examples"):
        for folder, _dirs, files in os.walk(os.path.join(repo, top)):
            for name in files:
                if not name.endswith(".py"):
                    continue
                path = os.path.join(folder, name)
                with open(path, encoding="utf-8") as handle:
                    lines = handle.read().splitlines()
                relative = os.path.relpath(path, repo).replace(os.sep, "/")
                for index, line in enumerate(lines):
                    if POLICY_ASSIGNMENT.search(line):
                        assigned.add(
                            (relative, _enclosing_function(lines, index))
                        )
    assert assigned == {
        ("src/repro/bgp/speaker.py", "__init__"),
        ("src/repro/bgp/speaker.py", "reconfigure"),
    }


def _sites(pattern, after=None):
    """``(file under src/repro, enclosing function)`` of every line that
    matches *pattern* (and, with *after*, directly follows a line that
    matches that)."""
    root = os.path.dirname(os.path.abspath(repro.__file__))
    found = set()
    for folder, _dirs, files in os.walk(root):
        for name in files:
            if not name.endswith(".py"):
                continue
            path = os.path.join(folder, name)
            with open(path, encoding="utf-8") as handle:
                lines = handle.read().splitlines()
            relative = os.path.relpath(path, root).replace(os.sep, "/")
            for index, line in enumerate(lines):
                if not re.search(pattern, line):
                    continue
                if after and not re.search(after, lines[index - 1]):
                    continue
                found.add((relative, _enclosing_function(lines, index)))
    return found


def test_one_of_each_around_the_repair_loop():
    """The staging rule, the announcement door, the ground-truth picker,
    the crash/recover path and the outage-stream harness were each
    written out two to five times; a new copy fails here."""
    # One staging rule: the table has one reader, "healed means done" is
    # decided once (recovery's hand-back of ongoing outages to the
    # monitor is the other place an outage's end is read), and the
    # daemon's second copy of both is gone.
    assert _sites(r"STAGE_FOR_STATE[\[.]") == {
        ("control/record.py", "stage_of")
    }
    assert _sites(r"outage\.end is (not )?None") == {
        ("control/record.py", "stage_of"),
        ("control/lifeguard.py", "_replay"),
    }
    assert not _sites(r"_stage_for|_SETTLED|_records_by_outage") - {
        ("control/lifeguard.py", name)
        for name in ("__init__", "apply", "_on_observed", "_record_for",
                     "record")
    }
    # One announcement door: converge-then-resnapshot is spelled out for
    # the baseline, for an injected session reset, and in _announce.
    assert _sites(r"refresh_dataplane\(\)", after=r"engine\.run\(\)") == {
        ("control/lifeguard.py", "announce"),
        ("control/lifeguard.py", "begin_round"),
        ("control/lifeguard.py", "_announce"),
    }
    assert _sites(r"_commit\(\s*\"announced\"") == {
        ("control/lifeguard.py", "_announce")
    }
    # One picker: the AS-level walk is read in one place.
    assert _sites(r"as_level_hops\(") == {
        ("dataplane/forwarding.py", None),  # the definition
        ("workloads/scenarios.py", "_transits"),
    }
    # One way back from a crash, and one schedule for one: the two
    # harness loops kill the controller at their own crash_at and keep
    # it down for the one CRASH_DOWNTIME, defined beside crash/recover.
    assert _sites(r"Lifeguard\.recover\(") == {
        ("workloads/scenarios.py", "recover")
    }
    assert _sites(r"^CRASH_DOWNTIME = ") == {("workloads/scenarios.py", None)}
    assert {
        site for site in _sites(r"\bCRASH_DOWNTIME\b") if site[1] is not None
    } == {
        ("service/daemon.py", "run"),
        ("experiments/outage_stream.py", "run_outage_stream"),
    }
    # ... which the defense study calls instead of borrowing the
    # robustness study's private parts (module-level private imports).
    assert ("experiments/defenses.py", None) not in _sites(
        r"import .*\b_\w+|^    _\w+,$"
    )


def _service_sites(pattern):
    return {site for site in _sites(pattern) if site[0].startswith("service/")}


def test_the_daemon_keeps_no_copy_of_a_stage():
    """The daemon's stage queues were a second copy of each record's
    stage, and it went stale (an isolate queue full of settled work kept
    the service PAUSED for good).  Its one backlog reads a stage off the
    record through ``stage_of`` — no table, no state compared (the one
    ``.state`` read left counts completed repairs) — and the queues and
    the router between them are gone."""
    assert not _service_sites(
        r"STAGE_FOR_STATE|IN_FLIGHT|RepairState\.(?!UNPOISONED\b)"
    )
    assert _service_sites(r"\.state\b") == {("service/daemon.py", "report")}
    assert not _sites(r"\b(StageQueue|_route|_queue_for)\b")


#: What a deployment is made of: the fold and the policy import none of
#: it and reach through no attribute that holds one.
DEPLOYMENT_TYPES = {
    "BGPEngine", "OriginController", "Prober", "DataPlane", "RepairGuard",
    "RepairJournal",
}
DEPLOYMENT_ATTRIBUTES = {"engine", "prober", "dataplane", "origin", "journal"}


def test_the_controller_stays_cut_along_its_seam():
    """``control/record.py`` (the fold) and ``control/plan.py`` (the
    policy) are functions of values; ``control/lifeguard.py`` (the
    shell) gathers, commits and runs effects but decides nothing."""
    root = os.path.dirname(os.path.abspath(repro.__file__))
    for name in ("control/record.py", "control/plan.py"):
        with open(os.path.join(root, name), encoding="utf-8") as handle:
            tree = ast.parse(handle.read())
        named, reached = set(), set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                named.update(
                    alias.name.rsplit(".", 1)[-1] for alias in node.names
                )
            elif isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                reached.add(node.attr)
        assert not named & DEPLOYMENT_TYPES, name
        assert not reached & DEPLOYMENT_ATTRIBUTES, name
    # A record is the per-outage state: the four dictionaries that used
    # to sit beside it are gone, and the controller keeps one index.
    assert not _sites(
        r"_isolation_used|_last_repair_check|_journaled_ends"
        r"|_poison_intents"
    )
    init = ast.parse(textwrap.dedent(inspect.getsource(Lifeguard.__init__)))
    keyed = [
        ast.unparse(node.target)
        for node in ast.walk(init)
        if isinstance(node, ast.AnnAssign)
        and "OutageKey" in ast.unparse(node.annotation)
    ]
    assert keyed == ["self._records_by_outage"]
    # Each decision has its one definition in plan.py: the shell walks
    # the graph only to fill the memo it hands over, never reads the
    # ladder, and its isolation stage compares nothing but "did the
    # plan return an outcome".
    assert {
        site for site in _sites(r"reachable_set_avoiding\(")
        if site[0] == "control/lifeguard.py"
    } == {("control/lifeguard.py", "__missing__")}
    assert {name for name, _ in _sites(r"LADDER_STRATEGIES\[")} == {
        "control/plan.py"
    }
    stage = ast.parse(
        textwrap.dedent(inspect.getsource(Lifeguard.stage_isolate))
    )
    for node in ast.walk(stage):
        if isinstance(node, ast.Compare):
            assert ast.unparse(node).endswith("is not None"), (
                ast.unparse(node)
            )
    # The controller's table still covers every record-scoped kind (and
    # DESIGN.md's table is held to it by test_journal_fold).
    assert set(RECORD_REDUCERS) <= set(Lifeguard._REDUCERS)
