"""Importing the program pulls in the standard library and nothing else.

README promises "Runtime dependencies: none"; the benchmark VM has numpy
installed and most CI jobs do not, so an optional import on the way in
makes them measure different programs (it once cost 151 ms of a 395 ms
``import repro.service`` and 16 MiB of RSS).  CI's ``bench-smoke`` job
installs numpy and runs this file before its workloads, so the check can
fail there too.  A fresh interpreter, because this process has long
since imported whatever pytest's plugins wanted.
"""

import os
import subprocess
import sys

import repro

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
