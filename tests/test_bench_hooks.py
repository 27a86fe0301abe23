"""The benchmark in bench/ wraps program names from outside the program.

A rename that drops one of them stops every benchmark run, so these tests
install the benchmark's traced hooks and run its self-check, each in a fresh
interpreter started from the repository root, as the benchmark itself runs.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

INSTALL_HOOKS = """
import sys
sys.path.insert(0, "bench")
from run import load_program
load_program()
from hooks import Hooks
Hooks(set(), 0, trace=True).install()
"""


def run_from_root(*args):
    return subprocess.run(
        [sys.executable, *args], cwd=ROOT, capture_output=True, text=True, timeout=300
    )


def test_traced_hooks_find_every_name_they_wrap():
    result = run_from_root("-c", INSTALL_HOOKS)
    assert result.returncode == 0, result.stderr


def test_benchmark_selfcheck_passes():
    result = run_from_root("bench/selfcheck.py")
    assert result.returncode == 0, result.stdout + result.stderr
