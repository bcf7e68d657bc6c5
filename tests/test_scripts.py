import os
import subprocess
import sys

import pytest

import tamexp

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("flags", [(), ("-O",)], ids=["python", "python-O"])
def test_desk_checks_fast_pass(flags):
    # the README's desk check, in its quick form; under -O as well, which
    # strips assert statements but not the script's require calls
    src = os.path.dirname(os.path.dirname(tamexp.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]))
    res = subprocess.run(
        [sys.executable, *flags,
         os.path.join(ROOT, "scripts", "desk_checks.py"), "--fast"],
        capture_output=True, text=True, env=env, timeout=300)
    assert res.returncode == 0, res.stdout + res.stderr
    assert res.stdout.endswith("all desk checks passed\n")
