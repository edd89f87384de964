"""A fresh Python interpreter that imports the matsos of this test run.

`src` is put first on its PYTHONPATH, so a subprocess imports the same
package as the tests, from an installed copy or from a bare checkout.
"""

import os
import subprocess
import sys

import matsos

SRC = os.path.dirname(os.path.dirname(matsos.__file__))


def run_python(args, stdin=None, timeout=300):
    """`python *args` in a fresh interpreter; the completed process, with
    text stdout and stderr."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, input=stdin, timeout=timeout,
                          env=dict(os.environ, PYTHONPATH=path))
