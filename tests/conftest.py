"""Set-up shared by every test module.

``pyproject.toml`` puts ``src`` on the test process's own import path;
this exports it as well, so the interpreters that tests start (the CLI
entry point, fresh-process checks) import the same working tree.
"""

import os

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    [_SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep)
              if p])
