"""The layers a command leaves unloaded.

Each case runs in a fresh `python -S` process and names the exsub modules
that must not be in `sys.modules` after it.  `test_startup.py` runs every
case; run as a script, this file runs them without pytest,

    python -S tests/footprint.py

and exits 1, naming each module that a case loaded.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# the companion layers: only `test`, `translate` and `equiv` load them
COMPANIONS = ("exsub.debruijn", "exsub.generators", "exsub.termination", "exsub.checks")
TERM = r"(\x. x) y"


def _command(name: str) -> str:
    return f"from exsub.cli import main\nmain([{name!r}, {TERM!r}])"


# name -> (the code a fresh process runs, the modules it leaves unloaded)
CASES = {
    **{cmd: (_command(cmd), COMPANIONS + ("exsub.rewrite",))
       for cmd in ("fv", "good", "check", "nf")},
    **{cmd: (_command(cmd), COMPANIONS) for cmd in ("reduce", "normalize")},
    "import exsub.suites": ("import exsub.suites", COMPANIONS),
}


def loaded(code: str, modules: tuple[str, ...]) -> list[str]:
    """Those of `modules` that a fresh `python -S` has loaded after running
    `code`, which may write on stdout."""
    probe = (f"{code}\nimport sys\n"
             f"sys.stderr.write(' '.join(m for m in {modules!r} if m in sys.modules))")
    r = subprocess.run([sys.executable, "-S", "-c", probe], capture_output=True, text=True,
                       env=dict(os.environ, PYTHONPATH=str(SRC)), timeout=60)
    if r.returncode != 0:
        raise RuntimeError(f"{code!r} exited {r.returncode}:\n{r.stderr}")
    return r.stderr.split()


def main() -> int:
    failed = 0
    for name, (code, modules) in CASES.items():
        extra = loaded(code, modules)
        print(f"{name}: {'loads ' + ', '.join(extra) if extra else 'ok'}")
        failed += bool(extra)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
