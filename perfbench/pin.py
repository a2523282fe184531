"""Pin the program under test: no ``REPRO_*`` knobs, bounded threads.

Imported by ``run.py`` before numpy, because BLAS reads its thread count
once, at import.
"""

from __future__ import annotations

import os
import pathlib
import platform
import sys
from typing import Dict, List, MutableMapping, Optional

#: BLAS / OpenMP pools numpy and scipy may start
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


class PinError(RuntimeError):
    """The environment would change what program gets measured."""


def check_no_repro_vars(environ: MutableMapping[str, str]) -> None:
    """Refuse to run with any ``REPRO_*`` variable set.

    The program reads 14 of them; some switch compute back to reference
    paths (``REPRO_KERNEL_FUSION``, ``REPRO_BUFFER_ARENA``,
    ``REPRO_GATHER_DEDUP``) or inject worker faults (``REPRO_CHAOS``).
    """
    found = sorted(k for k in environ if k.startswith("REPRO_"))
    if found:
        raise PinError(
            f"refusing to run with {', '.join(found)} set; unset every "
            "REPRO_* variable so the default program is measured"
        )


def pin_threads(environ: MutableMapping[str, str]) -> Dict[str, Optional[str]]:
    """One BLAS/OpenMP thread per process.

    A workload is one process (the process backend adds one worker), so it
    stays within two cores; a single-threaded BLAS also measures steadier
    on a shared machine than one whose second thread competes for a core.
    Returns the thread variables whose previous value was replaced.
    """
    replaced: Dict[str, Optional[str]] = {}
    for var in THREAD_VARS:
        if environ.get(var) != "1":
            replaced[var] = environ.get(var)
            environ[var] = "1"
    return replaced


def _git_commit(root: pathlib.Path) -> str:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _blas() -> str:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        return "unknown"


def fingerprint(root: pathlib.Path, replaced: Dict[str, Optional[str]]) -> dict:
    import numpy as np
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "git_commit": _git_commit(root),
        "thread_env": ", ".join(
            f"{k}={os.environ.get(k)} (was {'unset' if v is None else v})"
            for k, v in replaced.items()
        ) or "unchanged",
        "platform": platform.platform(),
        "executable": pathlib.Path(sys.executable).name,
    }


def fingerprint_lines(fp: dict) -> List[str]:
    return [f"  {k:>13}: {v}" for k, v in fp.items()]
