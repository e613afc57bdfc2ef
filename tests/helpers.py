"""Checks and runs shared by several test modules."""

import hashlib
import itertools
import os
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

import numpy as np

from grambounds import CorpusResult, VectorFamily, standard_corpus, verify_corpus
from grambounds.cli import case_row
from grambounds.core import _sq_norms


def check_schwarz_chain(family: VectorFamily) -> bool:
    """Whether every Gram entry satisfies |g_ij| ≤ ‖z_i‖ ‖z_j‖ (with float slack).

    Entrywise Cauchy–Schwarz: the reason span_gram ≤ span_norms.
    """
    if family.size == 0:
        return True
    g = np.abs(family.gram().entries)
    member_norms = np.sqrt(_sq_norms(family.vectors)[0])
    return bool(np.all(g <= np.outer(member_norms, member_norms) * (1.0 + 1e-12)))


class CorpusRun(NamedTuple):
    result: CorpusResult
    elapsed: float
    digest: str


def run_corpus(count: int | None = None) -> CorpusRun:
    """Verify the first ``count`` specs of the standard corpus (all of them when None), hashing every
    case row in stream order."""
    h = hashlib.sha256()

    def observe(spec, case):
        h.update(case_row(case.bound_id, case.p, case.flavor, case.lhs, case.value).encode())
        h.update(b"\n")

    start = time.perf_counter()
    result = verify_corpus(itertools.islice(standard_corpus(), count), on_case=observe)
    elapsed = time.perf_counter() - start
    return CorpusRun(result, elapsed, h.hexdigest())


#: Defined for the scripts that run_fresh runs: the peak RSS in MiB of the process's own memory
#: (VmHWM).  ru_maxrss would not do: Linux carries over exec the peak RSS of the memory a child
#: was forked with, here that of the test run.
_PEAK_RSS = """
def peak_rss_mib():
    with open("/proc/self/status") as fh:
        return int(fh.read().split("VmHWM:")[1].split()[0]) / 1024  # kB
"""


def run_fresh(script: str, env: dict | None = None) -> str:
    """Run ``script`` in a fresh isolated interpreter (``-I``, the source tree first on sys.path),
    in which a RuntimeWarning is an error, and return its output; it may call peak_rss_mib().
    ``env`` adds variables to the child's environment alone; a child still running after
    300 s is killed and fails the call (subprocess.TimeoutExpired)."""
    src = Path(__file__).resolve().parents[1] / "src"
    code = f"import sys; sys.path.insert(0, {str(src)!r})\n{_PEAK_RSS}\n{script}"
    proc = subprocess.run([sys.executable, "-I", "-W", "error::RuntimeWarning", "-c", code],
                          capture_output=True, text=True, env={**os.environ, **(env or {})}, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout
