"""Golden bits: sha256 digests of the package's outputs, one entry per BLAS kernel.

A Gram build rounds as the OpenBLAS kernel that numpy's bundled library picks
for the CPU rounds, so golden_bits.json keys each entry by that library's
version and core name (``blas_kernel``).  An entry holds ten digests:

    corpus         the case-row digest of the standard corpus (helpers.run_corpus)
    corpus_1k      the case-row digest of the first 1,000 specs of the standard corpus
    large          the float.hex records of verify_all on four (1000, 256) families of seed 1729
    row_blocks     the same records on two (1100, 4) families, each |G| folded in two row blocks
    compute        the ``grambounds compute`` CSV of one seeded complex document with coefficients
    compute_bench  the compute rows of the benchmark's compute document, a complex (1000, 256) family
    compute_orthonormal  the compute rows of an orthonormal complex (40, 64) family, orthonormal_27a among them
    scan           the default ``grambounds scan`` CSV
    scan_bench     the ``grambounds scan`` CSV of the benchmark's 1001 × 250 grid at its seeded eps
    verify_zero_tol  the ``grambounds verify`` stdout of 300 specs of seed 1 at zero tolerances, which exits 1

The scan is Python-float arithmetic with no BLAS call, so its two digests are the same
under every kernel.

The tests check the running kernel's entry in process, and every other recorded
kernel in a child whose OPENBLAS_CORETYPE selects it (``run_child``).  Run
directly, this script re-records, one child per core, the running kernel (whatever its
core) and every core already in the manifest; another core this CPU cannot run is
reported and kept.  Before it writes, it prints each value that changed, with its old and
new digest prefix:

    PYTHONPATH=src python tests/golden_bits.py
"""

from __future__ import annotations

import contextlib
import ctypes
import glob
import hashlib
import io
import json
import os
import sys
from pathlib import Path

import numpy as np

from grambounds import VectorFamily, verify_all
from grambounds.cli import compute_rows, main
from grambounds.verify import STANDARD_P_LIST, random_orthonormal_family
from helpers import run_corpus, run_fresh

GOLDEN = Path(__file__).with_name("golden_bits.json")

#: The instructions /proc/cpuinfo must list for OPENBLAS_CORETYPE to select each recorded core.
CORE_FLAGS = {"SkylakeX": ("avx512f",), "Haswell": ("avx2", "fma"), "Sandybridge": ("avx",)}


def blas_kernel() -> str | None:
    """'OpenBLAS <version> <core>' of numpy's bundled OpenBLAS, or None when it cannot be read."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "libscipy_openblas64_*.so"))
    try:
        lib = ctypes.CDLL(libs[0])
        config, core = lib.scipy_openblas_get_config64_, lib.scipy_openblas_get_corename64_
    except (IndexError, OSError, AttributeError):
        return None
    config.restype = core.restype = ctypes.c_char_p
    return f"OpenBLAS {config().decode().split()[1]} {core().decode()}"


def unrunnable(core: str) -> str | None:
    """Why a child with OPENBLAS_CORETYPE=core cannot be checked on this machine, or None."""
    if blas_kernel() is None:
        return "numpy's BLAS is not its bundled OpenBLAS"
    if core not in CORE_FLAGS:
        return f"no instruction list for the core {core}"
    try:
        with open("/proc/cpuinfo") as fh:
            flags = {word for line in fh if line.startswith("flags") for word in line.split()}
    except OSError:
        flags = set()
    missing = sorted(set(CORE_FLAGS[core]) - flags)
    return f"the CPU lacks {', '.join(missing)} for the core {core}" if missing else None


def _complex_normal(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _pairs(a) -> list:
    """Complex values as the [re, im] pairs of a compute document."""
    return np.stack([a.real, a.imag], axis=-1).tolist()


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def verify_records(count: int, n: int, d: int) -> bytes:
    """One line per verify_all record on ``count`` (n, d) families of seed 1729, alternately
    complex and real, drawn as x, the rows and c; lhs and value in float.hex."""
    rng = np.random.default_rng(1729)
    lines = []
    for k in range(count):
        draw = (lambda shape: _complex_normal(rng, shape)) if k % 2 == 0 else rng.standard_normal
        x, rows, c = draw(d), draw((n, d)), draw(n)
        report = verify_all(x, VectorFamily(rows, field="real" if k % 2 else "complex"), c)
        lines += [f"{r.bound_id} {r.p!r} {r.flavor} {r.lhs.hex()} {r.value.hex()}" for r in report.cases]
    return "\n".join(lines).encode()


def compute_csv(workdir: Path) -> bytes:
    """The ``grambounds compute`` CSV of a complex (300, 64) family of seed 1729 with x and coefficients."""
    rng = np.random.default_rng(1729)
    x, rows, c = _complex_normal(rng, 64), _complex_normal(rng, (300, 64)), _complex_normal(rng, 300)
    doc, out = workdir / "golden.json", workdir / "golden.csv"
    doc.write_text(json.dumps({"field": "complex", "x": _pairs(x), "family": _pairs(rows), "coefficients": _pairs(c)}))
    assert main(["compute", "--input", str(doc), "--out", str(out)]) == 0
    return out.read_bytes()


def compute_bench_rows() -> bytes:
    """compute_rows at STANDARD_P_LIST on the benchmark's compute document: a complex (1000, 256)
    family of seed 1729 with x and coefficients, drawn as x, the rows and c."""
    rng = np.random.default_rng(1729)
    x, rows, c = _complex_normal(rng, 256), _complex_normal(rng, (1000, 256)), _complex_normal(rng, 1000)
    return "\n".join(compute_rows(x, VectorFamily(rows), c, list(STANDARD_P_LIST))).encode()


def compute_orthonormal_rows() -> bytes:
    """compute_rows at STANDARD_P_LIST on the orthonormal complex (40, 64) family of seed 1729, with x and
    coefficients drawn from seed 1729 as x, then c; the family passes the orthonormality check."""
    rng = np.random.default_rng(1729)
    x, c = _complex_normal(rng, 64), _complex_normal(rng, 40)
    rows = compute_rows(x, random_orthonormal_family(64, 40, "complex", seed=1729), c, list(STANDARD_P_LIST))
    assert any(row.startswith("orthonormal_27a,") for row in rows)
    return "\n".join(rows).encode()


def scan_csv(workdir: Path, *args: str) -> bytes:
    """The ``grambounds scan`` CSV with these arguments (the default grid when none are given)."""
    out = workdir / "golden_scan.csv"
    assert main(["scan", *args, "--out", str(out)]) == 0
    return out.read_bytes()


def scan_bench_csv(workdir: Path) -> bytes:
    """The scan CSV of the benchmark's grid: 1001 × 250 cells from p = 1 + eps, eps drawn from seed 1729."""
    eps = 0.005 + 0.01 * float(np.random.default_rng(1729).random())
    return scan_csv(workdir, "--nb", "1001", "--np", "250", "--eps", repr(eps))


def verify_zero_tol_stdout() -> bytes:
    """The stdout of ``grambounds verify --trials 300 --seed 1 --rel-tol 0 --abs-tol 0``: the totals, the
    tightest case with its seed and every ``fail:`` line in order."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["verify", "--trials", "300", "--seed", "1", "--rel-tol", "0", "--abs-tol", "0"]) == 1
    return out.getvalue().encode()


def digests(workdir: Path, corpus_digest: str | None = None) -> dict[str, str]:
    """The entry of the running kernel; it holds the standard corpus's digest only when given it."""
    return {
        **({} if corpus_digest is None else {"corpus": corpus_digest}),
        "corpus_1k": run_corpus(1000).digest,
        "large": _sha256(verify_records(4, 1000, 256)),
        "row_blocks": _sha256(verify_records(2, 1100, 4)),
        "compute": _sha256(compute_csv(workdir)),
        "compute_bench": _sha256(compute_bench_rows()),
        "compute_orthonormal": _sha256(compute_orthonormal_rows()),
        "scan": _sha256(scan_csv(workdir)),
        "scan_bench": _sha256(scan_bench_csv(workdir)),
        "verify_zero_tol": _sha256(verify_zero_tol_stdout()),
    }


def run_child(core: str, full_corpus: bool) -> tuple[str | None, dict[str, str]]:
    """The kernel name and the entry of a fresh interpreter in which OPENBLAS_CORETYPE is ``core``;
    the entry holds the full corpus's digest only when full_corpus is true."""
    script = (f"sys.path.insert(0, {str(GOLDEN.parent)!r})\n"
              "import json, tempfile\nfrom pathlib import Path\n"
              "from golden_bits import blas_kernel, digests, run_corpus\n"
              "with tempfile.TemporaryDirectory() as tmp:\n"
              f"    entry = digests(Path(tmp), run_corpus().digest if {full_corpus} else None)\n"
              "print(json.dumps([blas_kernel(), entry]))")
    return tuple(json.loads(run_fresh(script, env={"OPENBLAS_CORETYPE": core}).splitlines()[-1]))


if __name__ == "__main__":
    native = blas_kernel()
    if native is None:
        sys.exit("cannot read the name of numpy's BLAS kernel")
    golden = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    for core in dict.fromkeys(kernel.split()[-1] for kernel in (native, *golden)):
        reason = None if core == native.split()[-1] else unrunnable(core)  # the running kernel is always recorded
        if reason is not None:
            print(f"{core}: kept as recorded, {reason}")
            continue
        kernel, entry = run_child(core, full_corpus=True)
        old = golden.get(kernel, {})
        moved = [f"{key} {old.get(key, '-')[:8]} -> {entry.get(key, '-')[:8]}"
                 for key in sorted({*old, *entry}) if old.get(key) != entry.get(key)]
        print(f"{kernel}: {'; '.join(moved) or 'unchanged'}")
        golden[kernel] = entry
    GOLDEN.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
