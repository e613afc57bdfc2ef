"""Golden bits: sha256 digests of the package's outputs, one entry per BLAS kernel.

A Gram build rounds as the OpenBLAS kernel that numpy's bundled library picks
for the CPU rounds, so golden_bits.json keys each entry by that library's
version and core name (``blas_kernel``).  An entry holds four digests:

    corpus   the case-row digest of the standard corpus (helpers.run_full_corpus)
    large    the float.hex records of verify_all on four (1000, 256) families of seed 1729
    compute  the ``grambounds compute`` CSV of one seeded complex document with coefficients
    scan     the default ``grambounds scan`` CSV

Record the entry of the running kernel, or of another one that
OPENBLAS_CORETYPE selects, with one process per kernel:

    OPENBLAS_CORETYPE=Haswell PYTHONPATH=src python tests/golden_bits.py
"""

from __future__ import annotations

import ctypes
import glob
import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from grambounds import VectorFamily, verify_all
from grambounds.cli import main

GOLDEN = Path(__file__).with_name("golden_bits.json")


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


def _complex_normal(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _pairs(a) -> list:
    """Complex values as the [re, im] pairs of a compute document."""
    return np.stack([a.real, a.imag], axis=-1).tolist()


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def large_records() -> bytes:
    """One line per verify_all record on four (1000, 256) families of seed 1729, alternately
    complex and real, drawn as x, the rows and c; lhs and value in float.hex."""
    rng = np.random.default_rng(1729)
    lines = []
    for k in range(4):
        draw = (lambda shape: _complex_normal(rng, shape)) if k % 2 == 0 else rng.standard_normal
        x, rows, c = draw(256), draw((1000, 256)), draw(1000)
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


def scan_csv(workdir: Path) -> bytes:
    """The default ``grambounds scan`` CSV."""
    out = workdir / "golden_scan.csv"
    assert main(["scan", "--out", str(out)]) == 0
    return out.read_bytes()


def digests(corpus_digest: str, workdir: Path) -> dict[str, str]:
    """The entry of the running kernel, given the standard corpus's digest."""
    return {
        "corpus": corpus_digest,
        "large": _sha256(large_records()),
        "compute": _sha256(compute_csv(workdir)),
        "scan": _sha256(scan_csv(workdir)),
    }


if __name__ == "__main__":
    from helpers import run_full_corpus

    kernel = blas_kernel()
    if kernel is None:
        sys.exit("cannot read the name of numpy's BLAS kernel")
    with tempfile.TemporaryDirectory() as tmp:
        entry = digests(run_full_corpus().digest, Path(tmp))
    golden = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    golden[kernel] = entry
    GOLDEN.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
    print(kernel, entry)
