"""The package exports: one list, built from the modules' own export lists; its runtime dependencies;
and the README's quickstart runs."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import grambounds
from grambounds import bounds, compare, core, errors, norms, verify

MODULES = (errors, core, norms, bounds, compare, verify)

PUBLIC = {
    "__version__",
    # errors
    "GramBoundsError", "DimensionError", "ShapeError", "ExponentError", "ExponentRangeError", "DomainError",
    "NotOrthonormalError",
    # core
    "Vector", "VectorFamily", "GramMatrix", "inner", "norm", "gram", "inner_each", "ORTHONORMAL_TOL",
    # norms
    "SNAP_TOL", "conjugate_exponent", "seq_pnorm", "gram_entry_qnorm", "max_row_abs_sum", "power_mean_exponent",
    # bounds
    "REL_TOL", "ABS_TOL", "BoundId", "BoundResult", "CaseTable", "combination_norm_sq",
    "weighted_inner_sum_sq", "bessel_sum", "span_bound", "combo_bound", "refinement_chain", "bessel_sum_bound",
    "orthonormal_bessel_bound", "frobenius_bound", "power_mean_bound", "bombieri_bound", "power_mean_gap",
    # compare
    "DOMINANCE_TOL", "GridCell", "SignScanReport", "DominancePair", "power_mean_factor", "gap_closed_form",
    "sign_scan", "dominance_search",
    # verify
    "STANDARD_P_LIST", "CORPUS_SEED", "FamilySpec", "VerificationReport", "CorpusResult",
    "random_family", "random_orthonormal_family", "random_specs", "standard_corpus", "evaluate_cases",
    "verify_all", "verify_corpus",
}


def test_each_public_name_is_listed_once():
    assert len(grambounds.__all__) == len(set(grambounds.__all__))
    assert set(grambounds.__all__) == PUBLIC


def test_each_name_is_exported_by_one_module():
    """A name is in the export list of its defining module alone, so the package list needs no dedup."""
    names = [name for module in MODULES for name in module.__all__]
    assert sorted(name for name in set(names) if names.count(name) > 1) == []


def test_star_import_gives_the_listed_names():
    namespace = {}
    exec("from grambounds import *", namespace)
    assert set(namespace) - {"__builtins__"} == PUBLIC


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_exports_are_the_modules_objects(module):
    assert set(module.__all__) <= PUBLIC
    for name in module.__all__:
        assert getattr(grambounds, name) is getattr(module, name), name


def test_classes_and_functions_come_from_their_defining_module():
    """Each exported class and function is in the export list of the module that defines it."""
    for name in grambounds.__all__:
        obj = getattr(grambounds, name)
        home = getattr(obj, "__module__", None)
        if isinstance(home, str) and home.startswith("grambounds."):
            assert getattr(sys.modules[home], name) is obj, name
            assert name in sys.modules[home].__all__, name


def test_readme_library_quickstart_runs():
    """The first python block under the README's "Library quickstart" heading runs on the source tree, with
    a RuntimeWarning (an overflow, a division by zero) an error."""
    root = Path(__file__).resolve().parents[1]
    section = (root / "README.md").read_text(encoding="utf-8").split("\n## Library quickstart\n", 1)[1]
    code = section.split("\n## ", 1)[0].split("```python\n", 1)[1].split("\n```", 1)[0]
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-c", code], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": str(root / "src")})
    assert proc.returncode == 0, proc.stderr


def test_readme_bounds_table_has_a_row_per_bound_id():
    """Each row of the table under the README's "The bounds" heading names one backticked id, and the ids
    are the BoundId values, each once."""
    section = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    rows = section.split("\n## The bounds\n", 1)[1].split("\n## ", 1)[0].splitlines()
    ids = [row.split("|")[1].strip() for row in rows if row.startswith("| `")]
    assert sorted(ids) == sorted(f"`{bound_id.value}`" for bound_id in bounds.BoundId)


def test_runtime_dependencies_are_numpy_alone():
    """Importing the package, its command line and its entry point in a fresh isolated interpreter
    (``-I``, the source tree first on sys.path) loads no top-level module outside the standard
    library, numpy and grambounds."""
    src = Path(__file__).resolve().parents[1] / "src"
    code = (f"import sys; sys.path.insert(0, {str(src)!r}); before = set(sys.modules)\n"
            "import grambounds, grambounds.cli, grambounds.__main__\n"
            "top = {name.partition('.')[0] for name in set(sys.modules) - before}\n"
            "print(*sorted(top - set(sys.stdlib_module_names) - {'numpy', 'grambounds'}))")
    proc = subprocess.run([sys.executable, "-I", "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []
