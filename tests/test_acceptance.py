"""End-to-end acceptance gate.

Each test here is one acceptance criterion, run at its stated tolerance.
The expensive shared ingredient — the full 10,000-spec random corpus — is
computed once per session and reused by the criteria that need it.
"""

import json
import math
import time

import numpy as np
import pytest

from grambounds import (
    FamilySpec,
    Vector,
    bessel_sum,
    bessel_sum_bound,
    bombieri_bound,
    dominance_search,
    frobenius_bound,
    norm,
    orthonormal_bessel_bound,
    power_mean_bound,
    random_family,
    random_orthonormal_family,
    random_specs,
)
from grambounds.cli import main
from golden_bits import GOLDEN, blas_kernel, digests, run_child, unrunnable
from helpers import CorpusRun, run_corpus

REL_TOL = 1e-10
ABS_TOL = 1e-12
CORPUS_BUDGET_SECONDS = 60.0
SCAN_BUDGET_SECONDS = 5.0


@pytest.fixture(scope="session")
def corpus_run() -> CorpusRun:
    return run_corpus()


def read_scan_csv(path):
    lines = path.read_text().splitlines()
    assert lines[0] == "b,p,f"
    assert lines[-1].startswith("# ")
    rows = [tuple(float(tok) for tok in ln.split(",")) for ln in lines[1:-1]]
    counts = dict(part.split("=") for part in lines[-1][2:].split())
    return rows, {k: int(v) for k, v in counts.items()}


def test_criterion_1_corpus_soundness(corpus_run):
    """10,000 random instances, every implemented bound, zero violations."""
    result = corpus_run.result
    assert result.n_specs == 10_000
    assert result.n_fail == 0, f"violations: {result.fails_by_id}"
    # Every bound family must actually have been exercised.
    expected_ids = {
        "bombieri",
        "cor28",
        "cor22_chain",
        "span_gram",
        "span_norms",
        "combo_gram",
        "combo_norms",
        "thm27",
        "eq211",
        "power_mean",
    }
    assert expected_ids <= set(result.cases_by_id)
    assert corpus_run.elapsed < CORPUS_BUDGET_SECONDS, (
        f"corpus took {corpus_run.elapsed:.1f}s"
    )
    print(f"[acceptance] criterion 1: PASS ({result.n_cases} cases, "
          f"{corpus_run.elapsed:.1f}s)")


def test_criterion_2_bessel_reduction():
    """On orthonormal families the classical bound collapses to ||x||^2."""
    rng = np.random.default_rng(2024)
    checked = 0
    while checked < 1000:
        dim = int(rng.integers(1, 9))
        n = int(rng.integers(1, dim + 1))
        field = "complex" if rng.integers(2) else "real"
        fam = random_orthonormal_family(dim, n, field=field, seed=int(rng.integers(2**63)))
        coords = rng.normal(size=dim) * float(rng.uniform(0.1, 10.0))
        if field == "complex":
            coords = coords + 1j * rng.normal(size=dim)
        x = Vector(coords)
        nx_sq = norm(x) ** 2
        r = bombieri_bound(x, fam)
        assert r.value == pytest.approx(nx_sq, rel=1e-12)
        assert bessel_sum(x, fam) <= nx_sq * (1 + REL_TOL) + ABS_TOL
        checked += 1
    print("[acceptance] criterion 2: PASS (1000 instances)")


def test_criterion_3_p2_recapture():
    """The p = 2 power-mean bound agrees with the Frobenius bound to 1e-15."""
    for spec in random_specs(1000, master_seed=3):
        x, fam, _ = random_family(spec)
        a = power_mean_bound(x, fam, 2.0).value
        b = frobenius_bound(x, fam).value
        assert abs(a - b) <= 1e-15 * max(abs(a), abs(b)), spec
    print("[acceptance] criterion 3: PASS (1000 instances)")


def test_criterion_4_orthonormal_specialization():
    """Specialized and general Bessel-sum bounds agree on orthonormal input."""
    rng = np.random.default_rng(4)
    p_values = (1.0, 1.5, 2.0, 3.0, math.inf)
    for _ in range(500):
        dim = int(rng.integers(1, 9))
        n = int(rng.integers(1, dim + 1))
        field = "complex" if rng.integers(2) else "real"
        fam = random_orthonormal_family(dim, n, field=field, seed=int(rng.integers(2**63)))
        coords = rng.normal(size=dim)
        if field == "complex":
            coords = coords + 1j * rng.normal(size=dim)
        x = Vector(coords)
        for p in p_values:
            a = orthonormal_bessel_bound(x, fam, p).value
            b = bessel_sum_bound(x, fam, p).value
            assert a == pytest.approx(b, rel=1e-12, abs=1e-300), (p, dim, n)
    print("[acceptance] criterion 4: PASS (500 families x 5 exponents)")


def test_criterion_5_comparison_experiment(tmp_path):
    """The 201 x 100 factor-gap scan finds both signs, with known landmarks."""
    out = tmp_path / "scan.csv"
    start = time.perf_counter()
    code = main(["scan", "--nb", "201", "--np", "100", "--eps", "0.01",
                 "--out", str(out)])
    elapsed = time.perf_counter() - start
    assert code == 0
    assert elapsed < SCAN_BUDGET_SECONDS, f"scan took {elapsed:.2f}s"
    rows, counts = read_scan_csv(out)
    assert counts["n_positive"] > 0
    assert counts["n_negative"] > 0
    edge = [f for b, p, f in rows if b == 1.0]
    assert len(edge) == 100
    assert all(abs(f) <= 1e-12 for f in edge)
    landmark = [f for b, p, f in rows if b == 0.5 and p == 2.0]
    assert len(landmark) == 1
    assert abs(landmark[0] - (-0.25)) <= 1e-12
    print(f"[acceptance] criterion 5: PASS (+{counts['n_positive']} "
          f"-{counts['n_negative']} cells, {elapsed:.2f}s)")


def test_criterion_6_dominance_witnesses():
    """Opposite-sign witnesses exist at p = 1.1 and do not exist at p = 2."""
    pair = dominance_search(seed=6, max_trials=10_000, p=1.1)
    assert pair is not None

    def factors_from_raw(fam, p):
        # independent re-evaluation: plain numpy on the raw coordinates
        v = fam.vectors
        g = v @ v.conj().T
        m1 = float(np.max(np.abs(g).sum(axis=1)))
        q = p / (p - 1.0)
        m2 = float(g.shape[0]) ** (2.0 / p - 1.0) * float(
            (np.abs(g) ** q).sum() ** (1.0 / q)
        )
        return m1, m2

    m1a, m2a = factors_from_raw(pair.family_a, 1.1)
    m1b, m2b = factors_from_raw(pair.family_b, 1.1)
    assert m2a - m1a > 1e-9
    assert m2b - m1b < -1e-9
    assert dominance_search(seed=6, max_trials=10_000, p=2.0) is None
    print(f"[acceptance] criterion 6: PASS (b_a={pair.b_a:.3f}, b_b={pair.b_b:.3f})")


def test_criterion_7_refinement_chain(corpus_run):
    """The two-step chain holds on every corpus element."""
    result = corpus_run.result
    assert result.cases_by_id.get("cor22_chain", 0) == 2 * result.n_specs
    assert "cor22_chain" not in result.fails_by_id
    print(f"[acceptance] criterion 7: PASS "
          f"({result.cases_by_id['cor22_chain']} chain cases)")


def test_criterion_8_determinism(corpus_run, tmp_path):
    """Repeating the corpus and the scan reproduces byte-identical output."""
    second = run_corpus()
    assert second.digest == corpus_run.digest
    assert second.result.n_cases == corpus_run.result.n_cases

    out_a = tmp_path / "scan_a.csv"
    out_b = tmp_path / "scan_b.csv"
    assert main(["scan", "--nb", "201", "--np", "100", "--eps", "0.01",
                 "--out", str(out_a)]) == 0
    assert main(["scan", "--nb", "201", "--np", "100", "--eps", "0.01",
                 "--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    print(f"[acceptance] criterion 8: PASS (corpus sha256 {second.digest[:16]}..., "
          f"scan files identical)")


def test_golden_bits(corpus_run, tmp_path):
    """The corpus digests, the verify_all records, the compute rows and CSV, the scan CSV and the
    verify report match the bits recorded for the running BLAS kernel (see golden_bits.py for how
    to record one)."""
    kernel = blas_kernel()
    expected = json.loads(GOLDEN.read_text()).get(kernel)
    if expected is None:
        pytest.skip(f"no golden bits for the BLAS kernel {kernel or '(name unreadable)'}")
    assert digests(tmp_path, corpus_run.digest) == expected


@pytest.mark.parametrize("kernel", sorted(set(json.loads(GOLDEN.read_text())) - {blas_kernel()}))
def test_golden_bits_of_other_kernels(kernel):
    """Every other recorded kernel, in a child whose OPENBLAS_CORETYPE selects it: all but the
    full corpus's digest match, the first 1,000 corpus specs standing in for it."""
    core = kernel.split()[-1]
    reason = unrunnable(core)
    if reason is not None:
        pytest.skip(reason)
    ran, entry = run_child(core, full_corpus=False)
    if ran != kernel:
        pytest.skip(f"OPENBLAS_CORETYPE={core} runs {ran or '(name unreadable)'}, not {kernel}")
    expected = json.loads(GOLDEN.read_text())[kernel]
    del expected["corpus"]
    assert entry == expected
