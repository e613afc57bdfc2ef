"""The four benchmark workloads, the closed loop that drives them, and the
per-layer metrics derived from a traced run.

Every workload makes its inputs from the seed alone, calls grambounds only
through module attributes (so that a traced run sees every call), and
checks the outputs.  An operation that raises or returns a wrong result
counts as failed.  Each workload defines:

- ``prepare(k)``: untimed input generation for operation ``k``;
- ``call(k, force_gram)``: operation ``k``, the part that is timed;
- ``check(k, out)``: checks that call no grambounds code, so that they add
  no spans to a traced run;
- ``finish()``: checks that do call grambounds, made after the timed loop.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import math
import os
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

import grambounds.cli as gb_cli
import grambounds.core as gb_core
import grambounds.verify as gb_verify

from spans import LayerStats, Tracer

#: Cases evaluate_cases emits per input: four exponent-free cases, then per
#: exponent two span and two combo flavours plus thm27, and for p in (1, 2]
#: eq211 and the raw power-mean comparison.
CASES_PER_SPEC = 4 + sum(5 + 2 * (1.0 < p <= 2.0) for p in gb_verify.STANDARD_P_LIST)

#: The bound evaluators whose per-call cost the traced run reports.
BOUND_FUNCTIONS = (
    "bombieri_bound",
    "frobenius_bound",
    "span_bound",
    "combo_bound",
    "refinement_chain",
    "combination_norm_sq",
    "bessel_sum_bound",
    "power_mean_bound",
    "power_mean_gap",
)


@dataclass(frozen=True)
class Sizes:
    """Input sizes; the defaults are the benchmark, TINY is for the smoke test."""

    corpus_specs: int = 1000
    large_n: int = 1000
    large_d: int = 256
    large_families: int = 4
    compute_n: int = 1000
    compute_d: int = 256
    scan_nb: int = 1001
    scan_np: int = 250


TINY = Sizes(corpus_specs=4, large_n=12, large_d=4, large_families=2,
             compute_n=6, compute_d=3, scan_nb=21, scan_np=6)


def _complex_normal(rng: np.random.Generator, shape) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _pairs(values: np.ndarray) -> list:
    """Complex values as the [re, im] pairs of the JSON input document."""
    return np.stack([values.real, values.imag], axis=-1).tolist()


def _read(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


class Workload:
    """Counts of attempted and failed items, shared by the four workloads."""

    name = ""
    item = ""

    def __init__(self, sizes: Sizes):
        self.sizes = sizes
        self.items_per_op = 1
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def prepare(self, k: int) -> None:
        pass

    def fail(self, why: str, count: int | None = None) -> None:
        self.failed += self.items_per_op if count is None else count
        if len(self.problems) < 20:
            self.problems.append(why)

    def call(self, k: int, force_gram: bool):
        raise NotImplementedError

    def check(self, k: int, out) -> None:
        raise NotImplementedError

    def finish(self) -> None:
        pass


class Corpus(Workload):
    """verify_corpus over consecutive chunks of the standard corpus stream, hashing
    every case row as the acceptance test does.

    Operation k verifies the k-th chunk of ``corpus_specs`` specs, so no spec
    is verified twice in the timed loop.  The first chunk is verified once
    more after the loop, and its digest must repeat.
    """

    name = "corpus"
    item = "spec"

    def __init__(self, seed, sizes, workdir):
        super().__init__(sizes)
        self.items_per_op = sizes.corpus_specs
        self._stream = gb_verify.random_specs(2**62, seed)
        self.first = list(itertools.islice(self._stream, self.items_per_op))
        self.specs = self.first
        self._digest = None

    def prepare(self, k):
        if k > 0:
            self.specs = list(itertools.islice(self._stream, self.items_per_op))

    def call(self, k, force_gram):
        return self._verify(self.specs)

    @staticmethod
    def _verify(specs):
        h = hashlib.sha256()
        case_row = gb_cli.case_row

        def observe(spec, case):
            h.update(case_row(case.bound_id, case.p, case.flavor, case.lhs, case.rhs).encode())
            h.update(b"\n")

        result = gb_verify.verify_corpus(specs, on_case=observe)
        return result, h.hexdigest()

    def check(self, k, out):
        result, digest = out
        if k == 0:
            self._digest = digest
        if result.n_specs != self.items_per_op or result.n_cases != CASES_PER_SPEC * self.items_per_op:
            self.fail(f"run {k}: {result.n_specs} specs, {result.n_cases} cases")
        elif result.n_fail:
            bad = {spec.seed for spec, _ in result.failures}
            self.fail(f"run {k}: failing cases {result.fails_by_id}", len(bad))

    def finish(self):
        if self._digest is not None and self._verify(self.first)[1] != self._digest:
            self.fail("digest of the first chunk does not repeat", 1)


class Large(Workload):
    """verify_all on seeded (n, d) families held in memory, alternately complex and real."""

    name = "large"
    item = "verify_all"

    def __init__(self, seed, sizes, workdir):
        super().__init__(sizes)
        rng = np.random.default_rng(seed)
        n, d = sizes.large_n, sizes.large_d
        self.pool = []
        for k in range(sizes.large_families):
            if k % 2 == 0:
                field_name, draw = "complex", functools.partial(_complex_normal, rng)
            else:
                field_name, draw = "real", rng.standard_normal
            self.pool.append((field_name, draw(d), draw((n, d)), draw(n)))

    def call(self, k, force_gram):
        # Operations 2j and 2j + 1 run the same family, so that in a traced
        # loop, which traces every odd operation, the traced and untraced
        # halves see the same families.  A fresh VectorFamily per call, so
        # that no Gram matrix is reused across calls.
        field_name, x, rows, c = self.pool[(k // 2) % len(self.pool)]
        family = gb_core.VectorFamily(rows, field=field_name)
        if force_gram:
            gb_core.gram(family)
        return gb_verify.verify_all(gb_core.Vector(x), family, c)

    def check(self, k, report):
        if report.n_cases != CASES_PER_SPEC or report.n_fail:
            self.fail(f"run {k}: {report.n_cases} cases, {report.n_fail} failing")


class Compute(Workload):
    """`grambounds compute` on a seeded JSON document: one complex family with coefficients."""

    name = "compute"
    item = "document"

    def __init__(self, seed, sizes, workdir):
        super().__init__(sizes)
        rng = np.random.default_rng(seed)
        n, d = sizes.compute_n, sizes.compute_d
        doc = {
            "field": "complex",
            "x": _pairs(_complex_normal(rng, d)),
            "family": _pairs(_complex_normal(rng, (n, d))),
            "coefficients": _pairs(_complex_normal(rng, n)),
        }
        self.doc_path = os.path.join(workdir, "doc.json")
        with open(self.doc_path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(doc))
        self.out_path = os.path.join(workdir, "compute.csv")
        self._first: bytes | None = None

    def call(self, k, force_gram):
        return gb_cli.main(["compute", "--input", self.doc_path, "--out", self.out_path])

    def check(self, k, code):
        if code != 0:
            self.fail(f"run {k}: exit code {code}")
            return
        data = _read(self.out_path)
        self._first = self._first or data
        if data != self._first:
            self.fail(f"run {k}: CSV not byte-identical across runs")
            return
        for row in data.decode().splitlines()[1:]:
            _, _, _, lhs, rhs, _ = row.split(",")
            if not float(lhs) <= float(rhs) * (1.0 + gb_verify.REL_TOL) + gb_verify.ABS_TOL:
                self.fail(f"run {k}: failing row {row}")
                return

    def finish(self):
        if self._first is None:
            return
        x, family, coefficients, _ = gb_cli.parse_input_document(self.doc_path)
        rows = gb_cli.compute_rows(x, family, coefficients, gb_verify.STANDARD_P_LIST)
        if self._first != ("\n".join([gb_cli.CASE_HEADER] + rows) + "\n").encode():
            self.fail("CSV differs from header + compute_rows", 1)


class Scan(Workload):
    """`grambounds scan` on a grid enlarged so that one scan lasts about a second."""

    name = "scan"
    item = "cell"

    def __init__(self, seed, sizes, workdir):
        super().__init__(sizes)
        # The seed moves the start of the p grid; the grid size stays fixed.
        self.eps = 0.005 + 0.01 * float(np.random.default_rng(seed).random())
        self.items_per_op = sizes.scan_nb * sizes.scan_np
        self.out_path = os.path.join(workdir, "scan.csv")
        self._first: bytes | None = None

    def call(self, k, force_gram):
        return gb_cli.main(["scan", "--nb", str(self.sizes.scan_nb), "--np", str(self.sizes.scan_np),
                            "--eps", repr(self.eps), "--out", self.out_path])

    def check(self, k, code):
        if code != 0:
            self.fail(f"run {k}: exit code {code}")
            return
        data = _read(self.out_path)
        if self._first is None:
            problem = self._landmark_problem(data.decode())
            if problem:
                self.fail(f"run {k}: {problem}")
            else:
                self._first = data
        elif data != self._first:
            self.fail(f"run {k}: CSV not byte-identical across runs")

    def _landmark_problem(self, text: str) -> str | None:
        lines = text.splitlines()
        counts = dict(part.split("=") for part in lines[-1][2:].split())
        if int(counts["n_positive"]) == 0 or int(counts["n_negative"]) == 0:
            return f"expected both signs, got {lines[-1]}"
        edge = [float(ln.split(",")[2]) for ln in lines[1:-1] if ln.startswith("1.0,")]
        if len(edge) != self.sizes.scan_np or any(abs(f) > 1e-12 for f in edge):
            return "f(1, p) is not 0 along the b = 1 row"
        mid = [float(ln.split(",")[2]) for ln in lines[1:-1] if ln.startswith("0.5,2.0,")]
        if len(mid) != 1 or abs(mid[0] + 0.25) > 1e-12:
            return f"f(0.5, 2) is {mid}, expected -0.25"
        return None


WORKLOADS = {cls.name: cls for cls in (Corpus, Large, Compute, Scan)}


def make(name: str, seed: int, sizes: Sizes, workdir: str) -> Workload:
    return WORKLOADS[name](seed, sizes, workdir)


@dataclass
class LoopResult:
    untraced_s: list = field(default_factory=list)
    traced_s: list = field(default_factory=list)
    traced_cases: int = 0


def run_loop(workload: Workload, seconds: float, tracer: Tracer | None = None) -> LoopResult:
    """Closed loop with one caller: each operation starts when the previous one has returned.

    At least two operations run, so that every repeat check has a repeat.
    Without a tracer every operation is untraced.  With one, operations
    alternate untraced and traced, so that the two see the same machine
    conditions and their ratio is the tracing overhead.
    """
    clock = time.perf_counter
    result = LoopResult()

    def count_cases(cases):
        result.traced_cases += len(cases)

    # In a traced operation the Gram build is forced as soon as a family
    # exists, so that it shows as its own span instead of inside the first
    # bound that needs it.
    after = {
        "verify.random_family": lambda out: gb_core.gram(out[1]),
        "cli.parse_input_document": lambda out: gb_core.gram(out[1]),
        "verify.evaluate_cases": count_cases,
    }
    deadline = clock() + seconds
    for k in itertools.count():
        if clock() >= deadline and k >= 2:
            break
        traced = tracer is not None and k % 2 == 1
        workload.attempted += workload.items_per_op
        try:
            workload.prepare(k)
            with tracer.installed(after) if traced else nullcontext():
                t0 = clock()
                out = workload.call(k, traced)
                dt = clock() - t0
            workload.check(k, out)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            workload.fail(f"run {k} raised")
            continue
        (result.traced_s if traced else result.untraced_s).append(dt)
    try:
        workload.finish()
    except Exception:
        traceback.print_exc(file=sys.stderr)
        workload.fail("final checks raised", 1)
    return result


def layer_metrics(workload: Workload, stats: dict[str, LayerStats], loop: LoopResult,
                  overhead_pct: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one workload as {metric: (value, unit)}.

    "Per spec" is per FamilySpec in corpus and per verify_all in large; in
    compute and scan times are per operation.  Byte and flop counts are
    computed from the input sizes, not measured.
    """
    name, sizes = workload.name, workload.sizes
    ops = max(len(loop.traced_s), 1)
    specs = ops * workload.items_per_op
    none = LayerStats(0, 0.0, 0.0)

    def calls(fn):
        return stats.get(fn, none).calls

    def total(fn):
        return stats.get(fn, none).total_s

    def own(fn):
        return stats.get(fn, none).self_s

    def per_call(fn):
        return total(fn) / calls(fn) if calls(fn) else 0.0

    m = {}
    if name == "corpus":
        m["corpus.verify.random_family.us_per_spec"] = (total("verify.random_family") / specs * 1e6, "us")
        m["corpus.core.gram.us_per_spec"] = (total("core.gram") / specs * 1e6, "us")
        m["corpus.verify.evaluate_cases.us_per_spec"] = (total("verify.evaluate_cases") / specs * 1e6, "us")
        m["corpus.verify.verify_all.self_us_per_spec"] = (own("verify.verify_all") / specs * 1e6, "us")
        for fn in BOUND_FUNCTIONS:
            m[f"corpus.bounds.{fn}.us_per_call"] = (per_call(f"bounds.{fn}") * 1e6, "us")
            m[f"corpus.bounds.{fn}.calls_per_spec"] = (calls(f"bounds.{fn}") / specs, "count")
        for fn in ("norms.gram_entry_qnorm", "norms.seq_pnorm", "norms.max_row_abs_sum",
                   "core.inner_each", "core.norm"):
            m[f"corpus.{fn}.calls_per_spec"] = (calls(fn) / specs, "count")
        m["corpus.verify.cases_per_spec"] = (loop.traced_cases / specs, "count")
        m["corpus.cli.case_row.us_per_spec"] = (total("cli.case_row") / specs * 1e6, "us")
    elif name == "large":
        n, d = sizes.large_n, sizes.large_d
        gram_s = per_call("core.gram")
        m["large.core.gram.s"] = (gram_s, "s")
        m["large.core.gram.gflop_per_s"] = (8.0 * n * n * d / gram_s / 1e9 if gram_s else 0.0, "GFLOP/s")
        for fn in BOUND_FUNCTIONS:
            m[f"large.bounds.{fn}.ms_per_call"] = (per_call(f"bounds.{fn}") * 1e3, "ms")
        m["large.norms.gram_entry_qnorm.calls_per_spec"] = (calls("norms.gram_entry_qnorm") / specs, "count")
        m["large.norms.gram_entry_qnorm.ms_per_call"] = (per_call("norms.gram_entry_qnorm") * 1e3, "ms")
        m["large.norms.gram_entry_qnorm.bytes_read"] = (8.0 * n * n, "B")
    elif name == "compute":
        m["compute.cli.parse_input_document.s"] = (total("cli.parse_input_document") / ops, "s")
        m["compute.cli.compute_rows.s"] = (total("cli.compute_rows") / ops, "s")
        m["compute.cli.cmd_compute.self_s"] = (own("cli.cmd_compute") / ops, "s")
        m["compute.core.gram.s"] = (total("core.gram") / ops, "s")
    elif name == "scan":
        m["scan.compare.sign_scan.s"] = (total("compare.sign_scan") / ops, "s")
        m["scan.compare.gap_closed_form.us_per_call"] = (per_call("compare.gap_closed_form") * 1e6, "us")
        m["scan.cli.cmd_scan.self_s"] = (own("cli.cmd_scan") / ops, "s")
        m["scan.cli.format_number.s"] = (total("cli.format_number") / ops, "s")
    m[f"{name}.trace_overhead"] = (overhead_pct, "%")
    return m


def tail(values) -> tuple[int, float] | None:
    """(percentile, value) for the highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 20:
        return None
    pct = math.floor(100.0 * (n - 10) / n)
    return pct, float(np.percentile(values, pct))
