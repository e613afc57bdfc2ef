"""Benchmark of grambounds: four closed-loop workloads and a traced per-layer run.

Run from the root of a checkout:

    python3 perfbench/run.py --workload corpus --seed 1729 --seconds 55 --trace 0
    python3 perfbench/run.py --workload all --seconds 55 --out perfbench/results/x.json
    python3 perfbench/run.py --seconds 55 --trace 1

With ``--trace 0`` one workload runs untraced and the end-to-end metrics are
printed.  ``--workload all`` runs each workload in a fresh process and prints
the end-to-end metrics of all four under the names in ``NAMED``.  With
``--trace 1`` every workload runs, alternating untraced and traced
operations, and the per-layer metrics of all four are printed; the time is
split evenly with ``--workload all`` (the default there), and a named
workload gets half of it.  The last line of standard output
is always one JSON object with the keys correct, attempted, failed and metrics.
The exit code is 0 only when every output was correct.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("corpus", "large", "compute", "scan")
BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 5

#: The names the documentation gives each workload's end-to-end numbers, and
#: what each is read from: a metric of the workload's own run, ``rate``
#: (items per operation over ``op_s``) or ``fail_ratio`` (failed / attempted).
NAMED = {
    "corpus": {"corpus.specs_per_s": "rate", "corpus.fail_ratio": "fail_ratio",
               "corpus.peak_rss_mb": "peak_rss_mb"},
    "large": {"large.verify_s": "op_s", "large.fail_ratio": "fail_ratio", "large.peak_rss_mb": "peak_rss_mb"},
    "compute": {"compute.doc_s": "op_s", "compute.fail_ratio": "fail_ratio"},
    "scan": {"scan.cells_per_s": "rate", "scan.fail_ratio": "fail_ratio"},
}

IMPORT_PROBE = (
    "import time\n"
    "t = time.perf_counter()\n"
    "import grambounds\n"
    "print(time.perf_counter() - t)\n"
)


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def cap_blas_threads() -> None:
    """At most one BLAS thread per usable core; set before numpy is imported."""
    cores = nproc()
    for var in BLAS_VARIABLES:
        value = os.environ.get(var, "")
        if not value.isdigit() or not 1 <= int(value) <= cores:
            os.environ[var] = str(cores)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def import_seconds() -> float:
    """Time to import grambounds in a fresh interpreter, measured inside it."""
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=child_env(), cwd=ROOT,
                         capture_output=True, text=True, timeout=120, check=True)
    return float(out.stdout.strip().splitlines()[-1])


def _read_first(path: str, key: str) -> str | None:
    try:
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                if line.startswith(key):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def environment(seed: int) -> dict:
    """Where and on what the numbers were taken."""
    import numpy as np

    blas = None
    try:
        blas = {key: value for key, value in np.show_config(mode="dicts")["Build Dependencies"]["blas"].items()
                if key in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                                    text=True, timeout=30, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    llc = None
    try:
        llc = Path("/sys/devices/system/cpu/cpu0/cache/index3/size").read_text().strip()
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": nproc(),
        "cpu_model": _read_first("/proc/cpuinfo", "model name"),
        "last_level_cache": llc,
        "thread_variables": {var: os.environ.get(var) for var in BLAS_VARIABLES},
        "git_commit": commit,
        "seed": seed,
        "notes": [
            "Byte and flop counts (bytes_read, gflop_per_s) are computed from the input sizes, not measured.",
            "An (n, d) = (1000, 256) family and its Gram matrix (about 20 MB) fit in the last-level cache, "
            "so no memory-bandwidth claim is made.",
        ],
    }


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_untraced(name: str, seed: int, seconds: float, workdir: str, sizes=None) -> dict:
    """Set up one workload several times, then time it untraced for ``seconds``."""
    import workloads

    sizes = sizes or workloads.Sizes()
    setups = []
    for _ in range(SETUP_REPEATS):
        imported = import_seconds()
        t0 = time.perf_counter()
        wl = workloads.make(name, seed, sizes, workdir)
        setups.append(imported + time.perf_counter() - t0)
    times = workloads.run_loop(wl, seconds).untraced_s
    busy = sum(times)
    metrics = {
        "setup_s": metric(statistics.median(setups), "s"),
        "op_s": metric(busy / len(times), "s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
    }
    detail = {
        "item": wl.item,
        "items_per_op": wl.items_per_op,
        "operations": len(times),
        "op_s_median": statistics.median(times),
        "op_s_quartiles": statistics.quantiles(times, n=4),
        "op_s_tail": workloads.tail(times),
        "op_s_each": times,
        "setup_s_each": setups,
        "problems": wl.problems,
    }
    return {"workload": name, "correct": wl.failed == 0, "attempted": wl.attempted, "failed": wl.failed,
            "metrics": metrics, "detail": detail}


def run_traced(seed: int, seconds: float, workdir: str, sizes=None, focus: str = "all") -> dict:
    """Every workload, alternating untraced and traced operations.

    With ``focus="all"`` each workload runs for a quarter of ``seconds``;
    otherwise the focus workload runs for half and the others share the rest.
    """
    import grambounds
    import workloads
    from spans import Tracer

    sizes = sizes or workloads.Sizes()
    metrics, detail = {}, {}
    attempted = failed = 0
    for name in WORKLOAD_NAMES:
        if focus == "all":
            share = 1.0 / len(WORKLOAD_NAMES)
        else:
            share = 0.5 if name == focus else 0.5 / (len(WORKLOAD_NAMES) - 1)
        wl = workloads.make(name, seed, sizes, workdir)
        tracer = Tracer(grambounds)
        loop = workloads.run_loop(wl, seconds * share, tracer)
        untraced = statistics.fmean(loop.untraced_s)
        traced = statistics.fmean(loop.traced_s)
        overhead = 100.0 * (traced / untraced - 1.0)
        stats = tracer.stats()
        for key, (value, unit) in workloads.layer_metrics(wl, stats, loop, overhead).items():
            metrics[key] = metric(value, unit)
        detail[name] = {
            "untraced_op_s": untraced,
            "traced_op_s": traced,
            "spans": len(tracer),
            "layers": {k: v._asdict() for k, v in sorted(stats.items())},
            "problems": wl.problems,
        }
        attempted += wl.attempted
        failed += wl.failed
    return {"workload": "all", "correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics, "detail": detail}


def run_all(seed: int, seconds: float, workdir: str) -> dict:
    """Each workload untraced in a fresh process, so that peak RSS is its own."""
    named, detail = {}, {}
    attempted = failed = 0
    setup_total = 0.0
    for name in WORKLOAD_NAMES:
        out_path = os.path.join(workdir, f"{name}.json")
        proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
                               "--seconds", str(seconds), "--trace", "0", "--out", out_path],
                              cwd=ROOT, capture_output=True, text=True, timeout=600)
        sys.stderr.write(proc.stderr)
        try:
            with open(out_path, encoding="utf-8") as fh:
                child = json.load(fh)
        except (OSError, json.JSONDecodeError):
            attempted += 1
            failed += 1
            detail[name] = {"exit_code": proc.returncode}
            continue
        attempted += child["attempted"]
        failed += child["failed"]
        setup_total += child["metrics"]["setup_s"]["value"]
        source = dict(child["metrics"],
                      rate=metric(child["detail"]["items_per_op"] / child["metrics"]["op_s"]["value"], "1/s"),
                      fail_ratio=metric(child["failed"] / child["attempted"], "1"))
        named.update({key: source[of] for key, of in NAMED[name].items()})
        detail[name] = child
    named["setup_s"] = metric(setup_total, "s")
    return {"workload": "all", "correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": named, "detail": detail}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",),
                        help="required with --trace 0; with --trace 1 the workload given half the time "
                             "(default all: even shares)")
    parser.add_argument("--seed", type=int, default=1729, help="workload seed (default: CORPUS_SEED, 1729)")
    parser.add_argument("--seconds", type=float, default=55.0, help="measured time per run (default 55)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the full result, with the environment, to this JSON file")
    args = parser.parse_args(argv)
    if args.workload is None:
        if not args.trace:
            parser.error("--workload is required with --trace 0")
        args.workload = "all"
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "grambounds" / "__init__.py").is_file():
        print(f"error: no grambounds sources at {SRC}", file=sys.stderr)
        return 2
    cap_blas_threads()
    sys.path[:0] = [str(SRC), str(HERE)]

    workdir = HERE / "work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            result = run_traced(args.seed, args.seconds, str(workdir), focus=args.workload)
        elif args.workload == "all":
            result = run_all(args.seed, args.seconds, str(workdir))
        else:
            result = run_untraced(args.workload, args.seed, args.seconds, str(workdir))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result["environment"] = environment(args.seed)
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(result, fh, indent=1, sort_keys=True)
            fh.write("\n")
    for name, m in result["metrics"].items():
        print(f"{name} = {m['value']!r} {m['unit']}")
    if not result["correct"]:
        print(f"correctness failures: {json.dumps(result['detail'], default=str)[:2000]}", file=sys.stderr)
    summary = {key: result[key] for key in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(summary))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
