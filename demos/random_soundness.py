"""Batch-verify every inequality on random inputs and report the margins.

A shrunk version of the acceptance corpus: a few hundred random
(x, family, coefficients) triples across both fields and a range of
scales, every bound evaluated at several exponents.  The table shows how
close each bound family comes to equality at its tightest — none should
ever dip below zero by more than float rounding.
"""

import argparse
from collections import defaultdict

from grambounds import random_specs, verify_corpus

parser = argparse.ArgumentParser(description=__doc__)
parser.add_argument("--specs", type=int, default=400, help="number of random inputs")
parser.add_argument("--seed", type=int, default=7, help="master seed")
args = parser.parse_args()

tightest = defaultdict(lambda: None)


def track(spec, case):
    rel = case.margin / case.value if case.value else 0.0
    prev = tightest[case.bound_id]
    if prev is None or rel < prev:
        tightest[case.bound_id] = rel


result = verify_corpus(random_specs(args.specs, args.seed), on_case=track)

print(f"specs={result.n_specs}  cases={result.n_cases}  "
      f"pass={result.n_pass}  fail={result.n_fail}")
print()
print(f"{'bound':<12} {'cases':>7}  tightest relative margin")
for bound_id, count in sorted(result.cases_by_id.items()):
    rel = tightest[bound_id]
    note = "  <- equality is attainable" if rel is not None and rel < 1e-9 else ""
    print(f"{bound_id:<12} {count:>7}  {rel:+.3e}{note}")

if result.worst is not None:
    spec, case = result.worst
    print()
    print(f"tightest case overall: {case.bound_id} (p={case.p}) "
          f"margin={case.margin:.3e} on seed={spec.seed}")
