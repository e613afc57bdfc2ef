"""Map where each of two competing bound factors wins.

For the one-dimensional family (1), (b) the classical max-row factor and
the power-mean factor have a closed-form difference f(b, p).  This script
scans the box b in [0,1], p in (1,2] and draws a coarse sign map: '+'
where the classical factor is tighter, '-' where the power-mean factor is
tighter, '0' on the boundary.  Neither symbol fills the box — that is the
whole point: the two bounds are not comparable.
"""

import argparse

from grambounds import sign_scan

parser = argparse.ArgumentParser(description=__doc__)
parser.add_argument("--nb", type=int, default=33, help="grid points along b")
parser.add_argument("--np", type=int, default=17, help="grid points along p")
args = parser.parse_args()

report = sign_scan(args.nb, args.np)

print(f"grid: {args.nb} x {args.np} on [0,1] x [{report.grid_p[0]:.2f},2]")
print(f"cells: +{report.n_positive}  -{report.n_negative}  0:{report.n_zero}")
print(f"extremes: min f = {report.min_cell.value:+.4f} at "
      f"(b={report.min_cell.b:.3f}, p={report.min_cell.p:.3f}); "
      f"max f = {report.max_cell.value:+.4f} at "
      f"(b={report.max_cell.b:.3f}, p={report.max_cell.p:.3f})")
print()

# p increases upward, b increases to the right
print("      b: 0" + " " * (args.nb - 4) + "1")
for j in reversed(range(args.np)):
    row = "".join(
        "0" if abs(report.values[i, j]) <= report.zero_tol
        else "+" if report.values[i, j] > 0
        else "-"
        for i in range(args.nb)
    )
    label = f"p={report.grid_p[j]:.2f} " if j in (0, args.np - 1) else " " * 7
    print(f"{label}{row}")
print()
print("the '+' wedge near small b and small p is where the power-mean")
print("factor exceeds the classical one; along b=1 the two coincide.")
