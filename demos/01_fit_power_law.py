"""Fit the inverse power law to the bundled CAD productivity table.

Walks through the whole worksheet: per-level log columns, the four
regression sums, the slope, and the normalizing constant evaluated both
at the two-decimal lookup exponent and at the classic inverse square.
"""

import math
from pathlib import Path

from lotkalaw import compute_constant, fit_power_law, load_distribution

DATA = Path(__file__).resolve().parents[1] / "data"


def main() -> None:
    dist = load_distribution((DATA / "cad_productivity.csv").read_bytes())
    print(f"{len(dist.xs)} productivity levels, "
          f"{dist.total_authors} authors, {dist.total_contributions} credits")
    print()

    print(f"{'x':>4} {'y':>6} {'log10 x':>9} {'log10 y':>9} {'XY':>9} {'X^2':>9}")
    for x, y in zip(dist.xs[:10].tolist(), dist.ys[:10].tolist()):
        lx, ly = math.log10(x), math.log10(y)
        print(f"{x:>4} {y:>6} {lx:>9.4f} {ly:>9.4f} {lx * ly:>9.4f} {lx * lx:>9.4f}")
    print(f"... {len(dist.xs) - 10} more rows")
    print()

    fit = fit_power_law(dist)
    s = fit.sums
    print(f"sum X  = {s.sum_x:.4f}")
    print(f"sum Y  = {s.sum_y:.4f}")
    print(f"sum XY = {s.sum_xy:.4f}")
    print(f"sum X2 = {s.sum_x2:.4f}")
    print(f"points = {s.point_count}")
    print()
    print(f"exponent n  = {fit.n:.6f}  (displayed as {fit.n:.2f})")
    print(f"intercept   = {fit.intercept:.6f}")
    print(f"constant c  = {fit.c:.6f}  (lookup at n={round(fit.n, 2)}, displayed as {fit.c:.4f})")
    print()

    print("constant under other conventions:")
    print(f"  full-precision exponent: {compute_constant(fit.n):.6f}")
    print(f"  inverse square (n=2):    {compute_constant(2.0):.6f}")
    print()

    print("modelled author share by productivity:")
    for x in (1, 2, 3, 5, 10):
        share = fit.c * x ** -fit.n
        print(f"  x={x:>2}: {100 * share:6.2f}% of authors")


if __name__ == "__main__":
    main()
