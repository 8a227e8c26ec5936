"""Test the fitted law against the data with both K-S statistics.

Prints the full observed-versus-expected worksheet, then the pointwise
and cumulative maxima against critical values at several thresholds.
The worksheet is one numpy record array: ``report.pointwise_diff`` is a
column, and iterating gives one record per level.
The two statistics disagree loudly on this table; neither clears even
the loosest threshold, so the corpus does not conform to the law.
"""

from pathlib import Path

import numpy as np

from lotkalaw import (
    COEFFICIENT_PRESETS,
    fit_power_law,
    ks_report,
    load_distribution,
    run_ks,
)

DATA = Path(__file__).resolve().parents[1] / "data"


def main() -> None:
    dist = load_distribution((DATA / "cad_productivity.csv").read_bytes())
    fit = fit_power_law(dist)
    report = ks_report(dist, fit.n, fit.c)

    print(f"model: y(x) proportional to x^-{fit.n:.4f}, c = {fit.c:.4f}")
    print()
    header = f"{'x':>4} {'y':>6} {'obs':>9} {'obs cum':>9} {'exp':>9} {'exp cum':>9} {'diff':>9}"
    print(header)
    for row in report:
        print(
            f"{row.x:>4} {row.y:>6} {row.observed_proportion:>9.5f} "
            f"{row.observed_cumulative:>9.5f} {row.expected_proportion:>9.5f} "
            f"{row.expected_cumulative:>9.5f} {row.pointwise_diff:>9.4f}"
        )
    print()

    d_pw = report.pointwise_diff.max()
    d_cum = np.abs(report.cumulative_diff).max()
    print(f"d_max pointwise  = {d_pw:.6f} (max signed row difference)")
    print(f"d_max cumulative = {d_cum:.6f} (max absolute cumulative gap)")
    print()

    print(f"{'threshold':>10} {'coeff':>6} {'critical':>10} {'pointwise':>10} {'cumulative':>11}")
    for name, coeff in sorted(COEFFICIENT_PRESETS.items(), key=lambda kv: -kv[1]):
        result = run_ks(dist, fit.n, fit.c, coeff)
        print(
            f"{name:>10} {coeff:>6.2f} {result.critical_value:>10.6f} "
            f"{'yes' if result.conforms_pointwise else 'no':>10} "
            f"{'yes' if result.conforms_cumulative else 'no':>11}"
        )
    print()
    print("16006 authors push every critical value far below both maxima:")
    print("the inverse power law is a poor description of this corpus.")


if __name__ == "__main__":
    main()
