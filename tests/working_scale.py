"""Best-of-3 wall times of the derived brackets at the working scale.

On the two dim-6 rungs, the unipotent ladder bundle
(`test_opcohomology._unipotent_operator_data(6)`) and the dense
fractional one (`conftest.fractional_ladder_data(6)`), prints the time
of `brackets.dk_difference` at degrees 2, 3 and 4 and of one
`brackets.check_maurer_cartan` on the bundle's operator, each the best
of three runs, one line per rung.  Two last lines give
`opcohomology.operator_cohomology`, timed the same way, on the unipotent
rung at degrees 1 to 4 and on the dense rung at degrees 2 to 4, each
with the dimensions (dim Z, dim B, dim H) it read.  A run takes about
50 s:

    PYTHONPATH=src python tests/working_scale.py

This is a script, not a pytest module; it stands in for a working-scale
workload of `bench/`.
"""

from __future__ import annotations

import time

from conftest import fractional_ladder_data
from prelie.brackets import check_maurer_cartan, dk_difference
from prelie.opcohomology import operator_cohomology
from test_opcohomology import _unipotent_operator_data

DIM = 6
DEGREES = (2, 3, 4)
COHOMOLOGY_DEGREES = {"unipotent": (1, 2, 3, 4), "dense": (2, 3, 4)}
REPEATS = 3


def best_of(run) -> float:
    """The least wall time of ``REPEATS`` calls of ``run``, in seconds."""
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        run()
        times.append(time.perf_counter() - start)
    return min(times)


def cohomology_cell(data, degree: int) -> str:
    """The best-of time of `operator_cohomology` at ``degree``, with its dimensions."""
    reports = []
    seconds = best_of(lambda: reports.append(operator_cohomology(data, degree)))
    report = reports[0]
    return (f"operator_cohomology({degree}) {seconds:.4f} s "
            f"({report.dim_z}/{report.dim_b}/{report.dim_h})")


def main() -> None:
    rungs = {"unipotent": _unipotent_operator_data(DIM), "dense": fractional_ladder_data(DIM)}
    for name, data in rungs.items():
        g, rep, H, K = data.algebra, data.rep, data.cocycle, data.operator
        cells = [f"dk_difference({degree}) {best_of(lambda: dk_difference(data, degree)):.3f} s"
                 for degree in DEGREES]
        mc = best_of(lambda: check_maurer_cartan(g, rep, H, K))
        cells.append(f"check_maurer_cartan {mc:.4f} s")
        print(f"dim {DIM} {name}: " + ", ".join(cells), flush=True)
    for name, data in rungs.items():
        cells = [cohomology_cell(data, degree) for degree in COHOMOLOGY_DEGREES[name]]
        print(f"dim {DIM} {name}: " + ", ".join(cells), flush=True)


if __name__ == "__main__":
    main()
