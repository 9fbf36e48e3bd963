"""The Wigner function of a cat state: negative fringes, exact marginals,
and the identity between its conditional momentum average and the best
classical momentum estimate."""

import csv
import sys

import numpy as np

from exact_uncertainty import (
    GridPureState,
    GridSpec,
    classical_estimate,
    gaussian_state,
    wigner_average_momentum,
    wigner_transform,
)
from exact_uncertainty.wigner import wigner_to_csv_rows

grid = GridSpec(512, -24.0, 24.0)
raw = gaussian_state(grid, 1.0, center=-4.0).amplitudes \
    + gaussian_state(grid, 1.0, center=4.0, momentum=1.0).amplitudes
cat = GridPureState(grid, raw)

w = wigner_transform(cat)
print(f"integral of W over phase space : {w.total:.12f}")
print(f"most negative value            : {w.values.min():+.4f}  "
      f"(interference fringe between the lumps)")
print(f"position marginal error        : "
      f"{np.max(np.abs(w.position_marginal() - cat.position_density())):.2e}")

x, p_avg, mask = wigner_average_momentum(w)
comp = classical_estimate(cat, "position", "P")
dev = np.abs(p_avg - comp.values) * w.position_marginal()
print(f"max weighted |P_av - P_cl|     : {dev[mask & comp.mask].max():.2e}")
print("the momentum average of each Wigner column IS the best classical estimate")

if len(sys.argv) > 1:
    with open(sys.argv[1], "w", newline="") as fh:
        # the whole W as one row block, passed through the CSV writer
        for _ in wigner_to_csv_rows([(slice(None), w.values, w.imaginary_residue)],
                                    w.x_grid, w.p_grid, csv.writer(fh)):
            pass
    print(f"wrote W(x,p) matrix to {sys.argv[1]}")
