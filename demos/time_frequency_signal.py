"""A chirped pulse analysed as a signal: instantaneous frequency is the
best frequency estimate at each time, and the residual fluctuation obeys
the same exact product law as position and momentum."""

import numpy as np

from exact_uncertainty import GridSpec, gaussian_pulse, instantaneous_frequency, verify_time_frequency
from exact_uncertainty.signals import signal_from_samples

tgrid = GridSpec(1024, -10.0, 10.0)
pulse = gaussian_pulse(tgrid, width=0.8, carrier=1.2, chirp=0.7)

t, f_inst, mask = instantaneous_frequency(pulse)
core = np.abs(pulse.amplitudes) ** 2 > 1e-3
print("instantaneous frequency sweeps the chirp:")
for i in np.linspace(0, tgrid.n_points - 1, 7, dtype=int):
    if core[i]:
        print(f"  t = {t[i]:+5.2f}   f_inst = {f_inst[i]:+.4f}")

report = verify_time_frequency(pulse)
print(f"\nFisher time delta_t        : {report.notes['fisher_time']:.6f}")
print(f"Var f (spectral)           : {report.notes['var_frequency']:.6f}")
print(f"Var f_inst (subtracted)    : {report.notes['var_instantaneous']:.6f}")
print(f"Delta_f_fluc * delta_t     : {report.left:.10f}   (1/4pi = {report.right:.10f})")
print(f"verdict: {report.verdict}, residual {report.residual:.2e}")

print("\na causal (switched-on) pulse cannot play this game:")
t = tgrid.points()
causal = signal_from_samples(t, np.where(t >= -2.0, np.exp(-t ** 2 / 2), 0.0))
report = verify_time_frequency(causal)
print(f"flag: {report.notes['fisher_flag']}  ->  delta_t -> 0 under refinement and the"
      f" spectral variance diverges with the band")
