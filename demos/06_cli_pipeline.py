# Driving a full run through the command-line front end.
#
# Everything the library does is also reachable from a batch interface:
# an INI config in, a run directory of CSV tables and a .npy law path out,
# exit codes for scripting.  Here we write a config, call the entry point
# in-process, and read back the artifacts.  The same run from the same
# config and seed is byte-identical apart from the wallclock column, which
# is what makes run directories diffable across machines.

import csv
import pathlib
import tempfile

from hilbert_mfg.cli import main

CONFIG = """
[problem]
model = cap1d_monotone

[numerics]
dt = 0.1
particles = 4000
grid_points = 32
quad_nodes = 8
tau_nodes = 17
fp_tol = 4e-2
fp_max = 30

[run]
seed = 11
"""

work = pathlib.Path(tempfile.mkdtemp(prefix="mfg-demo-"))
cfg = work / "run.ini"
cfg.write_text(CONFIG)

out = work / "run1"
code = main(["solve-mfg", "--config", str(cfg), "--out", str(out)])
print("exit code:", code)
print("artifacts:", sorted(p.name for p in out.iterdir()))

# summary.csv has the one-line verdict: status, iteration count, residual
# certificate and whether it fit inside the statistical budget.
with open(out / "summary.csv") as fh:
    for key, value in list(csv.reader(fh))[1:]:
        print("  summary %-22s %s" % (key, value))

# iterations.csv traces the damped fixed point, one row per pass.
with open(out / "iterations.csv") as fh:
    rows = list(csv.reader(fh))
print("iteration trace columns:", rows[0])
for row in rows[1:]:
    print("  " + ", ".join(row[:3]))

# audit.csv holds the moment, membership and modulus checks that every
# reported equilibrium must pass.
with open(out / "audit.csv") as fh:
    rows = list(csv.reader(fh))
fails = [r for r in rows[1:] if r[-1] == "FAIL"]
print("audit rows: %d, failures: %d" % (len(rows) - 1, len(fails)))

# The check subcommand screens a model without solving anything: coupling
# monotonicity, Hamiltonian constants, and optionally a two-start run.
out2 = work / "screen"
code = main(["check", "--config", str(cfg), "--out", str(out2)])
print("check exit code:", code)
with open(out2 / "check.csv") as fh:
    for row in list(csv.reader(fh))[1:]:
        print("  check " + ", ".join(row))
