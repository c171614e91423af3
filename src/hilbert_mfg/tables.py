"""CSV tables: the one number format every artifact uses, a writer for
numeric arrays and a writer for rows of mixed cells.

The module imports no numpy, so the CLI can import it at load time,
before its --threads cap is exported.
"""

import csv

FLOAT_FMT = "%.17g"  # 17 significant digits: every double reads back exactly


def write_table(path, header, table):
    """Write a float array as CSV under a one-line header, a 1-D table
    being one column; numpy is imported here, not at module load."""
    import numpy as np
    np.savetxt(path, table, fmt=FLOAT_FMT, delimiter=",", header=header, comments="")


def write_rows(path, header, rows):
    """Write a header row and rows in the csv module's default dialect
    (\\r\\n line ends, quoting where a cell needs it): every float cell,
    numpy's float64 included, in FLOAT_FMT and every other cell as csv
    writes it, so None is an empty cell."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows([FLOAT_FMT % c if isinstance(c, float) else c for c in row]
                    for row in rows)
