"""Float CSV tables: the one number format every artifact uses, and a
writer for numeric arrays.

The module imports no numpy, so the CLI can take the format at import
time, before its --threads cap is exported.
"""

FLOAT_FMT = "%.17g"  # 17 significant digits: every double reads back exactly


def write_table(path, header, table):
    """Write a float array as CSV under a one-line header.

    The bytes are those of np.savetxt(path, table, fmt=FLOAT_FMT,
    delimiter=",", header=header, comments=""), a 1-D table being one
    column, but every row is formatted in a single % pass rather than
    one call per row.
    """
    ncol = 1 if table.ndim == 1 else table.shape[1]
    row = ",".join([FLOAT_FMT] * ncol) + "\n"
    with open(path, "w") as fh:
        fh.write(header + "\n")
        fh.write((row * len(table)) % tuple(table.ravel().tolist()))
