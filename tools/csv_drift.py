"""Cell-by-cell drift between two experiment CSVs.

    python3 tools/csv_drift.py BASE.csv NEW.csv

Prints one line per column that both files have, matched by name and in
BASE's order (``wall_time_s`` is skipped): how many cells differ, and the
largest absolute and relative drift of the float cells, relative to BASE.
A float cell is one that parses as a float but not as an int, as
``emit_csv`` writes floats; one that changes from or to ``nan``, or from
``inf``, drifts by inf, absolute and relative.  When the headers differ,
it names the columns only one file has, then reports the shared ones.
Exits 1 when the headers or row counts differ or any other cell differs
(an empty cell against a float counts), and 0 otherwise, so float drift
alone passes and is reported.  Exits 2 on a usage error or on a path it
cannot read as a text CSV, after one ``error: PATH: cannot read CSV:``
line.  A reader that closes the pipe early, such as ``head``, ends it
quietly with status 1.
"""

import csv
import math
import os
import sys

IGNORED = ("wall_time_s",)


def _float(cell):
    try:
        int(cell)
        return None
    except ValueError:
        pass
    try:
        return float(cell)
    except ValueError:
        return None


def drift(base, new):
    """Per-column (differ, max_abs, max_rel, exact_mismatch) of two tables.

    ``base`` and ``new`` are lists of rows, the header first, with the same
    row count; only the columns both headers name are compared.
    """
    new_index, out = {name: k for k, name in enumerate(new[0])}, {}
    for j, name in enumerate(base[0]):
        if name in IGNORED or name not in new_index:
            continue
        k = new_index[name]
        differ, max_abs, max_rel, exact = 0, 0.0, 0.0, False
        for a_row, b_row in zip(base[1:], new[1:]):
            a, b = a_row[j], b_row[k]
            if a == b:
                continue
            differ += 1
            x, y = _float(a), _float(b)
            if x is None or y is None:
                exact = True
                continue
            d = abs(y - x)
            rel = d / abs(x) if x else math.inf
            if math.isnan(d + rel):  # from a nan or an inf base: unbounded
                d = rel = math.inf
            max_abs, max_rel = max(max_abs, d), max(max_rel, rel)
        out[name] = (differ, max_abs, max_rel, exact)
    return out


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print("usage: csv_drift.py BASE.csv NEW.csv", file=sys.stderr)
        return 2
    tables = []
    for path in argv:
        try:
            with open(path, newline="") as fh:
                tables.append(list(csv.reader(fh)))
        except (OSError, UnicodeDecodeError, csv.Error) as exc:
            print(f"error: {path}: cannot read CSV: {exc}", file=sys.stderr)
            return 2
    base, new = tables
    if not base or not new:
        print("headers differ: a file is empty", file=sys.stderr)
        return 1
    failed = base[0] != new[0]
    if failed:
        only = [[c for c in a[0] if c not in b[0]]
                for a, b in ((base, new), (new, base))]
        print(f"headers differ: only BASE has {only[0]}, only NEW has "
              f"{only[1]}", file=sys.stderr)
    if len(base) != len(new):
        print(f"row counts differ: {len(base) - 1} vs {len(new) - 1}",
              file=sys.stderr)
        return 1
    rows = len(base) - 1
    print(f"{'column':<14} {'differ':>9} {'max_abs':>10} {'max_rel':>10}")
    for name, (differ, max_abs, max_rel, exact) in drift(base, new).items():
        failed |= exact
        note = "  non-float cells differ" if exact else ""
        print(f"{name:<14} {differ:>4}/{rows:<4} {max_abs:>10.3g} "
              f"{max_rel:>10.3g}{note}")
    return 1 if failed else 0


if __name__ == "__main__":
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader (say, head) closed the pipe; point stdout at devnull so
        # the flush at exit cannot raise again, and stop without a traceback.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)
