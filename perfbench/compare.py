"""Compare two sets of saved benchmark outputs.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds the captured standard output of ``run.py`` runs, one
file per run.  For every workload and end-to-end metric this prints each
set's median and quartile spread and the change against the bound in
``BENCHMARK.json``.  Any difference in the environment fingerprints, within
a set or between the sets, is flagged: numbers from different BLAS builds,
thread counts or core counts are not comparable.  Exit status 1 means a
metric got worse by more than its bound or the fingerprints differ.
"""

import json
import statistics
import sys
from pathlib import Path

from envinfo import ENV_FIELDS


def load_records(directory):
    records = []
    for path in sorted(Path(directory).iterdir()):
        if not path.is_file():
            continue
        for line in path.read_text().splitlines():
            if line.startswith("{") and '"fingerprint"' in line:
                records.append(json.loads(line))
    return records


def fingerprint_mismatches(records):
    """Environment fields that take more than one value across records."""
    out = {}
    for key in ENV_FIELDS:
        values = {json.dumps(r["fingerprint"].get(key), sort_keys=True)
                  for r in records}
        if len(values) > 1:
            out[key] = sorted(values)
    return out


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv):
    base_dir, new_dir = argv
    bench = json.loads((Path(__file__).resolve().parent.parent
                        / "BENCHMARK.json").read_text())
    base, new = load_records(base_dir), load_records(new_dir)
    bad = False
    for key, values in fingerprint_mismatches(base + new).items():
        print(f"FINGERPRINT MISMATCH {key}: {', '.join(values)}")
        bad = True
    for label, recs in (("base", base), ("new", new)):
        commits = sorted({str(r["fingerprint"].get("commit")) for r in recs})
        print(f"{label}: {len(recs)} runs, commits {', '.join(commits)}")
    for wl in bench["workloads"]:
        name = wl["name"]
        b = [r for r in base if r["workload"] == name and r["trace"] == 0]
        n = [r for r in new if r["workload"] == name and r["trace"] == 0]
        if not b or not n:
            print(f"{name}: missing runs (base {len(b)}, new {len(n)})")
            continue
        print(f"{name}: base {len(b)} runs, new {len(n)} runs")
        for m in bench["end_to_end"]:
            bv = [r["metrics"][m["name"]]["value"] for r in b]
            nv = [r["metrics"][m["name"]]["value"] for r in n]
            bm, nm = statistics.median(bv), statistics.median(nv)
            change = (nm - bm) / bm if bm else 0.0
            worse = change if m["better"] == "lower" else -change
            flag = "WORSE" if worse > m["bound"] else "ok"
            bad |= flag == "WORSE"
            spreads = ""
            if len(bv) >= 2 and len(nv) >= 2:
                spreads = (f"  spread {spread(bv):.3f}/{spread(nv):.3f}")
            print(f"  {m['name']:>22} {bm:.6g} -> {nm:.6g} {m['unit']:<6} "
                  f"{change:+.3%} (bound {m['bound']:.0%}) {flag}{spreads}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
