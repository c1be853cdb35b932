"""A reader for sweep CSV, read by the CSV round-trip tests of the CLI.

read_sweep_csv parses disknorms.cli.sweep_csv output back into rows; its
17 significant digits make the floats come back exactly.
"""
import csv

from disknorms.cli import SweepRow


def read_sweep_csv(text: str) -> list[SweepRow]:
    """Parse sweep_csv output back into rows (inverse of sweep_csv)."""
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    reader = csv.DictReader(lines)
    rows = []
    for rec in reader:
        def num(key):
            s = rec.get(key, "")
            return float(s) if s else None
        rows.append(SweepRow(p=float(rec["p"]), eps=num("eps"),
                             norm_f_p=num("norm_f_p"),
                             norm_g_p=num("norm_g_p"),
                             norm_sum_p=num("norm_sum_p"),
                             defect=num("defect"), margin=num("margin"),
                             verdict=rec["verdict"],
                             reason=rec.get("reason", "") or ""))
    return rows
