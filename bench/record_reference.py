"""Record the estimates workload's reference values into reference.json.

The sweep families other than "random" do not draw from the trial seed, so
their ratios are fixed per (mode, N, family) and can be pinned; the
time-localization input is fixed, so its ratio is pinned per T = 2^-k. The
committed file was recorded from the program at the commit that added the
benchmark. Re-record only when a change to what is computed is intended:

    PYTHONPATH=src python3 bench/record_reference.py
"""
from __future__ import annotations

import json
import math

from workloads import REFERENCE_PATH, Estimates, curve_table

from kdvnoise.estimates import bilinear_ratio_sweep, time_localization_check


def main():
    ref = {"sweep": {}, "time_localization": {}}
    for mode, (params, weighted) in Estimates.MODES.items():
        table = {}
        for N in Estimates.N_LIST:
            fixed = {}
            for seed in (0, 1):
                rows = bilinear_ratio_sweep(
                    Estimates.S, Estimates.P, params, [N], Estimates.TRIALS, seed, weighted=weighted
                )
                for r in rows:
                    if r["family"] == "random":
                        continue
                    prev = fixed.setdefault(r["family"], r["ratio"])
                    if prev != r["ratio"]:
                        raise SystemExit(f"{r['family']} at N={N} depends on the seed")
            table[str(N)] = fixed
        ref["sweep"][mode] = table
    f = curve_table(Estimates.TL_N, Estimates.P)
    for k in range(7):
        ratio = time_localization_check(f, 2.0**-k, Estimates.S, Estimates.P)
        if not math.isfinite(ratio):
            raise SystemExit(f"time-localization ratio at T=2^-{k} is not finite")
        ref["time_localization"][str(k)] = ratio
    with open(REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
