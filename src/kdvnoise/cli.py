"""Command-line entry point.

Subcommands: sample, evolve, invariance, tails, lemmas, estimates. Every
run resolves its configuration from the --config file, stamps its short
hash into all outputs, and reports failures as a single-line JSON object on
stderr with exit codes: 0 ok, 2 configuration, 3 I/O, 4 runtime.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .config import ConfigError, config_hash, load_config
from .estimates import SpaceTimeCoeffs, WeightParams, bilinear_ratio_sweep, \
    bracket_product_integral, family_points, quadratic_bracket_sum, \
    resonance_residual_max, resonance_set_integral, time_localization_check
from .flow import FlowConfig, _run_blas_threads, conservation_rows, evolve_checkpoints
from .invariance import ObservableSpec, _evolved, generate, invariance_report, push_forward
from .noise import decay_median_curve, fit_log_tail, tail_sweep
from .snapshots import SnapshotError, load_ensemble, save_ensemble, write_atomic
from .spectral import NormSpec

__all__ = ["main"]

# time localization's table is 2N x (16N^3+1) complex, 34 MB at N=16; an
# estimates run with n_list 16,32 peaks at 148 MB RSS in the calling process
_TIME_LOC_MAX_N = 16
# tails rows per run; the K grid is counted against it before it is built
_K_VALUES_MAX = 10**4


def _fail(code, message):
    payload = {"error": {"code": code, "message": str(message).replace("\n", "; ")}}
    print(json.dumps(payload), file=sys.stderr)
    return {"config": 2, "io": 3, "runtime": 4}[code]


@contextlib.contextmanager
def _config_values():
    # a ValueError while a run's parameters are built is a configuration mistake
    try:
        yield
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


# each CSV's columns in order, each with the format spec of its values
_TABLES = {
    "conservation.csv": "member,l2_drift_abs:.6e,l2_drift_rel:.6e,"
                        "hamiltonian_drift_abs:.6e,hamiltonian_drift_rel:.6e",
    "observables.csv": "name,D:.10g,threshold:.10g,passes:d,mean_a:.10g,mean_b:.10g,"
                       "mean_se:.10g,var_a:.10g,var_b:.10g",
    "tails.csv": "K:g,count,samples,estimate:.10g,stderr:.10g,wilson_low:.10g,"
                 "wilson_high:.10g,censored:d",
    "lemmas.csv": "name,value:.10g,note",
    "estimates.csv": "N,trial,family,ratio:.10g,config_hash",
    "time_localization.csv": "T:g,ratio:.10g,config_hash",
}


def _write_csv(out, name, h, rows):
    """The stamp line, the header of _TABLES[name], then one line per row mapping."""
    columns = [c.partition(":")[::2] for c in _TABLES[name].split(",")]
    with write_atomic(os.path.join(out, name), encoding="utf-8") as fh:
        fh.write(f"# tool=kdvnoise {__version__} config_hash={h}\n")
        fh.write(",".join(col for col, _ in columns) + "\n")
        for row in rows:
            fh.write(",".join(format(row[col], spec) for col, spec in columns) + "\n")


def _write_json(out, name, h, obj):
    obj = dict(obj, tool=f"kdvnoise {__version__}", config_hash=h)
    # allow_nan=False: a NaN would make the file invalid JSON
    with write_atomic(os.path.join(out, name), encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def _headline_observables():
    return [
        ObservableSpec.mode_re(1),
        ObservableSpec.mode_im(2),
        ObservableSpec.mode_abs2(3),
        ObservableSpec.l2_mass(),
        ObservableSpec.norm(NormSpec(-0.49, 2.1, math.inf)),
    ]


def cmd_sample(cfg, h, out):
    ens = generate(cfg["N"], cfg["count"], seed=cfg["seed"])
    save_ensemble(ens, os.path.join(out, "ensemble.snap"))
    return 0


def cmd_evolve(cfg, h, out):
    ens = load_ensemble(cfg["input"])
    with _config_values():
        fc = FlowConfig(dt=cfg["dt"], T=cfg["T"])
    cps = sorted(set(cfg["checkpoints"]))
    for c in cps:
        if not 0.0 < c < cfg["T"]:
            raise ConfigError(f"checkpoint {c} outside (0, T)")
    names = [f"checkpoint_{c:g}.snap" for c in cps]
    if len(set(names)) < len(names):
        raise ConfigError(f"checkpoints {cps} do not all get distinct file names")
    with _config_values():
        states = evolve_checkpoints(ens.coeffs, fc, cps + [fc.T])

    for (t, coeffs), name in zip(states, names + ["ensemble_final.snap"]):
        final = _evolved(ens, fc, coeffs, t)
        save_ensemble(final, os.path.join(out, name))

    rows = conservation_rows(ens.coeffs, final.coeffs)
    _write_csv(out, "conservation.csv", h, (dict(r, member=i) for i, r in enumerate(rows)))
    return 0


def cmd_invariance(cfg, h, out):
    base = generate(cfg["N"], cfg["count"], seed=cfg["seed"])
    with _config_values():
        fc = FlowConfig(dt=cfg["dt"], T=cfg["T"])
    evolved = push_forward(base, fc)
    report = invariance_report(base, evolved, _headline_observables(), cfg["alpha"])
    # the OpenBLAS threads the flow ran on: 1, or null without the thread control
    report["blas_threads"] = _run_blas_threads()
    _write_json(out, "report.json", h, report)
    _write_csv(out, "observables.csv", h, report["observables"])
    return 0


def _parse_q(raw):
    low = str(raw).strip().lower()
    if low in ("inf", "infinity", ""):
        return math.inf
    try:
        return float(low)
    except ValueError:
        raise ConfigError(f"bad value for 'q': {raw!r} (expected a number or inf)") from None


def cmd_tails(cfg, h, out):
    with _config_values():
        spec = NormSpec(cfg["s"], cfg["p"], _parse_q(cfg["q"]))
    if cfg["k_min"] > cfg["k_max"]:
        raise ConfigError(f"empty K range: k_min={cfg['k_min']:g} > k_max={cfg['k_max']:g}")
    stop = cfg["k_max"] + 0.5 * cfg["k_step"]
    # np.arange's own count, ceil((stop - k_min) / k_step); inf fails the test too
    if not (stop - cfg["k_min"]) / cfg["k_step"] <= _K_VALUES_MAX:
        raise ConfigError(f"K grid k_min={cfg['k_min']:g}..k_max={cfg['k_max']:g} by "
                          f"k_step={cfg['k_step']:g} has more than {_K_VALUES_MAX} values")
    Ks = np.arange(cfg["k_min"], stop, cfg["k_step"])
    rows = tail_sweep(spec, cfg["N"], Ks, cfg["samples"], cfg["seed"])
    _write_csv(out, "tails.csv", h, rows)
    _write_json(out, "tail_fit.json", h, fit_log_tail(rows))
    return 0


def cmd_lemmas(cfg, h, out):
    bound = cfg["resonance_bound"]
    _, ratio = bracket_product_integral(0.5, 0.5, 1000.0)
    total, tail = quadratic_bracket_sum(1, 0.0, 1.0, 1.0, cfg["psum_cutoff"])
    med = decay_median_curve([cfg["decay_m_max"]], cfg["decay_delta"],
                             cfg["decay_seeds"], seed0=cfg["seed"])[0]
    rows = [
        ("resonance_exhaustive", resonance_residual_max(bound),
         f"max |cubic residual| over |n_i|<={bound}"),
        ("bracket_product", ratio, "decay ratio at alpha=beta=0.5 a=1000"),
        ("quadratic_sum", total, f"tail bound {tail:.3e}"),
        ("resonance_set", resonance_set_integral(10, 0.75, c0=1.0), "exponent 3/4 at n=10"),
        ("decay_ratio", med, f"median at M={cfg['decay_m_max']} delta={cfg['decay_delta']:g}"),
    ]
    _write_csv(out, "lemmas.csv", h, (dict(name=n, value=v, note=t) for n, v, t in rows))
    return 0


def cmd_estimates(cfg, h, out):
    params = WeightParams(C=cfg["C"], c0=cfg["c0"], delta=cfg["delta"])
    N = min(cfg["n_list"])  # time localization runs at the smallest cutoff
    if cfg["time_loc"] and N > _TIME_LOC_MAX_N:
        raise ConfigError(f"time localization needs min(n_list) <= {_TIME_LOC_MAX_N}, got {N}")
    rows = bilinear_ratio_sweep(
        cfg["s"], cfg["p"], params, cfg["n_list"], cfg["trials"], cfg["seed"], weighted=True
    )
    _write_csv(out, "estimates.csv", h, (dict(r, config_hash=h) for r in rows))
    if cfg["time_loc"]:
        f = SpaceTimeCoeffs.from_points(N, family_points("free_curve", N, cfg["p"], None)[0])
        tl_rows = (
            {"T": T, "ratio": time_localization_check(f, T, cfg["s"], cfg["p"]), "config_hash": h}
            for T in (2.0**-k for k in range(7))
        )
        _write_csv(out, "time_localization.csv", h, tl_rows)
    return 0


_COMMANDS = {
    "sample": cmd_sample,
    "evolve": cmd_evolve,
    "invariance": cmd_invariance,
    "tails": cmd_tails,
    "lemmas": cmd_lemmas,
    "estimates": cmd_estimates,
}


class _Parser(argparse.ArgumentParser):
    """Reports a malformed command line as a configuration error (exit 2)."""

    def error(self, message):
        raise ConfigError(message)


def _build_parser():
    common = _Parser(add_help=False)
    common.add_argument("--config", default=None, help="INI file with a [subcommand] section")
    common.add_argument("--out", required=True, help="output directory")
    common.add_argument("--verbose", action="store_true")
    parser = _Parser(prog="kdvnoise")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in _COMMANDS:
        sub.add_parser(name, parents=[common])
    return parser


def main(argv=None):
    try:
        args = _build_parser().parse_args(argv)
        leftover = sorted(k for k in os.environ if k.startswith("KDVNOISE_"))
        if leftover:
            raise ConfigError(f"settings come only from --config; unset {', '.join(leftover)}")
        cfg = load_config(args.subcommand, args.config)
        h = config_hash(cfg)
        if args.verbose:
            print(f"kdvnoise {__version__} {args.subcommand} config_hash={h}", file=sys.stdout)
        # the output directory is made by the first file written into it
        return _COMMANDS[args.subcommand](cfg, h, args.out)
    except SystemExit as exc:  # -h
        return exc.code if isinstance(exc.code, int) else 2
    except ConfigError as exc:
        return _fail("config", exc)
    except (SnapshotError, OSError) as exc:
        return _fail("io", exc)
    # RuntimeError: a flow blowup, or a worker process that died
    except (RuntimeError, ValueError, MemoryError) as exc:
        return _fail("runtime", exc)


if __name__ == "__main__":
    sys.exit(main())
