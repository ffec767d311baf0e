"""Command-line front end.

Subcommands: spectrum, state, evolve, figures, verify, measure-check,
oracle.  Figure recipes fig1..fig11 reproduce the published time series
(alpha = 0.1+0.2i or 1+2i, k = 1, N = 50) as CSV with a JSON metadata
sidecar, so every emitted file records the exact configuration that
produced it.

Exit codes: 0 success, 1 verification failure, 2 usage/validation error.
state, evolve and figures exit 2 when the truncation drops more than
TAIL_BOUND of the coherent state's norm, naming the smallest --trunc that
keeps it (evolution.tail_bound); state reports that bound as tail_mass.
Every setting is a flag whose default lives in build_parser, except those
that depend on --model: --k (linear only) and --omega (pt only) default to
their model's field, and state --trunc resolves to 50 or 60 by model.
A flag of the other model is rejected.
KGCOHERENT_OUTDIR overrides the directory of relative output paths.
"""

import argparse
import dataclasses
import functools
import json
import math
import os
import sys

import numpy as np

from . import evolution, linear_osc, poschl_teller, verify
from . import oracle as oracle_mod

CSV_HEADER = "t,dx,dp,product,ex,ep"
# Most norm a truncated coherent state may drop (state, evolve, figures): the
# eigenstate residual bound of `verify coherence`, and far below the nine
# digits the series CSV prints.
TAIL_BOUND = 1e-10
# oracle's FD potential of each --model, called with the model's fields
FD_POTENTIALS = {"linear": oracle_mod.linear_potential, "pt": oracle_mod.pt_potential}


FIGURES = {
    "fig1": {"alpha": "0.1+0.2i", "t1": 50.0, "column": "product"},
    "fig2": {"alpha": "1+2i", "t1": 100.0, "column": "product"},
    "fig3": {"alpha": "1+2i", "t1": 100.0, "column": "product"},
    "fig4": {"alpha": "0.1+0.2i", "t1": 50.0, "column": "dx"},
    "fig5": {"alpha": "0.1+0.2i", "t1": 50.0, "column": "dp"},
    "fig6": {"alpha": "1+2i", "t1": 100.0, "column": "dx"},
    "fig7": {"alpha": "1+2i", "t1": 100.0, "column": "dp"},
    "fig8": {"alpha": "0.1+0.2i", "t1": 50.0, "column": "ex"},
    "fig9": {"alpha": "0.1+0.2i", "t1": 50.0, "column": "ep"},
    "fig10": {"alpha": "1+2i", "t1": 100.0, "column": "ex"},
    "fig11": {"alpha": "1+2i", "t1": 100.0, "column": "ep"},
}


class UsageError(Exception):
    pass


def parse_alpha(text):
    """Parse 'a+bi' / 'a-bi' (whitespace tolerated, pure real/imaginary ok)."""
    s = "".join(str(text).split())
    if s.endswith("i"):
        s = s[:-1] + "j"
    try:
        alpha = complex(s)
    except ValueError:
        raise UsageError(f"cannot parse alpha {text!r}; expected a+bi")
    if not np.isfinite(alpha):
        raise UsageError(f"alpha must be finite, got {text!r}")
    return alpha


def _out_path(path):
    if path in (None, "-"):
        return None
    outdir = os.environ.get("KGCOHERENT_OUTDIR")
    if outdir and not os.path.isabs(path):
        path = os.path.join(outdir, path)
    return path


def _write_text(path, text):
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _json_dumps(payload):
    return json.dumps(payload, indent=2) + "\n"


def _build_model(args):
    # --k belongs to the linear model and --omega to Poschl-Teller; an unset
    # one takes its model's default (LinearModel.k, PTModel.omega)
    own, other, cls = (("k", "omega", linear_osc.LinearModel) if args.model == "linear"
                       else ("omega", "k", poschl_teller.PTModel))
    if getattr(args, other) is not None:
        raise UsageError(f"--{other} does not apply to --model {args.model}")
    value = getattr(args, own)
    return cls(args.m) if value is None else cls(args.m, value)


def _model_config(args, model):
    return {"model": args.model, **dataclasses.asdict(model)}


def _checked_tail(model, alpha, truncation):
    """evolution.tail_bound of the truncation; UsageError naming the smallest
    passing --trunc if it is above TAIL_BOUND."""
    mu = abs(alpha) * abs(alpha)
    dropped = evolution.tail_bound(model, mu, truncation)
    if dropped <= TAIL_BOUND:
        return dropped
    drop = (f"drops up to {dropped:.3g} of" if math.isfinite(dropped)
            else "cannot bound the part it drops of")
    raise UsageError(
        f"--trunc {truncation} {drop} the state's norm at |alpha| = {abs(alpha):g}, "
        f"above {TAIL_BOUND:g}; the smallest --trunc that passes is "
        f"{evolution.smallest_truncation(model, mu, TAIL_BOUND)}")


def _series_csv(model, alpha, truncation, t0, t1, dt):
    spec = linear_osc.CoherentSpec(alpha, truncation)
    t_grid = np.arange(t0, t1 + 0.5 * dt, dt)
    ts = linear_osc.time_series(model, spec, t_grid)
    columns = (ts.t, ts.dx, ts.dp, ts.product, ts.mean_x, ts.mean_p)
    rows = ["%.9g,%.9g,%.9g,%.9g,%.9g,%.9g" % row
            for row in zip(*(c.tolist() for c in columns))]
    return "\n".join([CSV_HEADER] + rows) + "\n"


# ---------------------------------------------------------------------------
# subcommands


def cmd_spectrum(args):
    model = _build_model(args)
    if args.levels < 1:
        raise UsageError("level count must be >= 1")
    energy = model.energies(args.levels - 1)
    epsilon = energy ** 2 / (2.0 * model.m)
    rows = ["%d,%.9g,%.9g" % (n, e, eps)
            for n, (e, eps) in enumerate(zip(energy.tolist(), epsilon.tolist()))]
    _write_text(_out_path(args.output), "\n".join(["n,energy,epsilon"] + rows) + "\n")
    return 0


def cmd_state(args):
    model = _build_model(args)
    alpha = parse_alpha(args.alpha)
    default = 50 if isinstance(model, linear_osc.LinearModel) else 60
    truncation = default if args.trunc is None else args.trunc
    if truncation < 1:
        raise UsageError("require trunc >= 1")
    tail = _checked_tail(model, alpha, truncation)
    c = evolution.coherent_coefficients(model, alpha, truncation).coefficients
    cum = np.cumsum(np.abs(c) ** 2)
    rows = [{"n": int(n), "re": c[n].real, "im": c[n].imag,
             "abs2": float(abs(c[n]) ** 2), "cumulative_norm": float(cum[n])}
            for n in range(c.size)]
    payload = {
        "config": {**_model_config(args, model),
                   "alpha": [alpha.real, alpha.imag], "trunc": truncation},
        "tail_mass": tail,
        "coefficients": rows,
    }
    _write_text(_out_path(args.output), _json_dumps(payload))
    return 0


def cmd_evolve(args):
    model = _build_model(args)
    if not isinstance(model, linear_osc.LinearModel):
        raise UsageError("evolve emits the closed-form series: model must be linear")
    alpha = parse_alpha(args.alpha)
    if not (args.t0 < args.t1 and args.dt > 0.0 and args.trunc >= 1):
        raise UsageError("require t0 < t1, dt > 0, trunc >= 1")
    _checked_tail(model, alpha, args.trunc)
    _write_text(_out_path(args.output),
                _series_csv(model, alpha, args.trunc, args.t0, args.t1, args.dt))
    return 0


def cmd_figures(args):
    if args.identifier not in FIGURES:
        raise UsageError(f"unknown figure {args.identifier!r} (fig1..fig11)")
    recipe = FIGURES[args.identifier]
    # a figure is an `evolve` run: the recipe's alpha and t1 on evolve's defaults
    series = _parser().parse_args(
        ["evolve", f"--alpha={recipe['alpha']}", f"--t1={recipe['t1']!r}"])
    series.output = f"{args.identifier}.csv" if args.output is None else args.output
    cmd_evolve(series)
    run = {**_model_config(series, _build_model(series)), "alpha": series.alpha,
           "trunc": series.trunc, "t0": series.t0, "t1": series.t1,
           "dt": series.dt, "column": recipe["column"]}
    out = _out_path(series.output)
    meta = {"figure": args.identifier, "config": run, "columns": CSV_HEADER.split(",")}
    if out is not None:
        _write_text(os.path.splitext(out)[0] + ".meta.json", _json_dumps(meta))
    return 0


def cmd_verify(args):
    try:
        checks = verify.run_suite(args.suite)
    except KeyError:
        raise UsageError(f"unknown suite {args.suite!r}")
    ok = all(c["passed"] for c in checks)
    payload = {"suite": args.suite, "passed": ok, "checks": checks}
    _write_text(_out_path(args.output), _json_dumps(payload))
    for c in checks:
        status = "PASS" if c["passed"] else "FAIL"
        print(f"[{status}] {c['name']}: value={c['value']:.3e} "
              f"bound={c['bound']:.3e}", file=sys.stderr)
    return 0 if ok else 1


def cmd_measure_check(args):
    model = poschl_teller.PTModel(args.m, args.omega)
    report = poschl_teller.verify_measure_moments(model, args.n_max, args.tol)
    ok = all(r["passed"] for r in report)
    payload = {
        "config": {"m": args.m, "omega": args.omega,
                   "n_max": args.n_max, "tol": args.tol},
        "passed": ok,
        "moments": report,
    }
    _write_text(_out_path(args.output), _json_dumps(payload))
    return 0 if ok else 1


def cmd_oracle(args):
    model = _build_model(args)
    count = args.levels
    spec = FD_POTENTIALS[args.model](**dataclasses.asdict(model),
                                     count=args.points)
    rep = oracle_mod.spectrum_compare(spec, model.energies(count - 1))
    ok = rep["converged"] and rep["max_rel_error"] <= 1e-3
    payload = {
        "config": {**_model_config(args, model), "levels": count,
                   "points": args.points},
        "passed": bool(ok),
        "max_rel_error": rep["max_rel_error"],
        "max_rel_error_extrapolated": rep["max_rel_error_extrapolated"],
        "convergence_order": rep["convergence_order"],
        "sturm_passes": rep["sturm_passes"],
        "tol": rep["tol"],
        "levels": [{"n": i, "fd": float(rep["energies_fd"][i]),
                    "analytic": float(rep["energies_analytic"][i]),
                    "rel_error": float(rep["rel_errors"][i]),
                    "extrapolated": float(rep["energies_extrapolated"][i]),
                    "rel_error_extrapolated":
                        float(rep["rel_errors_extrapolated"][i])}
                   for i in range(count)],
    }
    _write_text(_out_path(args.output), _json_dumps(payload))
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# parser


def build_parser():
    parser = argparse.ArgumentParser(
        prog="kgcoherent",
        description="Coherent states of a relativistic spinless particle")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_model_flags(p):
        p.add_argument("--model", choices=["linear", "pt"], default="linear")
        p.add_argument("--m", type=float, default=1.0)
        p.add_argument("--k", type=float,
                       help=f"linear only; default {linear_osc.LinearModel.k:g}")
        p.add_argument("--omega", type=float,
                       help=f"pt only; default {poschl_teller.PTModel.omega:g}")

    p = sub.add_parser("spectrum", help="print the lowest energy levels")
    add_model_flags(p)
    p.add_argument("--n", dest="levels", type=int, default=8)
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("state", help="dump coherent-state coefficients as JSON")
    add_model_flags(p)
    p.add_argument("--alpha", default="0")
    p.add_argument("--trunc", type=int, help="default 50 (linear) or 60 (pt)")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_state)

    p = sub.add_parser("evolve", help="emit a time series CSV")
    add_model_flags(p)
    p.add_argument("--alpha", default="0.1+0.2i")
    p.add_argument("--trunc", type=int, default=50)
    p.add_argument("--t0", type=float, default=0.0)
    p.add_argument("--t1", type=float, default=50.0)
    p.add_argument("--dt", type=float, default=0.05)
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_evolve)

    p = sub.add_parser("figures", help="reproduce a published figure as CSV")
    p.add_argument("identifier", help="fig1..fig11")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_figures)

    p = sub.add_parser("verify", help="run a named verification suite")
    p.add_argument("suite", help="spectra | coherence | measure | oracle | all")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("measure-check", help="verify resolution-of-unity moments")
    p.add_argument("--m", type=float, default=1.0)
    p.add_argument("--omega", type=float, default=1.0)
    p.add_argument("--n-max", dest="n_max", type=int, default=10)
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_measure_check)

    p = sub.add_parser("oracle", help="compare FD spectrum against analytic levels")
    add_model_flags(p)
    p.add_argument("--n", dest="levels", type=int, default=8)
    p.add_argument("--points", type=int, default=4001)
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_oracle)

    return parser


@functools.cache
def _parser():
    # built on first use, not at import, which every command pays, and
    # reused by every later main() or figures call in the process
    return build_parser()


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (UsageError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
