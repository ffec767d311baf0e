"""Command-line front end.

Subcommands: spectrum, state, evolve, figures, verify, measure-check,
oracle.  Figure recipes fig1..fig11 reproduce the published time series
(alpha = 0.1+0.2i or 1+2i, k = 1, N = 50) as CSV with a JSON metadata
sidecar, so every emitted file records the exact configuration that
produced it.

Exit codes: 0 success, 1 verification failure, 2 usage/validation error.
Flags may come from a flat key=value config file (--config); explicit
flags win.  KGCOHERENT_OUTDIR overrides the directory of relative output
paths.
"""

import argparse
import json
import os
import sys

import numpy as np

from . import linear_osc, poschl_teller, verify
from . import oracle as oracle_mod

CSV_HEADER = "t,dx,dp,product,ex,ep"


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


def load_config(path):
    config = {}
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise UsageError(f"{path}:{line_no}: expected key=value")
            key, value = line.split("=", 1)
            key = key.strip().replace("-", "_")
            config[{"n": "levels"}.get(key, key)] = value.strip()
    return config


def _resolve(args, config, key, default, cast=str):
    value = getattr(args, key, None)
    if value is not None:
        return value
    if key in config:
        return cast(config[key])
    return default


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


def _fmt(x):
    return f"{x:.9g}"


def _build_model(args, config):
    model_name = _resolve(args, config, "model", "linear")
    m = _resolve(args, config, "m", 1.0, float)
    if model_name == "linear":
        k = _resolve(args, config, "k", 1.0, float)
        return linear_osc.LinearModel(m, k)
    if model_name == "pt":
        omega = _resolve(args, config, "omega", 1.0, float)
        return poschl_teller.PTModel(m, omega)
    raise UsageError(f"unknown model {model_name!r} (expected linear or pt)")


def _model_config(model):
    if isinstance(model, linear_osc.LinearModel):
        return {"model": "linear", "m": model.m, "k": model.k}
    return {"model": "pt", "m": model.m, "omega": model.omega}


def _series_csv(model, alpha, truncation, t0, t1, dt):
    spec = linear_osc.CoherentSpec(alpha, truncation)
    t_grid = np.arange(t0, t1 + 0.5 * dt, dt)
    ts = linear_osc.time_series(model, spec, t_grid)
    lines = [CSV_HEADER]
    for i in range(t_grid.size):
        lines.append(",".join(_fmt(v) for v in (
            ts.t[i], ts.dx[i], ts.dp[i], ts.product[i],
            ts.mean_x[i], ts.mean_p[i])))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# subcommands


def cmd_spectrum(args, config):
    model = _build_model(args, config)
    count = _resolve(args, config, "levels", 8, int)
    if count < 1:
        raise UsageError("level count must be >= 1")
    lines = ["n,energy,epsilon"]
    for n in range(count):
        lines.append(f"{n},{_fmt(model.energy(n))},"
                     f"{_fmt(model.schrodinger_eigenvalue(n))}")
    _write_text(_out_path(args.output), "\n".join(lines) + "\n")
    return 0


def cmd_state(args, config):
    model = _build_model(args, config)
    alpha = parse_alpha(_resolve(args, config, "alpha", "0"))
    truncation = _resolve(args, config, "trunc", None, int)
    if isinstance(model, linear_osc.LinearModel):
        truncation = 50 if truncation is None else truncation
        c = linear_osc.coherent_coefficients(
            linear_osc.CoherentSpec(alpha, truncation))
    else:
        truncation = 60 if truncation is None else truncation
        c = poschl_teller.coherent_coefficients(model, alpha, truncation).coefficients
    cum = np.cumsum(np.abs(c) ** 2)
    rows = [{"n": int(n), "re": c[n].real, "im": c[n].imag,
             "abs2": float(abs(c[n]) ** 2), "cumulative_norm": float(cum[n])}
            for n in range(c.size)]
    payload = {
        "config": {**_model_config(model),
                   "alpha": [alpha.real, alpha.imag], "trunc": truncation},
        "coefficients": rows,
    }
    _write_text(_out_path(args.output), _json_dumps(payload))
    return 0


def cmd_evolve(args, config):
    model = _build_model(args, config)
    if not isinstance(model, linear_osc.LinearModel):
        raise UsageError("evolve emits the closed-form series: model must be linear")
    alpha = parse_alpha(_resolve(args, config, "alpha", "0.1+0.2i"))
    truncation = _resolve(args, config, "trunc", 50, int)
    t0 = _resolve(args, config, "t0", 0.0, float)
    t1 = _resolve(args, config, "t1", 50.0, float)
    dt = _resolve(args, config, "dt", 0.05, float)
    if not (t0 < t1 and dt > 0.0 and truncation >= 1):
        raise UsageError("require t0 < t1, dt > 0, trunc >= 1")
    _write_text(_out_path(args.output),
                _series_csv(model, alpha, truncation, t0, t1, dt))
    return 0


def cmd_figures(args, config):
    if args.identifier not in FIGURES:
        raise UsageError(f"unknown figure {args.identifier!r} (fig1..fig11)")
    recipe = FIGURES[args.identifier]
    model = linear_osc.LinearModel(1.0, 1.0)
    alpha = parse_alpha(recipe["alpha"])
    run = {"model": "linear", "m": 1.0, "k": 1.0, "alpha": recipe["alpha"],
           "trunc": 50, "t0": 0.0, "t1": recipe["t1"], "dt": 0.05,
           "column": recipe["column"]}
    csv_text = _series_csv(model, alpha, 50, 0.0, recipe["t1"], 0.05)
    out = args.output
    if out is None:
        out = f"{args.identifier}.csv"
    out = _out_path(out)
    _write_text(out, csv_text)
    meta = {"figure": args.identifier, "config": run, "columns": CSV_HEADER.split(",")}
    if out is not None:
        _write_text(os.path.splitext(out)[0] + ".meta.json", _json_dumps(meta))
    return 0


def cmd_verify(args, config):
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


def cmd_measure_check(args, config):
    m = _resolve(args, config, "m", 1.0, float)
    omega = _resolve(args, config, "omega", 1.0, float)
    n_max = _resolve(args, config, "n_max", 10, int)
    tol = _resolve(args, config, "tol", 1e-6, float)
    model = poschl_teller.PTModel(m, omega)
    report = poschl_teller.verify_measure_moments(model, n_max, tol)
    ok = all(r["passed"] for r in report)
    payload = {
        "config": {"m": m, "omega": omega, "n_max": n_max, "tol": tol},
        "passed": ok,
        "moments": report,
    }
    _write_text(_out_path(args.output), _json_dumps(payload))
    return 0 if ok else 1


def cmd_oracle(args, config):
    model = _build_model(args, config)
    count = _resolve(args, config, "levels", 8, int)
    points = _resolve(args, config, "points", 4001, int)
    if isinstance(model, linear_osc.LinearModel):
        spec = oracle_mod.linear_potential(model.m, model.k, points)
    else:
        spec = oracle_mod.pt_potential(model.m, model.omega, points)
    analytic = model.energies(count - 1)
    rep = oracle_mod.spectrum_compare(spec, analytic, count)
    ok = rep["converged"] and rep["max_rel_error"] <= 1e-3
    payload = {
        "config": {**_model_config(model), "levels": count, "points": points},
        "passed": bool(ok),
        "max_rel_error": rep["max_rel_error"],
        "convergence_order": rep["convergence_order"],
        "sturm_passes": rep["sturm_passes"],
        "levels": [{"n": i, "fd": float(rep["energies_fd"][i]),
                    "analytic": float(rep["energies_analytic"][i]),
                    "rel_error": float(rep["rel_errors"][i])}
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
    parser.add_argument("--config", help="flat key=value config file")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_model_flags(p):
        p.add_argument("--model", choices=["linear", "pt"])
        p.add_argument("--m", type=float)
        p.add_argument("--k", type=float)
        p.add_argument("--omega", type=float)

    p = sub.add_parser("spectrum", help="print the lowest energy levels")
    add_model_flags(p)
    p.add_argument("--n", dest="levels", type=int)
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("state", help="dump coherent-state coefficients as JSON")
    add_model_flags(p)
    p.add_argument("--alpha")
    p.add_argument("--trunc", type=int)
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_state)

    p = sub.add_parser("evolve", help="emit a time series CSV")
    add_model_flags(p)
    p.add_argument("--alpha")
    p.add_argument("--trunc", type=int)
    p.add_argument("--t0", type=float)
    p.add_argument("--t1", type=float)
    p.add_argument("--dt", type=float)
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
    p.add_argument("--m", type=float)
    p.add_argument("--omega", type=float)
    p.add_argument("--n-max", dest="n_max", type=int)
    p.add_argument("--tol", type=float)
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_measure_check)

    p = sub.add_parser("oracle", help="compare FD spectrum against analytic levels")
    add_model_flags(p)
    p.add_argument("--n", dest="levels", type=int)
    p.add_argument("--points", type=int)
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_oracle)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = load_config(args.config) if args.config else {}
        return args.func(args, config)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
