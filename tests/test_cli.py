"""Command-line interface: parsing, exit codes, CSV/JSON emission."""

import json
import math
import time

import pytest

from kgcoherent import linear_osc, poschl_teller
from kgcoherent.cli import CSV_HEADER, FIGURES, TAIL_BOUND, main, parse_alpha


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestAlphaParsing:
    @pytest.mark.parametrize("text,want", [
        ("0.1+0.2i", 0.1 + 0.2j),
        ("1-2i", 1 - 2j),
        (" 1 + 2 i ", 1 + 2j),
        ("-0.5-0.25i", -0.5 - 0.25j),
        ("3", 3 + 0j),
        ("2i", 2j),
        ("-i", -1j),
        ("1e-2+2e-1i", 0.01 + 0.2j),
    ])
    def test_valid(self, text, want):
        assert parse_alpha(text) == want

    @pytest.mark.parametrize("text", ["", "abc", "1+2", "i2", "1++2i"])
    def test_invalid(self, text):
        from kgcoherent.cli import UsageError
        with pytest.raises(UsageError):
            parse_alpha(text)

    @pytest.mark.parametrize("text", ["nan", "inf", "-inf", "1+nani", "infi"])
    def test_non_finite(self, text):
        from kgcoherent.cli import UsageError
        with pytest.raises(UsageError, match="alpha must be finite"):
            parse_alpha(text)


class TestSpectrumCommand:
    def test_linear_levels(self, capsys):
        code, out, _ = run(capsys, "spectrum", "--model", "linear",
                           "--k", "1", "--n", "3")
        assert code == 0
        rows = out.strip().splitlines()
        assert rows[0] == "n,energy,epsilon"
        energies = [float(r.split(",")[1]) for r in rows[1:]]
        assert energies == pytest.approx([1.0, math.sqrt(3), math.sqrt(5)],
                                         rel=1e-8)

    def test_epsilon_column(self, capsys):
        # epsilon_n = E_n^2 / (2m) = (n + 1/2) k/m for the linear model
        code, out, _ = run(capsys, "spectrum", "--m", "2", "--n", "4")
        assert code == 0
        eps = [float(r.split(",")[2]) for r in out.strip().splitlines()[1:]]
        assert eps == pytest.approx([0.25, 0.75, 1.25, 1.75], rel=1e-9)
        code, out, _ = run(capsys, "spectrum", "--model", "pt", "--m", "1.3",
                           "--omega", "0.7", "--n", "3")
        for row in out.strip().splitlines()[1:]:
            _, energy, eps = (float(v) for v in row.split(","))
            assert eps == pytest.approx(energy ** 2 / 2.6, rel=1e-8)

    def test_pt_levels(self, capsys):
        code, out, _ = run(capsys, "spectrum", "--model", "pt",
                           "--m", "1", "--omega", "1", "--n", "2")
        assert code == 0
        energies = [float(r.split(",")[1]) for r in out.strip().splitlines()[1:]]
        assert energies == pytest.approx([1.6180340, 2.6180340], abs=1e-6)

    def test_negative_coupling_rejected(self, capsys):
        code, _, err = run(capsys, "spectrum", "--k", "-1")
        assert code == 2
        assert "coupling must be positive" in err

    def test_zero_omega_rejected(self, capsys):
        code, _, err = run(capsys, "spectrum", "--model", "pt", "--omega", "0")
        assert code == 2
        assert "m and omega must be positive" in err

    def test_lambda_rounding_to_one_rejected(self, capsys):
        code, _, err = run(capsys, "spectrum", "--model", "pt", "--m", "1e-9")
        assert code == 2
        assert "m/omega = 1e-09 is too small" in err

    @pytest.mark.parametrize("m,omega", [("1e200", "1e-200"), ("1e200", "1")])
    def test_extreme_mass_ratio_rejected(self, capsys, m, omega):
        code, out, err = run(capsys, "spectrum", "--model", "pt",
                             "--m", m, "--omega", omega)
        assert code == 2
        assert out == ""
        assert f"m = {float(m):g}, omega = {float(omega):g}" in err
        assert "Traceback" not in err


class TestStateCommand:
    def test_linear_vacuum(self, capsys):
        code, out, _ = run(capsys, "state", "--model", "linear",
                           "--alpha", "0", "--trunc", "5")
        assert code == 0
        rows = json.loads(out)["coefficients"]
        assert rows[0]["abs2"] == 1.0
        assert all(r["abs2"] == 0.0 for r in rows[1:])

    def test_pt_ratio(self, capsys):
        code, out, _ = run(capsys, "state", "--model", "pt",
                           "--alpha", "1+0i", "--trunc", "10")
        assert code == 0
        rows = json.loads(out)["coefficients"]
        ratio = abs(rows[1]["re"] / rows[0]["re"])
        assert ratio == pytest.approx(0.4370160, abs=1e-6)

    @pytest.mark.parametrize("model", ["pt", "linear"])
    @pytest.mark.parametrize("alpha", ["nan", "inf"])
    def test_non_finite_alpha_rejected(self, capsys, model, alpha):
        code, out, err = run(capsys, "state", "--model", model, "--alpha", alpha)
        assert code == 2
        assert out == ""
        assert "alpha must be finite" in err

    def test_cumulative_norm(self, capsys):
        code, out, _ = run(capsys, "state", "--model", "pt",
                           "--alpha", "2-1i", "--trunc", "60")
        rows = json.loads(out)["coefficients"]
        assert rows[-1]["cumulative_norm"] >= 1.0 - 1e-10


def poisson_tail(mean, n):
    """P(X > n) for a Poisson count of this mean, term by term."""
    terms = [math.exp(k * math.log(mean) - mean - math.lgamma(k + 1.0))
             for k in range(n + 1, n + 400)]
    return math.fsum(terms)


class TestTruncationTail:
    @pytest.mark.parametrize("command", ["state", "evolve"])
    def test_alpha_8_rejected_naming_smallest_trunc(self, capsys, command):
        # at N = 50 the Poisson weights of |alpha|^2 = 64 still grow: no bound
        code, out, err = run(capsys, command, "--alpha", "8")
        assert code == 2
        assert out == ""
        assert "--trunc 50 cannot bound the part it drops" in err
        assert "the smallest --trunc that passes is 121" in err

    def test_smallest_trunc_is_smallest(self, capsys):
        code, out, _ = run(capsys, "state", "--alpha", "8", "--trunc", "121")
        assert code == 0
        tail = json.loads(out)["tail_mass"]
        assert tail <= TAIL_BOUND
        # w_N q / (1 - q) = w_{N+1} / (1 - q): above the tail, by at most 1 / (1 - q)
        exact = poisson_tail(64.0, 121)
        assert exact <= tail <= exact / (1.0 - 64.0 / 122.0)
        code, _, err = run(capsys, "state", "--alpha", "8", "--trunc", "120")
        assert code == 2
        assert "drops up to 1.48e-10 of" in err
        assert "is 121" in err
        assert poisson_tail(64.0, 120) > TAIL_BOUND

    def test_linear_tail_mass_bounds_poisson_tail(self, capsys):
        code, out, _ = run(capsys, "state", "--alpha", "1+2i", "--trunc", "30")
        assert code == 0
        exact = poisson_tail(5.0, 30)
        assert exact <= json.loads(out)["tail_mass"] <= exact / (1.0 - 5.0 / 31.0)

    def test_pt_tail_mass_bounds_dropped_norm(self, capsys):
        code, out, _ = run(capsys, "state", "--model", "pt", "--alpha", "5",
                           "--trunc", "16")
        assert code == 0
        tail = json.loads(out)["tail_mass"]
        # the state's weight past N, from a truncation that holds all of it
        wide = abs(poschl_teller.coherent_coefficients(
            poschl_teller.PTModel(), 5.0, 80).coefficients) ** 2
        dropped = wide[17:].sum()
        assert dropped <= tail <= min(TAIL_BOUND, 2.0 * dropped)

    def test_pt_unbounded_tail_rejected(self, capsys):
        # at N = 60, |alpha|^2 = 1e4 exceeds (N + 1)(N + 2 lambda): no bound
        code, out, err = run(capsys, "state", "--model", "pt", "--alpha", "100")
        assert code == 2
        assert out == ""
        assert "--trunc 60 cannot bound the part it drops" in err
        assert "the smallest --trunc that passes is 146" in err
        code, out, _ = run(capsys, "state", "--model", "pt", "--alpha", "100",
                           "--trunc", "146")
        assert code == 0
        assert json.loads(out)["tail_mass"] <= TAIL_BOUND

    @pytest.mark.parametrize("argv, smallest", [
        (("state", "--alpha", "1e4"), 100063656),
        (("evolve", "--alpha", "1e4"), 100063656),
        (("state", "--model", "pt", "--alpha", "1e4"), 10451),
    ])
    def test_large_alpha_rejected_without_building_the_state(self, capsys, argv,
                                                            smallest):
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert out == ""
        assert f"the smallest --trunc that passes is {smallest}" in err

    def test_named_trunc_at_float64_limit(self, capsys):
        # at |alpha|^2 = mu = 1e30 the weights about n = mu + k sqrt(mu) are
        # e^{-k^2/2} / sqrt(2 pi mu) and q / (1 - q) is sqrt(mu) / k to
        # O(k^3 / sqrt(mu)), so the bound is e^{-k^2/2} / (k sqrt(2 pi)).
        # 1 - q ~ 6e-15 keeps a rounding of up to about 1% (k to 2e-3); the
        # difference of n log n terms, rounded, named k = 8.1e7 here
        def bound(k):
            return math.exp(-0.5 * k * k) / (k * math.sqrt(2.0 * math.pi))
        lo, hi = 1.0, 10.0
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if bound(mid) > TAIL_BOUND else (lo, mid)
        code, _, err = run(capsys, "state", "--alpha", "1e15")
        assert code == 2
        named = int(err.rsplit("passes is ", 1)[1])
        assert (named - int(1e30)) / 1e15 == pytest.approx(hi, abs=2e-3)
        # at |alpha| = 1e6 the direct form's rounding moved it by 55 levels
        code, _, err = run(capsys, "state", "--alpha", "1e6")
        assert code == 2
        named = int(err.rsplit("passes is ", 1)[1])
        assert named == pytest.approx(1000006364873, rel=1e-9)

    def test_alpha_past_float_range_rejected(self, capsys):
        code, _, err = run(capsys, "state", "--alpha", "1e200")
        assert code == 2
        assert "too large to truncate" in err

    def test_trunc_below_one_rejected(self, capsys):
        code, _, err = run(capsys, "state", "--trunc", "0")
        assert code == 2
        assert "trunc >= 1" in err


class TestEvolveAndFigures:
    def test_evolve_header_and_values(self, capsys):
        code, out, _ = run(capsys, "evolve", "--alpha", "0.1+0.2i",
                           "--t0", "0", "--t1", "1", "--dt", "0.5")
        assert code == 0
        rows = out.strip().splitlines()
        assert rows[0] == CSV_HEADER
        first = [float(v) for v in rows[1].split(",")]
        assert first[0] == 0.0
        assert first[3] == pytest.approx(0.5, abs=1e-8)
        assert first[4] == pytest.approx(math.sqrt(2) * 0.1, abs=1e-8)

    def test_evolve_validation(self, capsys):
        code, _, err = run(capsys, "evolve", "--t0", "5", "--t1", "1")
        assert code == 2

    def test_evolve_past_weight_underflow_rejected(self, capsys):
        # |alpha|^2 = 900: the tail check passes at N = 2000, but the series'
        # weights underflow; this printed dx*dp = 900.5 and <x> = 0 with exit 0
        code, out, err = run(capsys, "evolve", "--alpha", "30", "--trunc", "2000",
                             "--t1", "0.2", "--dt", "0.1")
        assert code == 2
        assert out == ""
        assert "linear series' limit 708.3964" in err

    def test_unknown_figure(self, capsys):
        code, _, err = run(capsys, "figures", "fig99")
        assert code == 2
        assert "unknown figure" in err

    def test_fig1_envelope_and_determinism(self, tmp_path, capsys):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        assert main(["figures", "fig1", "-o", str(out1)]) == 0
        assert main(["figures", "fig1", "-o", str(out2)]) == 0
        b1, b2 = out1.read_bytes(), out2.read_bytes()
        assert b1 == b2
        rows = b1.decode().strip().splitlines()
        assert rows[0] == CSV_HEADER
        products = [float(r.split(",")[3]) for r in rows[1:]]
        assert min(products) >= 0.4999
        assert max(products) <= 0.515
        meta = json.loads((tmp_path / "a.meta.json").read_text())
        assert meta["config"]["dt"] == 0.05
        assert meta["config"]["alpha"] == "0.1+0.2i"

    @pytest.mark.parametrize("identifier", sorted(FIGURES))
    def test_figure_tail_reported(self, identifier):
        # the fig1-fig11 series (evolve's defaults: k = 1, N = 50) drop at
        # most 1e-30 of the norm; fig2's alpha = 1+2i reads 2.1e-33
        spec = linear_osc.CoherentSpec(parse_alpha(FIGURES[identifier]["alpha"]), 50)
        tail = linear_osc.time_series(linear_osc.LinearModel(), spec, [0.0]).tail
        assert tail <= 1e-30
        if identifier == "fig2":
            assert tail == pytest.approx(2.1e-33, rel=0.01)

    def test_fig8_initial_mean_x(self, tmp_path):
        out = tmp_path / "fig8.csv"
        assert main(["figures", "fig8", "-o", str(out)]) == 0
        first = out.read_text().splitlines()[1].split(",")
        assert float(first[4]) == pytest.approx(0.141421, abs=1e-6)

    def test_outdir_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("KGCOHERENT_OUTDIR", str(tmp_path))
        assert main(["figures", "fig1"]) == 0
        assert (tmp_path / "fig1.csv").exists()


class TestDefaults:
    """Every setting's default lives on its flag; these pin the documented values."""

    def test_evolve_defaults_are_fig1(self, tmp_path, capsys):
        code, out, _ = run(capsys, "evolve")
        assert code == 0
        assert main(["figures", "fig1", "-o", str(tmp_path / "fig1.csv")]) == 0
        assert out.encode() == (tmp_path / "fig1.csv").read_bytes()

    @pytest.mark.parametrize("argv,config", [
        (["oracle"], {"model": "linear", "m": 1.0, "k": 1.0,
                      "levels": 8, "points": 4001}),
        (["measure-check"], {"m": 1.0, "omega": 1.0, "n_max": 10, "tol": 1e-6}),
        (["state"], {"model": "linear", "m": 1.0, "k": 1.0,
                     "alpha": [0.0, 0.0], "trunc": 50}),
        (["state", "--model", "pt"], {"model": "pt", "m": 1.0, "omega": 1.0,
                                      "alpha": [0.0, 0.0], "trunc": 60}),
    ])
    def test_config_block(self, capsys, argv, config):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert json.loads(out)["config"] == config

    def test_figure_meta_is_evolve_defaults(self, tmp_path):
        assert main(["figures", "fig2", "-o", str(tmp_path / "fig2.csv")]) == 0
        meta = json.loads((tmp_path / "fig2.meta.json").read_text())
        assert meta["config"] == {"model": "linear", "m": 1.0, "k": 1.0,
                                  "alpha": "1+2i", "trunc": 50, "t0": 0.0,
                                  "t1": 100.0, "dt": 0.05, "column": "product"}

    @pytest.mark.parametrize("argv,flag,model", [
        (["spectrum", "--model", "pt", "--k", "5"], "--k", "pt"),
        (["oracle", "--model", "linear", "--omega", "3"], "--omega", "linear"),
        (["state", "--model", "pt", "--k", "1"], "--k", "pt"),
        (["evolve", "--omega", "2"], "--omega", "linear"),
    ])
    def test_other_model_flag_rejected(self, capsys, argv, flag, model):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert f"{flag} does not apply to --model {model}" in err

    def test_spectrum_defaults(self, capsys):
        code, out, _ = run(capsys, "spectrum")
        assert code == 0
        rows = out.strip().splitlines()
        assert len(rows) == 1 + 8
        assert rows[1] == "0,1,0.5"


class TestVerifyCommands:
    def test_verify_coherence(self, capsys):
        code, out, err = run(capsys, "verify", "coherence")
        assert code == 0
        payload = json.loads(out)
        assert payload["passed"]
        assert all(c["passed"] for c in payload["checks"])

    def test_verify_all_passes_on_defaults(self, capsys):
        code, out, err = run(capsys, "verify", "all")
        assert code == 0, err
        payload = json.loads(out)
        assert payload["passed"]
        names = {c["name"] for c in payload["checks"]}
        assert {"pt_equal_spacing", "pt_fd_convergence_order",
                "linear_richardson_max_rel_error", "pt_richardson_max_rel_error",
                "measure_moment_n0", "norm_conservation"} <= names
        assert all(c["passed"] for c in payload["checks"])

    def test_verify_unknown_suite(self, capsys):
        code, _, err = run(capsys, "verify", "nonsense")
        assert code == 2

    def test_measure_check_small(self, capsys):
        code, out, _ = run(capsys, "measure-check", "--n-max", "2")
        assert code == 0
        payload = json.loads(out)
        assert payload["passed"]
        assert [m["n"] for m in payload["moments"]] == [0, 1, 2]

    def test_measure_check_validation(self, capsys):
        code, _, _ = run(capsys, "measure-check", "--m", "-1")
        assert code == 2

    def test_measure_check_zero_omega(self, capsys):
        code, out, err = run(capsys, "measure-check", "--omega", "0")
        assert code == 2
        assert out == ""
        assert "error: m and omega must be positive" in err

    def test_measure_check_n_max_too_large(self, capsys):
        code, out, err = run(capsys, "measure-check", "--n-max", "13")
        assert code == 2
        assert out == ""
        assert "n_max above 12" in err

    @pytest.mark.parametrize("flag,value", [("--k", "1e-8"), ("--m", "1e6")])
    def test_oracle_small_levels_pass(self, capsys, flag, value):
        # eps_0 = 5e-9 and 5e-7: the tol follows the lowest level
        code, out, _ = run(capsys, "oracle", flag, value, "--n", "4",
                           "--points", "2001")
        payload = json.loads(out)
        assert code == 0 and payload["passed"]
        assert payload["tol"] < 1e-15
        assert abs(payload["convergence_order"] - 2.0) < 1e-3

    def test_oracle_command(self, capsys):
        code, out, _ = run(capsys, "oracle", "--model", "linear",
                           "--n", "4", "--points", "1001")
        assert code == 0
        payload = json.loads(out)
        assert payload["passed"]
        assert payload["max_rel_error"] <= 1e-3
        assert payload["tol"] == 1e-10
        passes = payload["sturm_passes"]
        assert set(passes) == {"rough", "coarse", "fine"}
        assert all(isinstance(k, int) and 1 <= k <= 10 for k in passes.values())
        # Richardson removes the h^2 term that dominates the fine-grid error
        levels = payload["levels"]
        assert payload["max_rel_error_extrapolated"] == max(
            lv["rel_error_extrapolated"] for lv in levels)
        for lv in levels:
            assert lv["rel_error_extrapolated"] == pytest.approx(
                abs(lv["extrapolated"] - lv["analytic"]) / lv["analytic"])
            assert lv["rel_error_extrapolated"] < 1e-3 * lv["rel_error"]
