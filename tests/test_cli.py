import importlib
import json
import math
import os
import subprocess
import sys
import warnings
from importlib.resources import files
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import phonodist
from phonodist import _gamma, analysis, cli, corpus, dirichlet, entropy, io, maxent
from phonodist.errors import NumericalError

from mp_oracle import mp_rank_moments

DATA = files("phonodist") / "data"


def data_path(name):
    return str(DATA / name)


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


class TestFitAlpha:
    def test_matches_library(self, capsys):
        payload = run_json(capsys, "fit-alpha", data_path("samoan.tsv"))
        positive = io.load_frequency_table(data_path("samoan.tsv")).positive_counts()
        h_cwj = entropy.cwj_estimate(positive)
        assert payload["schema_version"] == 2
        assert payload["language"] == "samoan"
        assert payload["n"] == len(positive)
        assert payload["alpha_hat"] == float(
            f"{dirichlet.solve_alpha(h_cwj, len(positive)):.12g}"
        )
        assert payload["H_cwj"] == float(f"{h_cwj:.12g}")

    def test_n_override(self, capsys):
        payload = run_json(capsys, "fit-alpha", data_path("samoan.tsv"), "--n", "20")
        assert payload["n"] == 20
        assert payload["config"]["n_override"] == 20

    def test_infeasible_entropy_exits_4(self, capsys, tmp_path):
        table = tmp_path / "uniform.tsv"
        table.write_text("a\t100\nb\t100\nc\t100\n", encoding="utf-8")
        code, _, err = run(capsys, "fit-alpha", str(table))
        assert code == 4
        # the note a report row carries, after the table's name
        assert err.endswith(
            "error: uniform: alpha infeasible: H=1.10195 not inside (0, ln n=1.09861)\n"
        )

    def test_missing_file_exits_3(self, capsys, tmp_path):
        code, _, err = run(capsys, "fit-alpha", str(tmp_path / "nope.tsv"))
        assert code == 3
        assert "error:" in err

    def test_malformed_row_exits_3(self, capsys, tmp_path):
        table = tmp_path / "bad.tsv"
        table.write_text("a\t10\nb\tten\n", encoding="utf-8")
        code, _, err = run(capsys, "fit-alpha", str(table))
        assert code == 3
        assert "bad.tsv:2" in err


@pytest.mark.parametrize("argv, support", [
    (["fit-alpha", data_path("amenglish.tsv"), "--n", "20"], 35),
    (["estimate-entropy", data_path("kaiwa.tsv"), "--n", "5"], 17),
], ids=["fit-alpha", "estimate-entropy"])
def test_declared_inventory_below_support_exits_3(capsys, argv, support):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (3, "")
    assert err == f"error: declared inventory size {argv[-1]} is below the {support} phonemes observed\n"


@pytest.mark.parametrize("name", ["amenglish", "bengali", "kaiwa", "samoan", "swedish"])
def test_fit_alpha_and_report_share_the_language_fit(capsys, name):
    path = data_path(f"{name}.tsv")
    fit = analysis.fit_language(name, io.load_frequency_table(path))
    expected = cli._round12({
        "language": name, "n": fit.n, "H_cwj": fit.entropy_cwj,
        "alpha_hat": fit.alpha_hat, "relative_entropy": fit.relative_entropy,
    })
    payload = run_json(capsys, "fit-alpha", path)
    assert {key: payload[key] for key in expected} == expected
    row = run_json(capsys, "report", path, data_path("kaiwa.tsv"))["languages"][0]
    assert row == {**expected, "H_max": cli._round12(fit.h_max), "note": None}


_SHARED_FIT_FIELDS = ("language", "n", "tokens", "H_plugin", "H_cwj", "relative_entropy", "config")


@pytest.mark.parametrize("extra", [(), ("--n", "60")], ids=["support", "n60"])
@pytest.mark.parametrize("name", ["amenglish", "bengali", "kaiwa", "samoan", "swedish"])
def test_fit_alpha_and_estimate_entropy_print_the_same_fit(capsys, name, extra):
    path = data_path(f"{name}.tsv")
    fitted = run_json(capsys, "fit-alpha", path, *extra)
    estimated = run_json(capsys, "estimate-entropy", path, *extra)
    assert {key: fitted[key] for key in _SHARED_FIT_FIELDS} == {
        key: estimated[key] for key in _SHARED_FIT_FIELDS
    }
    assert set(fitted) - set(estimated) == {"alpha_hat"}
    assert set(estimated) - set(fitted) == {"H_max"}


class TestNearUniformTable:
    """H_cwj one ulp below ln 3, closer than the float expected entropy
    climbs: no concentration fits, and every subcommand says so."""

    NOTE = "alpha infeasible: H=1.0986122886681096 within rounding of ln n=1.0986122886681098"

    @pytest.fixture
    def table(self, tmp_path):
        path = tmp_path / "near.tsv"
        path.write_text("a\t1000000000000000\nb\t1000000000000082\nc\t1000000000000075\n",
                        encoding="utf-8")
        return str(path)

    def test_fit_alpha_exits_4_with_the_note(self, capsys, table):
        code, out, err = run(capsys, "fit-alpha", table)
        assert (code, out) == (4, "")
        assert err == f"error: near: {self.NOTE}\n"

    def test_report_keeps_every_row(self, capsys, caplog, table):
        names = ("amenglish", "bengali", "kaiwa", "samoan")
        with caplog.at_level("WARNING"):
            payload = run_json(capsys, "report", table, *(data_path(f"{n}.tsv") for n in names))
        assert [row["language"] for row in payload["languages"]] == ["near", *names]
        assert payload["languages"][0]["alpha_hat"] is None
        assert payload["languages"][0]["note"] == self.NOTE
        assert payload["regression"]["n_points"] == 4
        assert [record.getMessage() for record in caplog.records] == [f"near: {self.NOTE}"]

    def test_estimate_entropy_exits_0(self, capsys, table):
        payload = run_json(capsys, "estimate-entropy", table)
        assert payload["H_cwj"] == payload["H_max"] == float(f"{math.log(3):.12g}")


class TestPredictAlpha:
    def test_default_law(self, capsys):
        payload = run_json(capsys, "predict-alpha", "--n", "160")
        assert payload["alpha_predicted"] == float(
            f"{dirichlet.predict_alpha(160):.12g}"
        )
        assert payload["config"] == {"coeff_a": 19.47, "exponent_b": -0.95}

    def test_custom_law(self, capsys):
        payload = run_json(
            capsys, "predict-alpha", "--n", "4", "--coeff-a", "2", "--exponent-b", "-1"
        )
        assert payload["alpha_predicted"] == 0.5

    def test_invalid_inventory_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["predict-alpha", "--n", "1"])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize(
        "law, shown",
        [(("3", "1e308", "2"), "inf"), (("1000", "1e-300", "-100"), "0.0")],
    )
    def test_law_without_finite_concentration_exits_3(self, capsys, law, shown):
        n, coeff_a, exponent_b = law
        args = ["--n", n, "--coeff-a", coeff_a, "--exponent-b", exponent_b]
        message = f"error: concentration must be finite and > 0, got {shown}\n"
        # the same message and exit code as reconstruct gives for the same law
        for command in ("predict-alpha", "reconstruct"):
            assert run(capsys, command, *args) == (3, "", message)

    @pytest.mark.parametrize(
        "law", [("1000", "19.47", "1e10"), ("9" * 400, "19.47", "0.95")]
    )
    def test_overflowing_law_exits_3_naming_the_concentration(self, capsys, law):
        # n ** exponent_b overflows a float, also when n does not fit in one
        n, coeff_a, exponent_b = law
        args = ["--n", n, "--coeff-a", coeff_a, "--exponent-b", exponent_b]
        message = "error: concentration coeff_a * n**exponent_b overflows a float\n"
        assert run(capsys, "predict-alpha", *args) == (3, "", message)
        # reconstruct rejects n above its limit before it computes the law
        # (TestReconstruct.test_n_above_the_limit_is_a_usage_error)
        if int(n) <= 2000:
            assert run(capsys, "reconstruct", *args) == (3, "", message)

    def test_inventory_beyond_the_floats_keeps_its_concentration(self, capsys):
        # n = 10**309 is no float, but 19.47 n**-0.95 is
        payload = run_json(capsys, "predict-alpha", "--n", "1" + "0" * 309)
        assert payload["alpha_predicted"] == pytest.approx(5.48739156717e-293, rel=1e-11)
        message = "error: concentration must be finite and > 0, got 0.0\n"
        assert run(capsys, "predict-alpha", "--n", "1" + "0" * 400) == (3, "", message)

    @pytest.mark.parametrize("exponent_b, value", [("-1e-2", -0.01), ("-2.5E+1", -25.0),
                                                   ("-.5e1", -5.0)])
    def test_negative_exponent_notation_is_a_number(self, capsys, exponent_b, value):
        payload = run_json(capsys, "predict-alpha", "--n", "10", "--exponent-b", exponent_b)
        assert payload["config"]["exponent_b"] == value
        for command in ("predict-alpha", "reconstruct"):
            spaced = run(capsys, command, "--n", "10", "--exponent-b", exponent_b)
            assert spaced[0] != 2
            assert spaced == run(capsys, command, "--n", "10", f"--exponent-b={exponent_b}")

    def test_negative_coeff_a_in_exponent_notation_is_not_positive(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["predict-alpha", "--n", "10", "--coeff-a", "-1e-2"])
        assert excinfo.value.code == 2
        assert "argument --coeff-a: value must be positive, got -0.01" in capsys.readouterr().err


class TestReconstruct:
    def test_rows_match_library(self, capsys):
        code, out, _ = run(capsys, "reconstruct", "--n", "13")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "# schema_version\t2"
        assert lines[2] == "rank\tmean\tsd\tci_low\tci_high"
        body = lines[3:]
        assert len(body) == 13
        summary = dirichlet.reconstruct_from_inventory(13)
        for line, (rank, mean, sd, lo, hi) in zip(body, summary.rank_rows()):
            cells = line.split("\t")
            assert int(cells[0]) == rank
            assert cells[1] == f"{mean:.12g}"
            assert cells[4] == f"{hi:.12g}"

    def test_means_sum_to_one(self, capsys):
        code, out, _ = run(capsys, "reconstruct", "--n", "11")
        means = [float(l.split("\t")[1]) for l in out.strip().split("\n")[3:]]
        assert sum(means) == pytest.approx(1.0, abs=1e-6)

    def test_level_next_to_one_cuts_its_exact_tails(self, capsys):
        # (1 + level)/2 rounds to 1 here, an upper tail of 0; each band
        # cuts off the exact tail (1 - level)/2 = 5.6e-17 instead
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, out, err = run(capsys, "reconstruct", "--n", "11", "--gamma", "0.9999999999999999")
        assert (code, err) == (0, "")
        rows = [line.split("\t") for line in out.strip().split("\n")[3:]]
        assert len(rows) == 11
        assert all(0.0 <= float(row[3]) <= float(row[4]) <= 1.0 for row in rows)

    def test_deterministic_output_files(self, capsys, tmp_path):
        a, b = tmp_path / "a.tsv", tmp_path / "b.tsv"
        assert cli.main(["reconstruct", "--n", "17", "-o", str(a)]) == 0
        assert cli.main(["reconstruct", "--n", "17", "-o", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("n", ["2001", "100000", "9" * 400])
    def test_n_above_the_limit_is_a_usage_error(self, capsys, n):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["reconstruct", "--n", n])
        assert excinfo.value.code == 2
        errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
        assert errors == [
            f"phonodist reconstruct: error: argument --n: reconstruct takes n <= 2000, got {n}"
        ]

    def test_limit_is_in_the_help_and_admitted(self, capsys):
        with pytest.raises(SystemExit):
            cli.main(["reconstruct", "--help"])
        assert "inventory size, 2 to 2000" in capsys.readouterr().out
        assert cli.build_parser().parse_args(["reconstruct", "--n", "2000"]).n == 2000

    def test_bad_gamma_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["reconstruct", "--n", "10", "--gamma", "1.5"])
        assert excinfo.value.code == 2

    def test_small_concentration_curve_matches_mpmath(self, capsys):
        # alpha = 0.01 * 200**-0.95 = 6.5e-5 once overflowed the moment
        # integrand; the curve is now checked against mpmath, never NaN
        code, out, err = run(capsys, "reconstruct", "--n", "200", "--coeff-a", "0.01")
        assert (code, err) == (0, "")
        rows = [[float(cell) for cell in line.split("\t")] for line in out.strip().split("\n")[3:]]
        assert len(rows) == 200 and all(math.isfinite(x) for row in rows for x in row)
        assert math.fsum(row[1] for row in rows) == pytest.approx(1.0, abs=1e-10)
        alpha = dirichlet.predict_alpha(200, dirichlet.AlphaScalingLaw(coeff_a=0.01))
        for rank in (1, 2, 3, 100):
            mean, sd = mp_rank_moments(200, alpha, rank)
            assert rows[rank - 1][1] == pytest.approx(mean, rel=1e-10), rank
            assert rows[rank - 1][2] == pytest.approx(sd, rel=1e-10), rank

    def test_below_the_concentration_floor_exits_4_naming_it(self, capsys):
        code, out, err = run(
            capsys, "reconstruct", "--n", "2", "--coeff-a", "1e-3", "--exponent-b", "0"
        )
        assert (code, out) == (4, "")
        assert err == (
            "error: concentration 0.001 is below 0.005, where the order-statistic moments "
            "of n = 2 components miss their error bound\n"
        )

    @pytest.mark.parametrize("coeff_a", ["1e-300", "5e-324"])
    def test_lost_curve_exits_4_not_0(self, capsys, coeff_a):
        # once all-zero (1e-300) or NaN (5e-324) moments; both concentrations
        # are far below the floor, so no curve is printed
        code, out, err = run(
            capsys, "reconstruct", "--n", "20", "--coeff-a", coeff_a, "--exponent-b", "0"
        )
        assert (code, out) == (4, "")
        assert err.startswith("error: concentration ") and " is below 0.000263, " in err
        assert err.count("\n") == 1

    def test_linalg_error_in_reconstruct_exits_4(self, capsys, monkeypatch):
        # the Gauss-Legendre nodes of the moments come from numpy's leggauss,
        # whose eigenvalue solve is the one call a subcommand makes that can
        # raise LinAlgError
        from numpy.polynomial import legendre

        def singular(degree):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(legendre, "leggauss", singular)
        _gamma.gauss_legendre.cache_clear()  # a failed call is not cached
        assert run(capsys, "reconstruct", "--n", "11") == (
            4, "", "error: numerical failure (LinAlgError: Eigenvalues did not converge)\n"
        )


class TestEstimateEntropy:
    def test_matches_library(self, capsys):
        payload = run_json(capsys, "estimate-entropy", data_path("kaiwa.tsv"))
        positive = io.load_frequency_table(data_path("kaiwa.tsv")).positive_counts()
        assert payload["H_cwj"] == float(f"{entropy.cwj_estimate(positive):.12g}")
        assert payload["H_plugin"] == float(f"{entropy.plugin_estimate(positive):.12g}")
        assert payload["H_max"] == float(f"{math.log(len(positive)):.12g}")
        assert 0.0 < payload["relative_entropy"] <= 1.0


    def test_uniform_table_exits_0(self, capsys, tmp_path):
        # no concentration fits (fit-alpha exits 4), but the entropies print
        table = tmp_path / "uniform.tsv"
        table.write_text("a\t100\nb\t100\nc\t100\n", encoding="utf-8")
        payload = run_json(capsys, "estimate-entropy", str(table))
        assert payload["relative_entropy"] == 1.0


class TestFeaturesAndMaxent:
    def test_features_table_matches_library(self, capsys):
        code, out, _ = run(
            capsys, "features", data_path("toy_a.lex"), data_path("toy_incidence.tsv")
        )
        assert code == 0
        lexicon = io.load_lexicon(data_path("toy_a.lex"))
        incidence = io.load_incidence(data_path("toy_incidence.tsv"))
        table = corpus.build_feature_table(lexicon, incidence)
        lines = out.strip().split("\n")
        body = [l for l in lines if not l.startswith("#")][1:]
        assert len(body) == len(table.phonemes)
        for line, i in zip(body, range(len(table.phonemes))):
            cells = line.split("\t")
            assert cells[0] == table.phonemes[i]
            assert cells[1] == f"{float(table.observed_prob[i]):.12g}"
            assert cells[3] == f"{float(table.seg_info[i]):.12g}"
        constraints = corpus.constraint_expectations(table)
        assert f"c1={constraints.c1:.12g}" in lines[-1]

    def test_pipeline_into_maxent(self, capsys, tmp_path):
        feat_file = tmp_path / "features.tsv"
        assert (
            cli.main(
                [
                    "features",
                    data_path("toy_a.lex"),
                    data_path("toy_incidence.tsv"),
                    "-o",
                    str(feat_file),
                ]
            )
            == 0
        )
        capsys.readouterr()
        payload = run_json(capsys, "maxent", str(feat_file))
        assert max(abs(r) for r in payload["residuals"]) <= 1e-9
        assert sum(payload["probs"].values()) == pytest.approx(1.0, abs=1e-9)
        # the maxent optimum dominates the observed entropy by construction
        assert payload["entropy_guessed"] >= payload["entropy_observed"] - 1e-9
        table = io.load_feature_table(str(feat_file))
        problem = maxent.MaxEntProblem(
            support=table.phonemes,
            features=table.feature_matrix(),
            targets=corpus.constraint_expectations(table).as_array(),
        )
        solution = maxent.solve(problem)
        for p, v in zip(table.phonemes, solution.probs):
            assert payload["probs"][p] == float(f"{float(v):.12g}")

    def test_maxent_deterministic(self, capsys, tmp_path):
        feat_file = tmp_path / "features.tsv"
        cli.main(
            [
                "features",
                data_path("toy_b.lex"),
                data_path("toy_incidence.tsv"),
                "-o",
                str(feat_file),
            ]
        )
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert cli.main(["maxent", str(feat_file), "-o", str(a)]) == 0
        assert cli.main(["maxent", str(feat_file), "-o", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_maxent_features_past_the_bound_exit_3(self, capsys, tmp_path):
        table = tmp_path / "huge.tsv"
        table.write_text("phoneme\tobserved_prob\tcost\tseg_info\tlex_div\n"
                         "a\t0.5\t3e156\t0.1\t1.0\n" "b\t0.5\t-3e156\t0.2\t1.5\n",
                         encoding="utf-8")
        assert cli.main(["maxent", str(table)]) == 3
        assert capsys.readouterr().err.splitlines() == [
            "error: features and targets must be finite and at most 2**510 in magnitude"
        ]

    def test_maxent_warning_reaches_the_callers_recorder(self, capsys, tmp_path):
        """main shortens the printed text of a warning (tests/golden/50-maxent.json
        pins it), but a recorder installed around it still gets the warning,
        and the formatter is the caller's again afterwards."""
        table = tmp_path / "dependent.tsv"
        table.write_text("phoneme\tobserved_prob\tcost\tseg_info\tlex_div\n"
                         "a\t0.4\t0.1\t0.1\t1.8\n" "t\t0.3\t0.35\t0.35\t1.6\n"
                         "k\t0.2\t0.45\t0.45\t1.7\n" "i\t0.1\t0.6\t0.6\t0.9\n",
                         encoding="utf-8")
        formatwarning = warnings.formatwarning
        with pytest.warns(RuntimeWarning, match="affinely dependent"):
            assert cli.main(["maxent", str(table)]) == 0
        assert warnings.formatwarning is formatwarning
        assert capsys.readouterr().err == ""

    def test_coverage_floor_violation_exits_3(self, capsys, tmp_path):
        incidence = tmp_path / "sparse.tsv"
        incidence.write_text(
            "phoneme\tlanguages_with\tlanguages_total\na\t1000\t2000\n",
            encoding="utf-8",
        )
        code, _, err = run(capsys, "features", data_path("toy_a.lex"), str(incidence))
        assert code == 3
        assert "coverage" in err


class TestRegress:
    def test_exact_line_exits_3(self, capsys, tmp_path):
        # alpha = 20 / n exactly; a fit only sees rounding noise around it
        fits = tmp_path / "fits.tsv"
        fits.write_text("10\t2\n20\t1\n40\t0.5\n", encoding="utf-8")
        assert run(capsys, "regress", str(fits)) == (
            3, "", "error: degenerate regression: zero residual variance\n"
        )

    def test_recovers_planted_law(self, capsys, tmp_path):
        fits = tmp_path / "fits.tsv"
        rows = [f"{n}\t{19.47 * n ** -0.95:.12g}" for n in range(11, 161, 10)]
        fits.write_text("n\talpha_hat\n" + "\n".join(rows) + "\n", encoding="utf-8")
        payload = run_json(capsys, "regress", str(fits))
        assert payload["fit"]["slope"] == pytest.approx(-0.95, abs=1e-9)
        assert payload["law"]["coeff_a"] == pytest.approx(19.47, rel=1e-9)

    def test_exact_fit_exits_3(self, capsys, tmp_path):
        fits = tmp_path / "fits.tsv"
        fits.write_text("2\t1\n4\t1\n8\t1\n", encoding="utf-8")
        assert run(capsys, "regress", str(fits)) == (
            3, "", "error: degenerate regression: zero residual variance\n"
        )

    def test_too_few_rows_exits_3(self, capsys, tmp_path):
        fits = tmp_path / "fits.tsv"
        fits.write_text("n\talpha_hat\n11\t2.0\n13\t1.8\n", encoding="utf-8")
        code, _, err = run(capsys, "regress", str(fits))
        assert code == 3

    @pytest.mark.parametrize("bad", ["nan", "inf", "0", "-2"])
    @pytest.mark.parametrize("column", ["n", "alpha_hat"])
    def test_nonfinite_or_nonpositive_row_exits_3(self, capsys, tmp_path, bad, column):
        row = f"{bad}\t0.5" if column == "n" else f"20\t{bad}"
        fits = tmp_path / "fits.tsv"
        fits.write_text(
            f"n\talpha_hat\n11\t2.0\n{row}\n13\t1.8\n15\t1.7\n", encoding="utf-8"
        )
        code, out, err = run(capsys, "regress", str(fits))
        assert code == 3
        assert out == ""
        assert err == f"error: {fits}:3: n and alpha_hat must be finite and > 0\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["reconstruct", "--n", "10", "--gamma", "1.5"],
        ["features", data_path("toy_a.lex"), data_path("toy_incidence.tsv"),
         "--coverage-floor", "1.5"],
    ],
)
def test_unit_interval_options_share_a_neutral_message(capsys, argv):
    with pytest.raises(SystemExit) as excinfo:
        cli.main(argv)
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {argv[-2]}: value must lie in (0, 1), got 1.5" in err
    assert "confidence" not in err


def test_json_output_refuses_non_finite_values():
    # a backstop: NaN and infinity are not JSON, so they exit 4, not 0
    with pytest.raises(NumericalError, match="non-finite value in output"):
        cli._emit_json({"t_slope": math.inf}, None)


class TestReport:
    def test_five_bundled_languages(self, capsys):
        tables = [
            data_path(f"{name}.tsv")
            for name in ("amenglish", "bengali", "kaiwa", "samoan", "swedish")
        ]
        payload = run_json(capsys, "report", *tables)
        assert [row["language"] for row in payload["languages"]] == [
            "amenglish",
            "bengali",
            "kaiwa",
            "samoan",
            "swedish",
        ]
        assert payload["regression"] is not None
        assert payload["regression"]["n_points"] == 5
        assert payload["law"]["exponent_b"] == pytest.approx(-0.95, abs=0.4)
        for row in payload["languages"]:
            assert row["alpha_hat"] is not None
            assert 0.0 < row["relative_entropy"] <= 1.0

    @pytest.mark.parametrize("jobs", ["0", "-3", "two"])
    def test_bad_jobs_usage_error(self, capsys, jobs):
        # report has no --jobs option: any value is a usage error, not a crash.
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["report", data_path("kaiwa.tsv"), "--jobs", jobs])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert f"unrecognized arguments: --jobs {jobs}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("names", [
        ("samoan", "samoan", "samoan"), ("samoan", "samoan", "kaiwa")
    ])
    def test_undefined_regression_prints_rows(self, capsys, names):
        payload = run_json(capsys, "report", *(data_path(f"{name}.tsv") for name in names))
        assert [row["language"] for row in payload["languages"]] == list(names)
        assert payload["regression"] is None and payload["law"] is None

    def test_empty_config(self, capsys):
        payload = run_json(capsys, "report", data_path("kaiwa.tsv"), data_path("samoan.tsv"))
        assert payload["config"] == {}

    def test_deterministic(self, capsys, tmp_path):
        tables = [data_path("kaiwa.tsv"), data_path("samoan.tsv"), data_path("swedish.tsv")]
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert cli.main(["report", *tables, "-o", str(a)]) == 0
        assert cli.main(["report", *tables, "-o", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestRoundTrip:
    def test_reconstruct_then_fit_recovers_alpha(self, capsys, tmp_path):
        n = 30
        summary = dirichlet.reconstruct_from_inventory(n)
        counts = np.round(summary.mean * 1_000_000).astype(int)
        table = tmp_path / "synthetic.tsv"
        table.write_text(
            "\n".join(f"ph{r:02d}\t{c}" for r, c in enumerate(counts, start=1)) + "\n",
            encoding="utf-8",
        )
        payload = run_json(capsys, "fit-alpha", str(table), "--n", str(n))
        # the entropy of the mean rank profile sits slightly above the
        # expected entropy (Jensen gap), so allow a modest overshoot
        assert payload["alpha_hat"] == pytest.approx(summary.alpha, rel=0.08)
        assert payload["alpha_hat"] >= summary.alpha
        # and the CLI value is exactly the library fit of the same counts
        loaded = io.load_frequency_table(str(table))
        expected = dirichlet.solve_alpha(entropy.cwj_estimate(loaded.positive_counts()), n)
        assert payload["alpha_hat"] == float(f"{expected:.12g}")


_IMPORT_PROBE = """
import json, sys
from pathlib import Path


def loaded():
    modules = {top: sorted(m for m in sys.modules if m.split(".")[0] == top)
               for top in ("numpy", "scipy", "dataclasses", "logging", "fractions")}
    return {**modules, "_gamma": [m for m in sys.modules if m == "phonodist._gamma"]}


import phonodist

snapshots = {"package": loaded()}
from phonodist import cli

snapshots["cli"] = loaded()
data, tmp = Path(sys.argv[1]), Path(sys.argv[2])
tables = [str(data / f"{name}.tsv") for name in ("amenglish", "bengali", "kaiwa", "samoan", "swedish")]
fits = tmp / "fits.tsv"
fits.write_text("11\\t2.0\\n40\\t0.59\\n160\\t0.16\\n", encoding="utf-8")
calls = {
    "predict-alpha": ["predict-alpha", "--n", "40"],
    "estimate-entropy": ["estimate-entropy", tables[3]],
    "regress": ["regress", str(fits)],
    "fit-alpha": ["fit-alpha", tables[3]],
    "report": ["report", *tables],
    "features": ["features", str(data / "toy_a.lex"), str(data / "toy_incidence.tsv")],
    "maxent": ["maxent", str(tmp / "features.tsv")],
    "reconstruct": ["reconstruct", "--n", "11"],
}
codes = []
for step in sys.argv[3:]:
    codes.append(cli.main([*calls[step], "-o", str(tmp / "out")]))
    snapshots[step] = loaded()
print(json.dumps({"codes": codes, "snapshots": snapshots}))
"""

# the subcommands that need scalar arithmetic only
_SCALAR = ("predict-alpha", "estimate-entropy", "regress", "fit-alpha", "report")


def _probe_imports(tmp_path, *steps):
    """Import phonodist, then phonodist.cli, then run ``steps`` in one fresh
    interpreter, so that nothing pytest has already imported counts; return
    the numpy, scipy, dataclasses, logging and fractions modules, and
    phonodist._gamma, loaded after each."""
    features = tmp_path / "features.tsv"  # maxent's input, written here
    assert cli.main(["features", data_path("toy_a.lex"), data_path("toy_incidence.tsv"),
                     "-o", str(features)]) == 0
    src = Path(phonodist.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, str(DATA), str(tmp_path), *steps],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["codes"] == [0] * len(steps)
    return result["snapshots"]


def test_scalar_subcommands_never_import_numpy(tmp_path):
    loaded = _probe_imports(tmp_path, *_SCALAR)
    for step in ("package", "cli", *_SCALAR):
        assert loaded[step]["numpy"] == loaded[step]["scipy"] == [], step


def test_only_reconstruct_imports_the_gamma_module(tmp_path):
    loaded = _probe_imports(tmp_path, *_SCALAR, "features", "maxent", "reconstruct")
    for step in ("package", "cli", *_SCALAR, "features", "maxent"):
        assert loaded[step]["_gamma"] == [], step
    assert loaded["reconstruct"]["_gamma"] == ["phonodist._gamma"]


def test_no_subcommand_imports_dataclasses_logging_or_fractions(tmp_path):
    loaded = _probe_imports(tmp_path, *_SCALAR, "features", "maxent", "reconstruct")
    for step in ("package", "cli", *_SCALAR, "features", "maxent", "reconstruct"):
        assert loaded[step]["dataclasses"] == loaded[step]["logging"] == [], step
        assert loaded[step]["fractions"] == [], step


@pytest.mark.parametrize("step", ["reconstruct"])
def test_array_subcommands_import_numpy(tmp_path, step):
    loaded = _probe_imports(tmp_path, *_SCALAR, step)
    assert loaded[_SCALAR[-1]]["numpy"] == []
    assert "numpy" in loaded[step]["numpy"]


def test_only_reconstruct_imports_numpy(tmp_path):
    # the feature columns are array('d'), and the maxent solver runs on
    # the standard library
    loaded = _probe_imports(tmp_path, *_SCALAR, "features", "maxent")
    for step in ("package", "cli", *_SCALAR, "features", "maxent"):
        assert loaded[step]["numpy"] == loaded[step]["scipy"] == [], step


def _modules_loaded_by(module):
    """The numpy, scipy and phonodist modules that importing ``module``
    loads in a fresh interpreter."""
    src = Path(phonodist.__file__).resolve().parents[1]
    probe = (f"import json, sys, {module}; print(json.dumps(sorted(m for m in sys.modules "
             "if m.split('.')[0] in ('numpy', 'scipy', 'phonodist'))))")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_maxent_module_imports_no_numpy():
    loaded = _modules_loaded_by("phonodist.maxent")
    assert [m for m in loaded if not m.startswith("phonodist")] == []


def test_special_module_imports_the_standard_library_alone():
    # and the package's exception types, which digamma raises
    assert _modules_loaded_by("phonodist._special") == [
        "phonodist", "phonodist._special", "phonodist.errors"]


def test_no_subcommand_imports_scipy(tmp_path):
    # reconstruct's moments and bands take their incomplete gamma and beta
    # ratios from phonodist._gamma, which needs numpy alone
    loaded = _probe_imports(tmp_path, *_SCALAR, "features", "maxent", "reconstruct")
    for step in ("package", "cli", *_SCALAR, "features", "maxent", "reconstruct"):
        assert loaded[step]["scipy"] == [], step


# every name phonodist exports, each from the one module that defines it
_EXPORTS = (
    "AlphaScalingLaw", "CompensationReport", "ConstraintVector", "CountVector",
    "CoverageError", "DirichletSpec", "DomainError", "FeatureTable", "IncidenceTable",
    "InfeasibleError", "IngestError", "MaxEntProblem", "MaxEntSolution", "NumericalError",
    "OrderStatSummary", "PhonemizedLexicon", "PhonodistError", "RegressionFit",
    "build_feature_table", "compensation_report", "constraint_expectations", "cwj_estimate",
    "digamma", "expected_entropy", "fit_language", "implied_scaling_law",
    "lexical_information_gain_exact", "loglog_regression", "order_statistic_bands",
    "order_statistic_moments", "plugin_estimate", "predict_alpha", "reconstruct_from_inventory",
    "relative_entropy", "solve", "solve_alpha",
)


def test_every_export_resolves_lazily():
    assert len(_EXPORTS) == 36
    assert sorted(phonodist.__all__) == sorted(_EXPORTS)
    for name in _EXPORTS:
        # drop the cached binding, so that both forms go through the
        # module-level __getattr__
        vars(phonodist).pop(name, None)
        value = getattr(phonodist, name)
        assert value.__name__ == name
        vars(phonodist).pop(name)
        namespace = {}
        exec(f"from phonodist import {name}", namespace)
        assert namespace[name] is value
    with pytest.raises(AttributeError, match="no_such_name"):
        phonodist.no_such_name
    with pytest.raises(ImportError):
        exec("from phonodist import no_such_name", {})


def test_package_listing_names_every_export_without_loading_one():
    # in a fresh interpreter, so that no export pytest has already loaded counts
    src = Path(phonodist.__file__).resolve().parents[1]
    probe = ("import json, sys, phonodist; "
             "bound = [n for n in phonodist.__all__ if n in vars(phonodist)]; listed = dir(phonodist); "
             "print(json.dumps({'bound': bound, 'listed': listed, 'numpy': 'numpy' in sys.modules}))")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["bound"] == []
    assert set(_EXPORTS) <= set(result["listed"])
    assert result["listed"] == sorted(result["listed"])
    assert result["numpy"] is False


@pytest.mark.parametrize("module", sorted(phonodist._EXPORTS))
def test_module_all_lists_only_its_names_and_every_export(module):
    mod = importlib.import_module(f"phonodist.{module}")
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == [], f"{module}.__all__ names what it does not define"
    assert set(phonodist._EXPORTS[module]) <= set(mod.__all__)


# Exit-code contract: every file-reading subcommand, fed arbitrary TSV text,
# and the two that read no file, fed arbitrary --n, --coeff-a and
# --exponent-b strings, end with 0, 2, 3 or 4; a failure prints exactly one
# `error:` line, and a JSON output holds no NaN or infinity.  One cell in
# twenty is malformed, so that many files get past ingest.
def _mostly(valid, odd):
    return st.integers(0, 19).flatmap(lambda i: valid if i else odd)


def _cells(valid, odd):
    return _mostly(valid, st.sampled_from(odd))


# the phonemes of toy_a.lex and toy_incidence.tsv, so coverage checks can pass
_LABELS = _cells(st.sampled_from("aikmopt"), ["é", "e\u0301", "#", " a ", "", "x"])


def _ints(low, high):
    odd = ["0", "-1", "+4", " 5 ", "1.5", "x", "", str(2**63 - 1), str(2**63), "1" + "0" * 30]
    return _cells(st.integers(low, high).map(str), odd)


_FLOATS = _cells(
    st.floats(1e-3, 1e3).map(repr), ["0", "-1", "1e-300", "1e300", "inf", "nan", "x", ""]
)
_WORDS = st.lists(_LABELS, max_size=4).map(" ".join)
_NOISE = st.one_of(
    st.sampled_from(["", "# comment", "   ", "\t", "a\tb\tc\td\te\tf"]),
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=20),
)


def _tsv(rows, header=None):
    """File text: an optional header, then data rows mixed with noise lines.

    Rows are unique in their first cell, so that labels rarely repeat.
    """
    lines = st.lists(_mostly(rows, _NOISE), max_size=10, unique_by=lambda r: r.split("\t")[0])
    headers = _mostly(st.just([header]), st.just([])) if header else st.just([])
    return st.builds(lambda h, body: "\n".join(h + body) + "\n", headers, lines)


def _row(*cells):
    return st.tuples(*cells).map("\t".join)


@st.composite
def _feature_table(draw):
    """Feature rows whose observed_prob column sums to 1 unless noise hits it."""
    weights = draw(st.lists(st.integers(1, 9), max_size=6))
    rows = [
        "\t".join([draw(_LABELS), repr(w / sum(weights))] + [draw(_FLOATS) for _ in range(3)])
        for w in weights
    ]
    rows += draw(st.lists(_mostly(st.just("# comment"), _NOISE), max_size=2))
    header = draw(_mostly(st.just(["phoneme\tobserved_prob\tcost\tseg_info\tlex_div"]), st.just([])))
    return "\n".join(header + draw(st.permutations(rows))) + "\n"


_FREQUENCY = _tsv(_row(_LABELS, _ints(0, 40)))
_CONTRACT = {
    "fit-alpha": (_FREQUENCY, lambda path: ["fit-alpha", path]),
    "estimate-entropy": (_FREQUENCY, lambda path: ["estimate-entropy", path]),
    "regress": (_tsv(_row(_FLOATS, _FLOATS), "n\talpha_hat"), lambda path: ["regress", path]),
    "report": (
        _FREQUENCY,
        lambda path: ["report", path, data_path("kaiwa.tsv"), data_path("samoan.tsv")],
    ),
    "features-lexicon": (
        _tsv(_row(_ints(1, 40), _WORDS)),
        lambda path: ["features", path, data_path("toy_incidence.tsv")],
    ),
    "features-incidence": (
        _tsv(
            _row(_LABELS, _ints(1, 10), _ints(10, 40)),
            "phoneme\tlanguages_with\tlanguages_total",
        ),
        lambda path: ["features", data_path("toy_a.lex"), path],
    ),
    "maxent": (_feature_table(), lambda path: ["maxent", path]),
}


# one option value in three is odd: unparsable, non-positive, or so large
# or small that the law overflows or underflows; hypothesis leans to the
# first entries, so an overflowing law (1e308 * 2**2) comes first
_ODD_NUMBERS = st.sampled_from(
    ["1e308", "2", "x", "", "0", "-1", "nan", "inf", "1e-320", "1e-300", "100", "1e300"]
)
_COEFF_A = st.integers(0, 2).flatmap(lambda i: st.floats(1e-3, 1e3).map(repr) if i else _ODD_NUMBERS)
_EXPONENT_B = st.integers(0, 2).flatmap(lambda i: st.floats(-3, 3).map(repr) if i else _ODD_NUMBERS)
_ODD_N = ["1", "0", "-5", "x", "", "2.5", "1e3"]


def _law_argv(command, n):
    return st.tuples(n, _COEFF_A, _EXPONENT_B).map(
        lambda v: [command, f"--n={v[0]}", f"--coeff-a={v[1]}", f"--exponent-b={v[2]}"]
    )


# argv strategies for the subcommands that read no file; reconstruct stays
# at n <= 60, since its cost grows with n, apart from n above its limit
_NO_FILE = {
    "predict-alpha": _law_argv(
        "predict-alpha",
        _cells(st.one_of(st.integers(2, 10**4), st.integers()).map(str), _ODD_N + ["9" * 400]),
    ),
    "reconstruct": _law_argv(
        "reconstruct", _cells(st.integers(2, 60).map(str), _ODD_N + ["2001", "100000"])
    ),
}


def _no_constant(name):
    raise ValueError(f"JSON output holds {name}")


@pytest.mark.parametrize("case", sorted(_CONTRACT) + sorted(_NO_FILE))
@pytest.mark.filterwarnings("ignore:feature columns are affinely dependent")
@given(data=st.data())
@settings(
    max_examples=60,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_exit_code_contract(tmp_path, capsys, case, data):
    output = tmp_path / "out"
    if case in _NO_FILE:
        argv = data.draw(_NO_FILE[case], label="argv")
    else:
        strategy, build = _CONTRACT[case]
        path = tmp_path / "input.tsv"
        path.write_text(data.draw(strategy, label="text"), encoding="utf-8")
        argv = [*build(str(path)), "-o", str(output)]
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    assert code in (0, 2, 3, 4)
    if code in (3, 4):
        errors = [line for line in err.splitlines() if line.startswith("error:")]
        assert len(errors) == 1, err
        assert err.endswith(errors[0] + "\n")
    if code == 0 and argv[0] not in ("features", "reconstruct"):
        text = output.read_text(encoding="utf-8") if "-o" in argv else out
        json.loads(text, parse_constant=_no_constant)


@pytest.mark.parametrize(
    "argv", [["predict-alpha", "--n", "40"], ["reconstruct", "--n", "5"]], ids=["json", "tsv"]
)
@pytest.mark.parametrize("target", ["missing-dir", "directory"])
def test_unwritable_output_exits_3_naming_the_path(tmp_path, capsys, argv, target):
    output = tmp_path / "absent" / "out" if target == "missing-dir" else tmp_path
    code = cli.main([*argv, "-o", str(output)])
    out, err = capsys.readouterr()
    assert (code, out) == (3, "")
    assert err.startswith(f"error: cannot write {output}: ")
    assert err.count("\n") == 1
