import json
import math
import os
import subprocess
import sys
from importlib.resources import files
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import phonodist
from phonodist import cli, corpus, dirichlet, entropy, io, maxent
from phonodist.errors import NumericalError

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
        counts = io.load_frequency_table(data_path("samoan.tsv"))
        est = entropy.cwj_entropy(counts)
        assert payload["schema_version"] == 2
        assert payload["language"] == "samoan"
        assert payload["n"] == est.support_size
        assert payload["alpha_hat"] == float(
            f"{dirichlet.solve_alpha(est.value, est.support_size):.12g}"
        )
        assert payload["H_cwj"] == float(f"{est.value:.12g}")

    def test_n_override(self, capsys):
        payload = run_json(capsys, "fit-alpha", data_path("samoan.tsv"), "--n", "20")
        assert payload["n"] == 20
        assert payload["config"]["n_override"] == 20

    def test_infeasible_entropy_exits_4(self, capsys, tmp_path):
        table = tmp_path / "uniform.tsv"
        table.write_text("a\t100\nb\t100\nc\t100\n", encoding="utf-8")
        code, _, err = run(capsys, "fit-alpha", str(table))
        assert code == 4
        assert "error:" in err

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

    def test_deterministic_output_files(self, capsys, tmp_path):
        a, b = tmp_path / "a.tsv", tmp_path / "b.tsv"
        assert cli.main(["reconstruct", "--n", "17", "-o", str(a)]) == 0
        assert cli.main(["reconstruct", "--n", "17", "-o", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_bad_gamma_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["reconstruct", "--n", "10", "--gamma", "1.5"])
        assert excinfo.value.code == 2

    def test_overflow_exits_4_with_one_line(self, capsys):
        # the moment quadrature overflows for this small alpha; the library
        # raises OverflowError and the CLI reports it as a numerical failure
        code, out, err = run(capsys, "reconstruct", "--n", "200", "--coeff-a", "0.01")
        assert code == 4
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "OverflowError" in err
        assert "Traceback" not in err


class TestEstimateEntropy:
    def test_matches_library(self, capsys):
        payload = run_json(capsys, "estimate-entropy", data_path("kaiwa.tsv"))
        counts = io.load_frequency_table(data_path("kaiwa.tsv"))
        est = entropy.cwj_entropy(counts)
        assert payload["H_cwj"] == float(f"{est.value:.12g}")
        assert payload["H_plugin"] == float(
            f"{entropy.plugin_entropy(counts).value:.12g}"
        )
        assert payload["H_max"] == float(f"{math.log(est.support_size):.12g}")
        assert 0.0 < payload["relative_entropy"] <= 1.0


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
        expected = dirichlet.solve_alpha(entropy.cwj_entropy(loaded).value, n)
        assert payload["alpha_hat"] == float(f"{expected:.12g}")


_IMPORT_PROBE = """
import json, sys
from pathlib import Path


def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")


from phonodist import cli

at_import = scipy_modules()
data, tmp, last = Path(sys.argv[1]), Path(sys.argv[2]), sys.argv[3]
out = ["-o", str(tmp / "out")]
tables = [str(data / f"{name}.tsv") for name in ("amenglish", "bengali", "kaiwa", "samoan", "swedish")]
fits = tmp / "fits.tsv"
fits.write_text("11\\t2.0\\n40\\t0.59\\n160\\t0.16\\n", encoding="utf-8")
features = ["features", str(data / "toy_a.lex"), str(data / "toy_incidence.tsv")]
codes = [
    cli.main(["predict-alpha", "--n", "40", *out]),
    cli.main(["estimate-entropy", tables[3], *out]),
    cli.main([*features, "-o", str(tmp / "features.tsv")]),
    cli.main(["regress", str(fits), *out]),
    cli.main(["fit-alpha", tables[3], *out]),
    cli.main(["report", *tables, *out]),
]
after_six = scipy_modules()
if last == "maxent":
    codes.append(cli.main(["maxent", str(tmp / "features.tsv"), *out]))
else:
    codes.append(cli.main(["reconstruct", "--n", "11", *out]))
after_last = scipy_modules()
print(json.dumps({"codes": codes, "at_import": at_import, "after_six": after_six,
                  "after_last": after_last}))
"""


def _probe_imports(tmp_path, last):
    """Run the six light subcommands, then ``last``, in one fresh interpreter,
    so that nothing pytest has already imported counts."""
    src = Path(phonodist.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, str(DATA), str(tmp_path), last],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["codes"] == [0] * 7
    return result


def test_six_subcommands_never_import_scipy_optimize_or_integrate(tmp_path):
    result = _probe_imports(tmp_path, "maxent")
    watched = ("scipy.optimize", "scipy.integrate")
    assert [m for m in watched if m in result["after_six"]] == []
    # maxent's feasibility LP does load scipy.optimize, so the probe can see it
    assert [m for m in watched if m in result["after_last"]] == ["scipy.optimize"]


def test_six_subcommands_never_import_scipy(tmp_path):
    result = _probe_imports(tmp_path, "reconstruct")
    assert result["at_import"] == []
    assert result["after_six"] == []
    # reconstruct's moments and bands do load scipy.special
    assert "scipy.special" in result["after_last"]


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
# at n <= 60, since its cost grows with n and it has no upper bound on n yet
_NO_FILE = {
    "predict-alpha": _law_argv(
        "predict-alpha",
        _cells(st.one_of(st.integers(2, 10**4), st.integers()).map(str), _ODD_N + ["9" * 400]),
    ),
    "reconstruct": _law_argv("reconstruct", _cells(st.integers(2, 60).map(str), _ODD_N)),
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
