"""Acceptance gate: one numbered criterion per test, each printing an
explicit PASS/FAIL line with the measured quantities."""

import json
import math
import time
from importlib.resources import files

import numpy as np
import pytest

from phonodist import analysis, cli, corpus, dirichlet, entropy, io, maxent

DATA = files("phonodist") / "data"
BUNDLED = ("amenglish", "bengali", "kaiwa", "samoan", "swedish")


def report(number, passed, detail):
    verdict = "PASS" if passed else "FAIL"
    print(f"criterion {number}: {verdict} — {detail}")
    assert passed, f"criterion {number} failed: {detail}"


def test_criterion_01_scaling_law_endpoints():
    dirichlet.predict_alpha(2)  # warm-up
    start = time.perf_counter()
    lo = dirichlet.predict_alpha(160)
    hi = dirichlet.predict_alpha(11)
    elapsed = time.perf_counter() - start
    ok = 0.150 <= lo <= 0.165 and 1.98 <= hi <= 2.02 and elapsed < 1e-3
    report(
        1,
        ok,
        f"alpha(160)={lo:.4f} in [0.150, 0.165], alpha(11)={hi:.4f} in "
        f"[1.98, 2.02], runtime {elapsed * 1e3:.3f} ms < 1 ms",
    )


def test_criterion_02_compensation_endpoints():
    start = time.perf_counter()
    rel_160 = dirichlet.expected_entropy(
        dirichlet.DirichletSpec(160, dirichlet.predict_alpha(160))
    ) / math.log(160)
    rel_11 = dirichlet.expected_entropy(
        dirichlet.DirichletSpec(11, dirichlet.predict_alpha(11))
    ) / math.log(11)
    elapsed = time.perf_counter() - start
    ok = 0.70 <= rel_160 <= 0.72 and 0.90 <= rel_11 <= 0.92 and elapsed < 1e-2
    report(
        2,
        ok,
        f"relative entropy {rel_160:.4f} at n=160 in [0.70, 0.72], "
        f"{rel_11:.4f} at n=11 in [0.90, 0.92], runtime {elapsed * 1e3:.2f} ms < 10 ms",
    )


def test_criterion_03_order_statistic_oracle():
    start = time.perf_counter()
    worst = 0.0
    worst_sum = 0.0
    for n in (5, 11, 34, 60):
        summary = dirichlet.order_statistic_moments(dirichlet.DirichletSpec(n, 1.0))
        harmonic = np.array(
            [sum(1.0 / i for i in range(r, n + 1)) / n for r in range(1, n + 1)]
        )
        worst = max(worst, float(np.max(np.abs(summary.mean - harmonic))))
        worst_sum = max(worst_sum, abs(float(summary.mean.sum()) - 1.0))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-6 and worst_sum <= 1e-6 and elapsed < 5.0
    report(
        3,
        ok,
        f"max |mean - harmonic closed form| = {worst:.2e} <= 1e-6, "
        f"max |sum - 1| = {worst_sum:.2e} <= 1e-6, runtime {elapsed:.2f} s < 5 s",
    )


def test_criterion_04_entropy_round_trip():
    worst = 0.0
    for alpha in (0.05, 0.2, 1.0, 2.0, 10.0):
        for n in (5, 20, 80, 200):
            target = dirichlet.expected_entropy(dirichlet.DirichletSpec(n, alpha))
            recovered = dirichlet.solve_alpha(target, n)
            worst = max(worst, abs(recovered - alpha) / alpha)
    ok = worst <= 1e-8
    report(4, ok, f"max relative round-trip error = {worst:.2e} <= 1e-8 on the 5x4 grid")


def test_criterion_05_cwj_estimator():
    rng = np.random.default_rng(555)
    weights = 1.0 / np.arange(1, 31)
    probs = weights / weights.sum()
    true_h = float(-np.sum(probs * np.log(probs)))
    errors = []
    dominated = True
    for _ in range(100):
        sample = rng.multinomial(10_000, probs)
        sample = sample[sample > 0]
        cwj = entropy.cwj_estimate(sample)
        plugin = entropy.plugin_estimate(sample)
        errors.append(abs(cwj - true_h))
        dominated = dominated and cwj >= plugin - 1e-12
    mean_err = float(np.mean(errors))
    ok = mean_err <= 0.02 and dominated
    report(
        5,
        ok,
        f"mean |CWJ - H| = {mean_err:.4f} nats <= 0.02 over 100 replicates of "
        f"10,000 tokens; CWJ >= plug-in on every replicate: {dominated}",
    )


def _solved_fixtures():
    out = []
    for lex_name in ("toy_a.lex", "toy_b.lex"):
        lexicon = io.load_lexicon(str(DATA / lex_name))
        incidence = io.load_incidence(str(DATA / "toy_incidence.tsv"))
        table = corpus.build_feature_table(lexicon, incidence)
        problem = maxent.MaxEntProblem(
            support=table.phonemes,
            features=table.feature_matrix(),
            targets=corpus.constraint_expectations(table).as_array(),
        )
        out.append((lex_name, problem, maxent.solve(problem)))
    return out


def test_criterion_06_maxent_correctness():
    # (a) residuals on solved fixtures
    fixtures = _solved_fixtures()
    worst_resid = max(
        float(np.max(np.abs(sol.residuals))) for _, _, sol in fixtures
    )
    ok_a = worst_resid <= 1e-10

    # (b) ln(probs) affine in the features
    worst_affine = 0.0
    for _, problem, sol in fixtures:
        design = np.column_stack(
            [np.ones(len(problem.support)), problem.features]
        )
        coef, *_ = np.linalg.lstsq(design, np.log(sol.probs), rcond=None)
        worst_affine = max(
            worst_affine, float(np.max(np.abs(design @ coef - np.log(sol.probs))))
        )
    ok_b = worst_affine <= 1e-10

    # (c) 50 random m=3, K=2 instances against the feasible-set maximum
    rng = np.random.default_rng(66)
    worst_gap = -math.inf
    for _ in range(50):
        feats = rng.normal(size=(3, 2))
        p_true = rng.dirichlet(np.ones(3))
        targets = feats.T @ p_true
        problem = maxent.MaxEntProblem(("a", "b", "c"), feats, targets)
        sol = maxent.solve(problem)
        # normalization + 2 constraints on 3 atoms: enumerate the feasible
        # slice (generically a single point, else a 1e-3 grid on the segment)
        a = np.vstack([np.ones(3), feats.T])
        b = np.concatenate([[1.0], targets])
        particular = np.linalg.lstsq(a, b, rcond=None)[0]
        _, s, vt = np.linalg.svd(a)
        null = vt[np.sum(s > 1e-9) :].T
        candidates = [particular]
        if null.shape[1] > 0:
            for t in np.arange(-2.0, 2.0, 1e-3):
                p = particular + null @ np.full(null.shape[1], t)
                if np.all(p > 0):
                    candidates.append(p)
        best = max(
            float(-np.sum(p * np.log(p))) for p in candidates if np.all(p > 0)
        )
        worst_gap = max(worst_gap, best - sol.entropy)
    ok_c = worst_gap <= 1e-5

    # (d) synthetic multiplier recovery
    rng = np.random.default_rng(67)
    worst_lam = 0.0
    for _ in range(10):
        feats = rng.normal(size=(15, 3))
        lam_true = rng.normal(size=3)
        scores = feats @ lam_true
        p = np.exp(scores - scores.max())
        p /= p.sum()
        sol = maxent.solve(maxent.MaxEntProblem(tuple("abcdefghijklmno"), feats, feats.T @ p))
        worst_lam = max(worst_lam, float(np.max(np.abs(sol.lambdas - lam_true))))
    ok_d = worst_lam <= 1e-6

    ok = ok_a and ok_b and ok_c and ok_d
    report(
        6,
        ok,
        f"(a) max residual {worst_resid:.2e} <= 1e-10; "
        f"(b) max affine-form residual {worst_affine:.2e} <= 1e-10; "
        f"(c) max entropy gap to feasible-set maximum {worst_gap:.2e} <= 1e-5 "
        f"over 50 m=3, K=2 instances; "
        f"(d) max multiplier recovery error {worst_lam:.2e} <= 1e-6",
    )


def test_criterion_07_telescoping_identity():
    rng = np.random.default_rng(7)
    alphabet = list("abcdef")
    worst = 0.0
    for _ in range(20):
        n_words = int(rng.integers(2, 51))
        seen = set()
        rows = []
        while len(rows) < n_words:
            length = int(rng.integers(1, 7))
            word = tuple(rng.choice(alphabet, size=length))
            if word in seen:
                continue
            seen.add(word)
            rows.append((word, int(rng.integers(1, 50))))
        result = corpus.lexical_information_gain_exact(
            corpus.PhonemizedLexicon.build(rows)
        )
        worst = max(worst, abs(result.weighted_total - result.lexical_entropy))
    ok = worst <= 1e-10
    report(
        7,
        ok,
        f"max |sum of weighted gains - H(W)| = {worst:.2e} <= 1e-10 over 20 "
        f"random homophone-free lexicons (<= 50 words)",
    )


def test_criterion_08_end_to_end_macroscopic_fit():
    coverages = {}
    for name in BUNDLED:
        counts = io.load_frequency_table(str(DATA / f"{name}.tsv"))
        coverages[name] = analysis.band_coverage(counts)
    ok = all(c >= 0.80 for c in coverages.values())
    detail = ", ".join(f"{k}={v:.2f}" for k, v in coverages.items())
    report(8, ok, f"95% order-statistic band coverage >= 0.80 per table: {detail}")


def test_criterion_09_multiplier_sign_structure():
    rng = np.random.default_rng(99)
    all_correct = True
    recovered = []
    for _ in range(10):
        m = int(rng.integers(10, 31))
        # feature columns shaped like the real ones: nonnegative cost,
        # segmental information, and lexical diversity
        feats = np.column_stack(
            [
                rng.uniform(0.0, 3.0, size=m),
                rng.uniform(0.0, 2.0, size=m),
                rng.uniform(0.0, 4.0, size=m),
            ]
        )
        lam_true = np.array(
            [
                -rng.uniform(0.3, 2.0),
                rng.uniform(0.3, 2.0),
                rng.uniform(0.3, 2.0),
            ]
        )
        scores = feats @ lam_true
        probs = np.exp(scores - scores.max())
        probs /= probs.sum()
        table = corpus.FeatureTable(
            phonemes=tuple(f"p{i}" for i in range(m)),
            observed_prob=probs,
            cost=feats[:, 0],
            seg_info=feats[:, 1],
            lex_div=feats[:, 2],
            excluded=(),
            coverage=1.0,
        )
        constraints = corpus.constraint_expectations(table)
        problem = maxent.MaxEntProblem(
            support=table.phonemes,
            features=table.feature_matrix(),
            targets=constraints.as_array(),
        )
        sol = maxent.solve(problem)
        signs = tuple(np.sign(sol.lambdas))
        recovered.append(signs)
        all_correct = all_correct and signs == (-1.0, 1.0, 1.0)
    report(
        9,
        all_correct,
        "signs (lambda1<0, lambda2>0, lambda3>0) recovered through the "
        f"features -> expectations -> solve pipeline in {sum(s == (-1.0, 1.0, 1.0) for s in recovered)}"
        f"/10 synthetic languages",
    )


def test_criterion_10_cli_determinism(tmp_path, capsys):
    outputs = []
    for round_dir in ("r1", "r2"):
        base = tmp_path / round_dir
        base.mkdir()
        assert cli.main(["reconstruct", "--n", "13", "-o", str(base / "recon.tsv")]) == 0
        assert (
            cli.main(
                ["fit-alpha", str(DATA / "samoan.tsv"), "-o", str(base / "fit.json")]
            )
            == 0
        )
        assert (
            cli.main(
                [
                    "features",
                    str(DATA / "toy_a.lex"),
                    str(DATA / "toy_incidence.tsv"),
                    "-o",
                    str(base / "features.tsv"),
                ]
            )
            == 0
        )
        assert (
            cli.main(["maxent", str(base / "features.tsv"), "-o", str(base / "maxent.json")])
            == 0
        )
        assert (
            cli.main(
                [
                    "report",
                    *[str(DATA / f"{name}.tsv") for name in BUNDLED],
                    "-o",
                    str(base / "report.json"),
                ]
            )
            == 0
        )
        outputs.append(
            {
                name: (base / name).read_bytes()
                for name in ("recon.tsv", "fit.json", "features.tsv", "maxent.json", "report.json")
            }
        )
    capsys.readouterr()
    identical = outputs[0] == outputs[1]
    # sanity: the JSON artifacts parse and carry the schema version
    parsed = json.loads(outputs[0]["report.json"])
    ok = identical and parsed["schema_version"] == 2
    report(
        10,
        ok,
        f"5 CLI artifacts byte-identical across repeated runs: {identical}",
    )
