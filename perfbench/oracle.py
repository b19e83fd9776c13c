"""Independent reference computations and output checks.

Nothing here imports phonodist.  Each check recomputes what the program
returned from the inputs alone, or tests a property the method must
have, and returns a list of problems (empty when the output passes):

* rank curves: sum of means is 1, the second-moment identity
  sum(sd^2 + mean^2) = (alpha+1)/(n alpha+1), monotone means inside
  (0, 1) bands, and the harmonic closed form at alpha = 1;
* feature tables: phoneme probabilities and segmental information by
  direct prefix counting, cost = -ln(incidence), lexical diversity from
  the Chao-Wang-Jost estimator evaluated in mpmath as one closed
  expression (no truncated series);
* maxent solutions: residuals recomputed from the returned
  probabilities, log p affine in the features;
* CLI artifacts: the same checks on the parsed files, plus the
  concentration equation psi(n a + 1) - psi(a + 1) = H in mpmath, the
  scaling-law closed form and an ordinary least-squares fit.
"""

from __future__ import annotations

import json
import math
from collections import Counter, defaultdict
from fractions import Fraction

import mpmath
import numpy as np

mpmath.mp.dps = 40

CWJ_TAIL_CAP = 10_000_000  # terms the program's tail loop stops at
DEFAULT_LAW = (19.47, -0.95)

# tolerances, set from the method's stated accuracy, not from today's output
TOL_SUM = 1e-8          # |sum of rank means - 1|
TOL_MOMENT = 1e-6       # relative, second-moment identity
TOL_HARMONIC = 1e-6     # alpha = 1 closed form (acceptance criterion 3)
TOL_FEATURE = 1e-9      # relative, per-phoneme features
TOL_RESIDUAL = 1e-8     # maxent residuals and log-affinity
TOL_ALPHA_EQ = 1e-9     # entropy equation at the printed alpha
TOL_PRINTED = 1e-10     # relative, 12-significant-digit artifacts


def _close(a: float, b: float, rel: float, abs_: float = 0.0) -> bool:
    return math.isfinite(a) and abs(a - b) <= max(rel * abs(b), abs_)


# ---------------------------------------------------------------- entropy

def plugin(counts) -> float:
    counts = [c for c in counts if c > 0]
    total = sum(counts)
    return -math.fsum(c / total * math.log(c / total) for c in counts)


def cwj_parts(counts, tail_terms: int | None = None):
    """(observed part, unseen part) of the Chao-Wang-Jost (2013) estimator.

    The unseen part (f1/N) (1-A)^(1-N) (-ln A - sum_{r<N} (1-A)^r / r)
    equals (f1/N) sum_{j>=1} (1-A)^j / (N-1+j), which is evaluated as
    (f1/N) (r/N) 2F1(1, N; N+1; r) with r = 1-A.  With ``tail_terms``
    the series is cut after that many terms, through the same
    hypergeometric form of the remainder.
    """
    counts = [int(c) for c in counts if c > 0]
    n_tok = sum(counts)
    if len(counts) <= 1 or n_tok <= 1:
        return mpmath.mpf(0), mpmath.mpf(0)
    freq = Counter(counts)
    big_n = mpmath.mpf(n_tok)
    psi_n = mpmath.digamma(big_n)
    observed = mpmath.fsum(
        m * (x / big_n) * (psi_n - mpmath.digamma(x))
        for x, m in freq.items() if x <= n_tok - 1
    )
    f1, f2 = freq.get(1, 0), freq.get(2, 0)
    if f1 == 0:
        return observed, mpmath.mpf(0)
    if f2 > 0:
        a_cov = Fraction(2 * f2, (n_tok - 1) * f1 + 2 * f2)
    else:
        a_cov = Fraction(2, (n_tok - 1) * (f1 - 1) + 2)
    if a_cov == 1:
        return observed, mpmath.mpf(0)
    r = 1 - mpmath.mpf(a_cov.numerator) / a_cov.denominator
    series = (r / big_n) * mpmath.hyp2f1(1, n_tok, n_tok + 1, r)
    if tail_terms is not None and (tail_terms + 1) * mpmath.log(r) > -200:
        # the remainder past the cut; below e^-200 it cannot show in a double
        start = n_tok + tail_terms
        series -= r ** (tail_terms + 1) / start * mpmath.hyp2f1(1, start, start + 1, r)
    return observed, f1 / big_n * series


def cwj(counts) -> float:
    observed, unseen = cwj_parts(counts)
    return float(observed + unseen)


def solve_alpha_residual(alpha: float, n: int, entropy: float) -> float:
    """psi(n alpha + 1) - psi(alpha + 1) - H, in mpmath."""
    a = mpmath.mpf(alpha)
    return float(mpmath.digamma(n * a + 1) - mpmath.digamma(a + 1) - entropy)


# --------------------------------------------------------------- rank curve

def harmonic_means(n: int) -> list[float]:
    """E[X_(rank r)] = (1/n) sum_{k=r}^{n} 1/k for the flat Dirichlet."""
    out, acc = [], Fraction(0)
    for k in range(n, 0, -1):
        acc += Fraction(1, k)
        out.append(float(acc / n))
    return out[::-1]


def check_rank_curve(n, alpha, mean, sd, lo, hi, unit_alpha=False) -> list[str]:
    problems = []
    if not (len(mean) == len(sd) == len(lo) == len(hi) == n):
        return [f"n={n}: expected {n} ranks, got {len(mean)}"]
    total = math.fsum(mean)
    if not abs(total - 1.0) <= TOL_SUM:
        problems.append(f"n={n}: sum of means {total!r} != 1")
    second = math.fsum(s * s + m * m for m, s in zip(mean, sd))
    expect = (alpha + 1.0) / (n * alpha + 1.0)
    if not _close(second, expect, TOL_MOMENT):
        problems.append(f"n={n}: sum(sd^2+mean^2) {second!r} != (a+1)/(na+1) {expect!r}")
    for i in range(n - 1):
        if not mean[i + 1] <= mean[i] * (1.0 + 1e-12):
            problems.append(f"n={n}: mean rises at rank {i + 2}")
            break
    for i in range(n):
        if not 0.0 < lo[i] < hi[i] < 1.0:
            problems.append(f"n={n}: band at rank {i + 1} not inside 0 < lo < hi < 1")
            break
    if unit_alpha:
        ref = harmonic_means(n)
        worst = max(abs(m - r) for m, r in zip(mean, ref))
        if not worst <= TOL_HARMONIC:
            problems.append(f"n={n}, alpha=1: max |mean - harmonic| = {worst:.3g}")
    return problems


# ----------------------------------------------------------------- lexicons

def read_lexicon(path) -> list[tuple[tuple[str, ...], int]]:
    """Merged (word, count) entries, read without the program's reader."""
    merged: dict[tuple[str, ...], int] = defaultdict(int)
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if not line.strip() or line.startswith("#"):
                continue
            count, phones = line.rstrip("\n").split("\t")
            merged[tuple(phones.split())] += int(count)
    return sorted(merged.items())


def read_incidence(path) -> dict[str, tuple[int, int]]:
    with open(path, encoding="utf-8") as fh:
        rows = [line.rstrip("\n").split("\t") for line in fh if line.strip()]
    return {p: (int(w), int(t)) for p, w, t in rows[1:]}


def lexicon_reference(entries, incidence) -> dict[str, dict]:
    """Per-phoneme reference features of a lexicon, by direct counting.

    seg_info(p) = sum_o w(o,p)/W_p * ln(out(o)/w(o,p)), where o runs over
    word-initial prefixes, w(o,p) is the token mass of words continuing
    o with p, and out(o) the token mass of all words starting with o.
    """
    prefix_mass: Counter = Counter()
    next_mass: Counter = Counter()
    phone_mass: Counter = Counter()
    word_sets: dict[str, list[int]] = defaultdict(list)
    for word, count in entries:
        for i in range(len(word) + 1):
            prefix_mass[word[:i]] += count
        for i, p in enumerate(word):
            next_mass[(word[:i], p)] += count
            phone_mass[p] += count
        for p in set(word):
            word_sets[p].append(count)
    contexts: dict[str, list[tuple[int, int]]] = defaultdict(list)
    for (prefix, p), w in next_mass.items():
        contexts[p].append((w, prefix_mass[prefix]))
    matched = [p for p in phone_mass if p in incidence]
    mass = sum(phone_mass[p] for p in matched)
    ref = {}
    for p in matched:
        w_total = sum(w for w, _ in contexts[p])
        observed, unseen = cwj_parts(word_sets[p])
        with_count, total = incidence[p]
        ref[p] = {
            "observed_prob": phone_mass[p] / mass,
            "cost": -math.log(with_count / total),
            "seg_info": math.fsum(w / w_total * math.log(out / w) for w, out in contexts[p]),
            "lex_div": float(observed + unseen),
            "word_counts": word_sets[p],
        }
    return ref


def capped_lex_div(counts) -> float:
    """CWJ with the unseen series cut after the program's 10^7-term cap."""
    observed, unseen = cwj_parts(counts, tail_terms=CWJ_TAIL_CAP)
    return float(observed + unseen)


def check_feature_rows(ref, phonemes, observed, cost, seg, lex) -> tuple[list[str], list[str]]:
    """(problems, phonemes whose lex_div alone is off)."""
    problems, lex_off = [], []
    if sorted(phonemes) != sorted(ref):
        return [f"phoneme set {sorted(phonemes)} != {sorted(ref)}"], []
    order = sorted(phonemes, key=lambda p: (-ref[p]["observed_prob"], p))
    if list(phonemes) != order:
        problems.append("phonemes not in descending-probability order")
    for i, p in enumerate(phonemes):
        r = ref[p]
        for name, got in (("observed_prob", observed[i]), ("cost", cost[i]), ("seg_info", seg[i])):
            if not _close(got, r[name], TOL_FEATURE, 1e-12):
                problems.append(f"{p}: {name} {got!r} != {r[name]!r}")
        if not _close(lex[i], r["lex_div"], TOL_FEATURE, 1e-12):
            lex_off.append(p)
    return problems, lex_off


def check_targets(observed, cost, seg, lex, targets) -> list[str]:
    expect = [math.fsum(o * f for o, f in zip(observed, col)) for col in (cost, seg, lex)]
    return [
        f"target c{k + 1} {got!r} != {want!r}"
        for k, (got, want) in enumerate(zip(targets, expect))
        if not _close(got, want, TOL_FEATURE, 1e-12)
    ]


def check_maxent(features, targets, probs, lambda0=None, lambdas=None, residuals=None) -> list[str]:
    """Residuals recomputed from probs; log p affine in the features."""
    problems = []
    feats = np.asarray(features, dtype=float)
    p = np.asarray(probs, dtype=float)
    if not (np.all(p > 0) and abs(math.fsum(p) - 1.0) <= 1e-12):
        return ["probabilities not positive or not summing to 1"]
    recomputed = [math.fsum(p * feats[:, k]) - targets[k] for k in range(feats.shape[1])]
    worst = max(abs(r) for r in recomputed)
    if not worst <= TOL_RESIDUAL:
        problems.append(f"max |E_p[f] - c| = {worst:.3g}")
    if residuals is not None:
        if max(abs(a - b) for a, b in zip(residuals, recomputed)) > TOL_RESIDUAL:
            problems.append("returned residuals disagree with the returned probabilities")
    design = np.column_stack([np.ones(len(p)), feats])
    logp = np.log(p)
    coef, *_ = np.linalg.lstsq(design, logp, rcond=None)
    affine_gap = float(np.max(np.abs(design @ coef - logp)))
    if not affine_gap <= TOL_RESIDUAL:
        problems.append(f"log p not affine in the features (gap {affine_gap:.3g})")
    if lambdas is not None:
        gap = float(np.max(np.abs(lambda0 + feats @ np.asarray(lambdas) - logp)))
        if not gap <= TOL_RESIDUAL:
            problems.append(f"log p != lambda0 + F lambda (gap {gap:.3g})")
    return problems


def check_lexicon_op(ref, out) -> tuple[list[str], list[str]]:
    """(problems, phonemes whose lex_div alone is off) for one pipeline run."""
    problems, lex_off = check_feature_rows(
        ref, out["phonemes"], out["observed_prob"], out["cost"], out["seg_info"], out["lex_div"]
    )
    problems += check_targets(
        out["observed_prob"], out["cost"], out["seg_info"], out["lex_div"], out["targets"]
    )
    feats = np.column_stack([out["cost"], out["seg_info"], out["lex_div"]])
    problems += check_maxent(
        feats, out["targets"], out["probs"], out["lambda0"], out["lambdas"], out["residuals"]
    )
    return problems, lex_off


def lex_div_fault(ref, phonemes, lex, lex_off) -> str | None:
    """Name the known CWJ fault that explains every off lex_div, if one does.

    ``cap``: the value equals the series cut after 10^7 terms (the silent
    cap in the program's tail loop).  ``f1=1``: the phoneme's word set
    has one singleton and some doubletons, and the value equals the
    observed part alone (the program drops the unseen term when f1 = 1).
    """
    kinds = set()
    for p in lex_off:
        got = lex[list(phonemes).index(p)]
        counts = ref[p]["word_counts"]
        observed, _ = cwj_parts(counts)
        if counts.count(1) == 1 and counts.count(2) > 0 and _close(got, float(observed), TOL_FEATURE):
            kinds.add("f1=1")
        elif _close(got, capped_lex_div(counts), TOL_FEATURE, 1e-12):
            kinds.add("cap")
        else:
            return None
    return "+".join(sorted(kinds)) if kinds else None


# --------------------------------------------------------------- regression

def ols(points) -> dict:
    """OLS of ln(alpha) on ln(n) with standard errors and two-sided p."""
    xs = [mpmath.log(n) for n, _ in points]
    ys = [mpmath.log(a) for _, a in points]
    k = len(points)
    mx, my = mpmath.fsum(xs) / k, mpmath.fsum(ys) / k
    sxx = mpmath.fsum((x - mx) ** 2 for x in xs)
    sxy = mpmath.fsum((x - mx) * (y - my) for x, y in zip(xs, ys))
    slope = sxy / sxx
    intercept = my - slope * mx
    rss = mpmath.fsum((y - intercept - slope * x) ** 2 for x, y in zip(xs, ys))
    df = k - 2
    s2 = rss / df
    se_slope = mpmath.sqrt(s2 / sxx)
    se_intercept = mpmath.sqrt(s2 * (1 / mpmath.mpf(k) + mx * mx / sxx))
    t = slope / se_slope
    p = mpmath.betainc(df / mpmath.mpf(2), 0.5, 0, df / (df + t * t), regularized=True)
    return {
        "slope": float(slope), "intercept": float(intercept),
        "se_slope": float(se_slope), "se_intercept": float(se_intercept),
        "t_slope": float(t), "p_slope": float(p), "n_points": k,
    }


def check_regression(fit: dict, law: dict, points) -> list[str]:
    ref = ols(points)
    problems = [
        f"regression {key} {fit.get(key)!r} != {want!r}"
        for key, want in ref.items()
        if not (fit.get(key) == want if key == "n_points"
                else _close(fit.get(key, math.nan), want, 1e-8, 1e-12))
    ]
    coeff = math.exp(ref["intercept"])
    for key, want in (("coeff_a", coeff), ("exponent_b", ref["slope"]),
                      ("se_a", coeff * ref["se_intercept"]), ("se_b", ref["se_slope"])):
        if not _close(law.get(key, math.nan), want, 1e-8):
            problems.append(f"law {key} {law.get(key)!r} != {want!r}")
    return problems


# ------------------------------------------------------------ CLI artifacts

def read_table(path) -> list[int]:
    with open(path, encoding="utf-8") as fh:
        return [int(line.split("\t")[1]) for line in fh if line.strip() and not line.startswith("#")]


def read_points(path) -> list[tuple[float, float]]:
    with open(path, encoding="utf-8") as fh:
        rows = [line.rstrip("\n").split("\t") for line in fh if line.strip()]
    return [(float(n), float(a)) for n, a in rows if n != "n"]


def _check_language(payload, counts, prefix) -> list[str]:
    problems = []
    n = sum(1 for c in counts if c > 0)
    h_cwj = cwj(counts)
    expect = {"n": n, "H_cwj": h_cwj, "relative_entropy": h_cwj / math.log(n)}
    if "H_plugin" in payload:
        expect["H_plugin"] = plugin(counts)
    if "tokens" in payload:
        expect["tokens"] = sum(counts)
    if "H_max" in payload:
        expect["H_max"] = math.log(n)
    for key, want in expect.items():
        if not _close(payload.get(key, math.nan), want, TOL_PRINTED, 1e-12):
            problems.append(f"{prefix}{key} {payload.get(key)!r} != {want!r}")
    if "alpha_hat" in payload:
        gap = solve_alpha_residual(payload["alpha_hat"], n, h_cwj)
        if not abs(gap) <= TOL_ALPHA_EQ:
            problems.append(f"{prefix}alpha_hat misses psi(na+1)-psi(a+1)=H by {gap:.3g}")
    return problems


def _parse_tsv(text):
    comments = [line for line in text.splitlines() if line.startswith("#")]
    rows = [line.split("\t") for line in text.splitlines() if line and not line.startswith("#")]
    return comments, rows[0], rows[1:]


def check_cli_reconstruct(text, n) -> list[str]:
    comments, header, rows = _parse_tsv(text)
    if header != ["rank", "mean", "sd", "ci_low", "ci_high"] or len(rows) != n:
        return ["reconstruct: unexpected layout"]
    config = dict(kv.split("=") for kv in comments[1].split("\t")[1:])
    alpha = float(config["alpha"])
    want = DEFAULT_LAW[0] * n ** DEFAULT_LAW[1]
    problems = [] if _close(alpha, want, TOL_PRINTED) else [f"reconstruct alpha {alpha} != {want}"]
    cols = list(zip(*[[float(v) for v in row[1:]] for row in rows]))
    return problems + check_rank_curve(n, alpha, *cols)


def check_cli_features(text, lexicon_path, incidence_path) -> tuple[list[str], list[str], dict]:
    """(problems, phonemes with only lex_div off, reference) for a features TSV."""
    comments, header, rows = _parse_tsv(text)
    if header != ["phoneme", "observed_prob", "cost", "seg_info", "lex_div"]:
        return ["features: unexpected header"], [], {}
    ref = lexicon_reference(read_lexicon(lexicon_path), read_incidence(incidence_path))
    phonemes = [row[0] for row in rows]
    observed, cost, seg, lex = (list(col) for col in zip(*[[float(v) for v in row[1:]] for row in rows]))
    problems, lex_off = check_feature_rows(ref, phonemes, observed, cost, seg, lex)
    footer = dict(kv.split("=") for kv in comments[-1].lstrip("# ").split("\t"))
    targets = [float(footer[k]) for k in ("c1", "c2", "c3")]
    problems += check_targets(observed, cost, seg, lex, targets)
    return problems, lex_off, ref


def check_cli_maxent(payload, features_text) -> list[str]:
    _, _, rows = _parse_tsv(features_text)
    phonemes = [row[0] for row in rows]
    data = np.array([[float(v) for v in row[1:]] for row in rows])
    observed = data[:, 0] / data[:, 0].sum()
    feats = data[:, 1:]
    targets = [math.fsum(observed * feats[:, k]) for k in range(3)]
    problems = [
        f"maxent target c{k + 1} {got!r} != {want!r}"
        for k, (got, want) in enumerate(zip(payload["targets"], targets))
        if not _close(got, want, TOL_PRINTED, 1e-12)
    ]
    if sorted(payload["probs"]) != sorted(phonemes):
        return problems + ["maxent: support differs from the feature table"]
    probs = [payload["probs"][p] for p in phonemes]
    # printed to 12 digits: residuals hold to that precision only
    p = np.asarray(probs) / math.fsum(probs)
    worst = max(abs(math.fsum(p * feats[:, k]) - targets[k]) for k in range(3))
    if not worst <= 1e-9 * max(1.0, float(np.abs(feats).max())):
        problems.append(f"maxent: max |E_p[f] - c| = {worst:.3g}")
    gap = float(np.max(np.abs(payload["lambda0"] + feats @ np.asarray(payload["lambdas"]) - np.log(p))))
    if not gap <= 1e-9 * max(1.0, float(np.abs(feats).max()) * max(1.0, np.abs(payload["lambdas"]).max())):
        problems.append(f"maxent: log p != lambda0 + F lambda (gap {gap:.3g})")
    return problems


def check_cli_call(op: dict, stdout: str, output: str | None) -> tuple[list[str], str | None]:
    """(problems, known fault or None) for one CLI call's artifact."""
    argv = op["argv"]
    text = output if "output" in op else stdout
    cmd = argv[0]
    if cmd == "predict-alpha":
        n = int(argv[argv.index("--n") + 1])
        got = json.loads(text)["alpha_predicted"]
        want = DEFAULT_LAW[0] * n ** DEFAULT_LAW[1]
        return ([] if _close(got, want, TOL_PRINTED) else [f"predict-alpha {got} != {want}"]), None
    if cmd == "reconstruct":
        return check_cli_reconstruct(text, int(argv[argv.index("--n") + 1])), None
    if cmd in ("fit-alpha", "estimate-entropy"):
        return _check_language(json.loads(text), read_table(argv[1]), f"{cmd} "), None
    if cmd == "features":
        problems, lex_off, ref = check_cli_features(text, argv[1], argv[2])
        if not lex_off:
            return problems, None
        _, _, rows = _parse_tsv(text)
        lex = [float(row[4]) for row in rows]
        fault = None if problems else lex_div_fault(ref, [row[0] for row in rows], lex, lex_off)
        return problems + [f"features: lex_div off for {lex_off}"], fault
    if cmd == "maxent":
        with open(argv[1], encoding="utf-8") as fh:
            return check_cli_maxent(json.loads(text), fh.read()), None
    if cmd == "regress":
        payload = json.loads(text)
        return check_regression(payload["fit"], payload["law"], read_points(argv[1])), None
    if cmd == "report":
        payload = json.loads(text)
        tables = [a for a in argv[1:] if a.endswith(".tsv")]
        problems = []
        for path, row in zip(tables, payload["languages"]):
            problems += _check_language(row, read_table(path), f"report {row['language']} ")
        points = [(row["n"], row["alpha_hat"]) for row in payload["languages"]]
        problems += check_regression(payload["regression"], payload["law"], points)
        return problems, None
    return [f"unknown subcommand {cmd}"], None
