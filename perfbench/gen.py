"""Seeded input generator for the phonodist benchmark.

Every input a workload hands to the program is written here from the
seed alone, with Python's own ``random`` (string-seeded, so the same seed
gives the same files on every platform and numpy version):

* ``incidence.tsv``   40-phoneme cross-linguistic incidence table
* ``zipf_*.lex``      lexicon-zipf family: 40 phonemes, Zipf-like token
                      counts with doubletons as common as singletons
* ``sparse_*.lex``    lexicon-sparse family: small lexicons whose token
                      counts leave doubletons scarce in every phoneme's
                      word set
* ``capped.lex``      the seed-independent lexicon with one phoneme whose
                      CWJ tail needs more than 10^7 terms
* ``fits.tsv``        (n, alpha_hat) points for ``phonodist regress``
* ``manifest.json``   what each workload runs, in round order

Structural quantities (word lengths, the token-count multiset, phoneme
weights) are laid out by quantile rather than drawn, so only the
arrangement varies with the seed and the cost of an input barely moves
between seeds.  Every phoneme's word set holds at least two singleton
words: at f1 = 1 the program drops the CWJ unseen-species term (a known
fault, shown on every run by the cli-batch toy lexicon), which only some
seeds would otherwise hit.

Usage: python3 perfbench/gen.py --seed 1 --out perfbench/.work/inputs
"""

from __future__ import annotations

import argparse
import json
import math
import random
from pathlib import Path

N_PHONEMES = 40
PHONEMES = tuple(f"p{i:02d}" for i in range(N_PHONEMES))
LANGUAGES_TOTAL = 2000

# Each round is mostly one typical input size, so the median operation
# rests on dozens of samples; a few larger inputs sweep the scale.
#
# rank-curve: inventory sizes of one round.  The seed jitters the sizes
# up to RANK_JITTER_MAX by 2 %; the larger ones are fixed, because the
# quadrature overflow is not monotone in n (n = 1492 overflows, 1500
# does not).  1800 is past the overflow on every run.
RANK_SIZES = (11, 20, 100, 160, 400, 1500) + (30,) * 24
RANK_JITTER_MAX = 160
RANK_OVERFLOW_N = 1800

# lexicon-zipf: words per lexicon in one round
ZIPF_SIZES = (300,) * 16 + (1000, 3000)
# lexicon-sparse: (words, phonemes) per small lexicon in one round
SPARSE_SHAPES = ((80, 14),) * 24
# capped lexicon: the heavy phoneme has CAPPED_F1 singleton words and
# three one-phoneme words carrying CAPPED_HEAVY tokens each
CAPPED_F1 = 200
CAPPED_HEAVY = (60000, 50000, 40000)

BUNDLED = "src/phonodist/data"
BUNDLED_TABLES = ("amenglish", "bengali", "kaiwa", "samoan", "swedish")


def _spread(n: int, weights: list[float]) -> list[int]:
    """Split n items over categories in proportion to weights, exactly."""
    total = sum(weights)
    raw = [n * w / total for w in weights]
    out = [math.floor(x) for x in raw]
    by_remainder = sorted(range(len(raw)), key=lambda i: (out[i] - raw[i], i))
    for i in by_remainder[: n - sum(out)]:
        out[i] += 1
    return out


def _word_lengths(rng: random.Random, n_words: int, short: bool) -> list[int]:
    lengths = range(2, 8) if short else range(2, 11)
    weights = [1.0 / (1.0 + abs(k - (3.5 if short else 5.0))) for k in lengths]
    out = [k for k, m in zip(lengths, _spread(n_words, weights)) for _ in range(m)]
    rng.shuffle(out)
    return out


def _draw_words(rng, n_words, phonemes, weights, short):
    """Distinct words over ``phonemes`` with the laid-out length multiset."""
    seen: set[tuple[str, ...]] = set()
    words = []
    for length in _word_lengths(rng, n_words, short):
        while True:
            word = tuple(rng.choices(phonemes, weights, k=length))
            if word not in seen:
                seen.add(word)
                words.append(word)
                break
    return words


def _phoneme_weights(rng: random.Random, phonemes: list[str]) -> list[float]:
    """Zipf-like phoneme weights, assigned to labels in seeded order."""
    order = list(phonemes)
    rng.shuffle(order)
    rank = {p: k for k, p in enumerate(order)}
    return [1.0 / (rank[p] + 3.0) for p in phonemes]


def _zipf_counts(n_words: int) -> list[int]:
    """Token counts by quantile: 30 % ones, 30 % twos, a power-law tail."""
    ones = round(0.3 * n_words)
    twos = round(0.3 * n_words)
    rest = n_words - ones - twos
    # tail quantiles of a discrete Pareto on {3, 4, ...} with index 1.3,
    # capped so the head stays in the hundreds
    tail = [min(400, math.floor(3.0 * ((i + 0.5) / rest) ** (-1.0 / 1.3))) for i in range(rest)]
    return [1] * ones + [2] * twos + tail


def _sparse_counts(n_words: int) -> list[int]:
    """Token counts by quantile: 70 % ones, no twos, a tail from 3 up."""
    ones = round(0.7 * n_words)
    rest = n_words - ones
    tail = [3 + (7 * i) // max(rest - 1, 1) for i in range(rest)]
    return [1] * ones + tail


def _word_sets(entries):
    sets: dict[str, list[int]] = {}
    for word, count in entries:
        for p in set(word):
            sets.setdefault(p, []).append(count)
    return sets


def _acceptable(entries, max_f2: int | None) -> bool:
    """Every phoneme has >= 2 singleton words (and at most max_f2 doubletons)."""
    for counts in _word_sets(entries).values():
        if counts.count(1) < 2:
            return False
        if max_f2 is not None and counts.count(2) > max_f2:
            return False
    return True


def zipf_lexicon(seed: int, index: int, n_words: int):
    for attempt in range(1000):
        rng = random.Random(f"zipf-{seed}-{index}-{attempt}")
        phonemes = list(PHONEMES)
        words = _draw_words(rng, n_words, phonemes, _phoneme_weights(rng, phonemes), short=False)
        counts = _zipf_counts(n_words)
        rng.shuffle(counts)
        entries = list(zip(words, counts))
        if len(_word_sets(entries)) == N_PHONEMES and _acceptable(entries, None):
            return entries
    raise RuntimeError(f"no acceptable zipf lexicon for seed {seed}, index {index}")


def sparse_lexicon(seed: int, index: int, n_words: int, n_phonemes: int):
    for attempt in range(1000):
        rng = random.Random(f"sparse-{seed}-{index}-{attempt}")
        phonemes = sorted(rng.sample(PHONEMES, n_phonemes))
        weights = [1.0 / (k + 4.0) for k in range(n_phonemes)]
        rng.shuffle(weights)
        words = _draw_words(rng, n_words, phonemes, weights, short=True)
        counts = _sparse_counts(n_words)
        rng.shuffle(counts)
        entries = list(zip(words, counts))
        if len(_word_sets(entries)) == n_phonemes and _acceptable(entries, 0):
            return entries
    raise RuntimeError(f"no acceptable sparse lexicon for seed {seed}, index {index}")


def capped_lexicon():
    """Seed-independent lexicon whose heavy phoneme p00 has f1=200, f2=0, N~1.5e5.

    p00 alone spells three very frequent words; it also occurs in 200
    singleton words over nine other phonemes, which carry a few
    count-3..5 words of their own.  The CWJ coverage estimate for p00 is
    then ~7e-8 and its tail series needs ~5e8 terms.
    """
    rng = random.Random("capped")
    others = list(PHONEMES[1:10])
    entries = [(("p00",) * (k + 1), heavy) for k, heavy in enumerate(CAPPED_HEAVY)]
    seen = {w for w, _ in entries}
    while len(entries) < 3 + CAPPED_F1:
        length = rng.randint(2, 5)
        word = list(rng.choices(others, k=length - 1))
        word.insert(rng.randrange(length), "p00")
        word = tuple(word)
        if word not in seen:
            seen.add(word)
            entries.append((word, 1))
    while len(entries) < 3 + CAPPED_F1 + 40:
        word = tuple(rng.choices(others, k=rng.randint(2, 5)))
        if word not in seen:
            seen.add(word)
            entries.append((word, 3 + len(entries) % 3))
    return entries


def incidence_rows(seed: int):
    rng = random.Random(f"incidence-{seed}")
    return [(p, rng.randint(40, LANGUAGES_TOTAL - 40), LANGUAGES_TOTAL) for p in PHONEMES]


def fit_points(seed: int):
    rng = random.Random(f"fits-{seed}")
    ns = sorted(rng.sample(range(10, 200), 10))
    return [(n, 19.47 * n ** -0.95 * math.exp(rng.gauss(0.0, 0.15))) for n in ns]


def rank_sizes(seed: int) -> list[int]:
    """One round's inventory sizes in seeded order, the fault size included."""
    rng = random.Random(f"rank-{seed}")
    sizes = [max(11, round(n * (1.0 + rng.uniform(-0.02, 0.02)))) if n <= RANK_JITTER_MAX else n
             for n in RANK_SIZES]
    sizes.append(RANK_OVERFLOW_N)
    rng.shuffle(sizes)
    return sizes


def _write_lexicon(path: Path, entries) -> None:
    lines = [f"{count}\t{' '.join(word)}" for word, count in entries]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _cli_ops(seed: int, out: Path) -> list[dict]:
    """One round of CLI calls covering all eight subcommands.

    Paths are relative to the checkout root.  Calls marked ``output``
    write with -o into the work directory; the rest print to stdout.
    """
    rng = random.Random(f"cli-{seed}")
    tables = [f"{BUNDLED}/{name}.tsv" for name in BUNDLED_TABLES]
    # fixed, not seeded: this call carries the f1 = 1 CWJ fault every run
    toy = "toy_a"
    work = out.as_posix()
    feats = f"{work}/cli_features.tsv"
    ops = [
        {"argv": ["predict-alpha", "--n", str(rng.randint(11, 160))]},
        {"argv": ["reconstruct", "--n", str(rng.randint(11, 30))],
         "output": f"{work}/cli_reconstruct.tsv"},
        {"argv": ["fit-alpha", rng.choice(tables)]},
        {"argv": ["estimate-entropy", rng.choice(tables)],
         "output": f"{work}/cli_entropy.json"},
        {"argv": ["features", f"{BUNDLED}/{toy}.lex", f"{BUNDLED}/toy_incidence.tsv"],
         "output": feats},
        {"argv": ["maxent", feats]},
        {"argv": ["regress", f"{work}/fits.tsv"]},
        {"argv": ["report", *rng.sample(tables, len(tables))],
         "output": f"{work}/cli_report.json"},
    ]
    for op in ops:
        if "output" in op:
            op["argv"] = op["argv"] + ["-o", op["output"]]
    return ops


def generate(seed: int, out: Path) -> dict:
    """Write every input for ``seed`` under ``out`` and return the manifest."""
    out.mkdir(parents=True, exist_ok=True)
    rows = ["phoneme\tlanguages_with\tlanguages_total"]
    rows += [f"{p}\t{w}\t{t}" for p, w, t in incidence_rows(seed)]
    (out / "incidence.tsv").write_text("\n".join(rows) + "\n", encoding="utf-8")

    zipf = []
    for i, n_words in enumerate(ZIPF_SIZES):
        path = out / f"zipf_{i}_{n_words}.lex"
        _write_lexicon(path, zipf_lexicon(seed, i, n_words))
        zipf.append(path.as_posix())
    sparse = []
    for i, (n_words, n_phonemes) in enumerate(SPARSE_SHAPES):
        path = out / f"sparse_{i}_{n_words}.lex"
        _write_lexicon(path, sparse_lexicon(seed, i, n_words, n_phonemes))
        sparse.append(path.as_posix())
    capped = out / "capped.lex"
    _write_lexicon(capped, capped_lexicon())
    sparse_round = list(sparse)
    random.Random(f"sparse-order-{seed}").shuffle(sparse_round)
    sparse_round.insert(len(sparse_round) // 2, capped.as_posix())

    fits = ["n\talpha_hat"] + [f"{n}\t{a!r}" for n, a in fit_points(seed)]
    (out / "fits.tsv").write_text("\n".join(fits) + "\n", encoding="utf-8")

    rng = random.Random(f"unit-alpha-{seed}")
    manifest = {
        "seed": seed,
        "work": out.as_posix(),
        "incidence": (out / "incidence.tsv").as_posix(),
        "rank-curve": {
            "sizes": rank_sizes(seed),
            "overflow_n": RANK_OVERFLOW_N,
            "unit_alpha_n": rng.randint(20, 24),
        },
        "lexicon-zipf": {"lexicons": zipf},
        "lexicon-sparse": {"lexicons": sparse_round, "capped": capped.as_posix()},
        "cli-batch": {"ops": _cli_ops(seed, out)},
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=1) + "\n", encoding="utf-8")
    return manifest


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    generate(args.seed, Path(args.out))


if __name__ == "__main__":
    main()
