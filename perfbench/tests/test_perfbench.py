"""Fast tests of the benchmark itself: generator, checks and kept faults.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import contextlib
import io as stdio
import json
import sys
import time
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]

import gen  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
from phonodist import cli, corpus, dirichlet, entropy, io, maxent  # noqa: E402

DATA = ROOT / "src" / "phonodist" / "data"
TOY_INCIDENCE = str(DATA / "toy_incidence.tsv")


@pytest.fixture(autouse=True)
def _at_root(monkeypatch):
    monkeypatch.chdir(ROOT)


def _files(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir()) if p.name != "manifest.json"}


def test_generator_is_deterministic(tmp_path):
    first = gen.generate(7, tmp_path / "a")
    second = gen.generate(7, tmp_path / "b")
    other = gen.generate(8, tmp_path / "c")
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    assert first["rank-curve"] == second["rank-curve"]
    assert _files(tmp_path / "a") != _files(tmp_path / "c")
    assert first["rank-curve"]["sizes"] != other["rank-curve"]["sizes"]
    # seed-independent inputs
    assert (tmp_path / "a" / "capped.lex").read_bytes() == (tmp_path / "c" / "capped.lex").read_bytes()
    assert first["rank-curve"]["overflow_n"] == other["rank-curve"]["overflow_n"] == 1800


def test_generated_lexicons_have_the_stated_make_up(tmp_path):
    manifest = gen.generate(3, tmp_path)
    for path in manifest["lexicon-zipf"]["lexicons"]:
        sets = gen._word_sets(oracle.read_lexicon(path))
        assert len(sets) == gen.N_PHONEMES
        assert all(c.count(1) >= 2 for c in sets.values())
    for path in manifest["lexicon-sparse"]["lexicons"]:
        sets = gen._word_sets(oracle.read_lexicon(path))
        assert all(c.count(1) >= 2 for c in sets.values())
        if path != manifest["lexicon-sparse"]["capped"]:
            assert all(c.count(2) == 0 for c in sets.values())
    heavy = gen._word_sets(gen.capped_lexicon())["p00"]
    assert heavy.count(1) == gen.CAPPED_F1 and heavy.count(2) == 0 and sum(heavy) > 150_000


# ------------------------------------------------------------ rank curves

def _curve(n, law=dirichlet.AlphaScalingLaw()):
    s = dirichlet.reconstruct_from_inventory(n, law)
    return [n, s.alpha, list(s.mean), list(s.sd), list(s.ci_low), list(s.ci_high)]


def test_rank_curve_checks_pass_and_reject_perturbations():
    curve = _curve(23)
    assert oracle.check_rank_curve(*curve) == []
    unit = _curve(20, dirichlet.AlphaScalingLaw(1.0, 0.0))
    assert oracle.check_rank_curve(*unit, unit_alpha=True) == []

    def perturbed(column, index, value):
        bad = [list(x) if isinstance(x, list) else x for x in curve]
        bad[column][index] = value
        return bad

    assert any("sum of means" in p for p in oracle.check_rank_curve(*perturbed(2, 0, curve[2][0] + 1e-6)))
    assert any("sum(sd^2" in p for p in oracle.check_rank_curve(*perturbed(3, 4, curve[3][4] * 1.01)))
    swapped = perturbed(2, 5, curve[2][6])
    swapped[2][6] = curve[2][5]
    assert any("mean rises" in p for p in oracle.check_rank_curve(*swapped))
    assert any("band" in p for p in oracle.check_rank_curve(*perturbed(4, 2, curve[5][2])))
    # means of another curve keep sum 1 but miss the harmonic closed form
    shifted = list(unit)
    shifted[2] = list(np.array(unit[2]) * 0.999 + 0.001 / 20)
    assert any("harmonic" in p for p in oracle.check_rank_curve(*shifted, unit_alpha=True))


def test_overflow_fault_fails_as_described():
    with pytest.raises(OverflowError):
        dirichlet.reconstruct_from_inventory(1800)
    manifest = {"rank-curve": {"overflow_n": 1800}}
    error = {"key": "n=1800", "error": "OverflowError: math range error"}
    assert run.check_rank_curve(manifest, error) == (True, True)
    assert run.check_rank_curve(manifest, {**error, "key": "n=400"}) == (True, False)


# -------------------------------------------------------------- lexicons

def _pipeline(lexicon_path, incidence_path):
    table = corpus.build_feature_table(io.load_lexicon(lexicon_path), io.load_incidence(incidence_path))
    targets = corpus.constraint_expectations(table).as_array()
    sol = maxent.solve(maxent.MaxEntProblem(table.phonemes, table.feature_matrix(), targets))
    return {"phonemes": list(table.phonemes), "observed_prob": list(table.observed_prob),
            "cost": list(table.cost), "seg_info": list(table.seg_info),
            "lex_div": list(table.lex_div), "targets": list(targets), "probs": list(sol.probs),
            "lambda0": sol.lambda0, "lambdas": list(sol.lambdas), "residuals": list(sol.residuals)}


@pytest.fixture(scope="module")
def sparse_case(tmp_path_factory):
    work = tmp_path_factory.mktemp("inputs")
    manifest = gen.generate(5, work)
    path = next(p for p in manifest["lexicon-sparse"]["lexicons"] if "capped" not in p)
    ref = oracle.lexicon_reference(oracle.read_lexicon(path), oracle.read_incidence(manifest["incidence"]))
    return ref, _pipeline(path, manifest["incidence"])


def test_lexicon_checks_pass(sparse_case):
    ref, out = sparse_case
    assert oracle.check_lexicon_op(ref, out) == ([], [])


@pytest.mark.parametrize("field,index,factor", [
    ("observed_prob", 0, 1 + 1e-7), ("cost", 1, 1 + 1e-7), ("seg_info", 2, 1 + 1e-7),
    ("targets", 0, 1 + 1e-7), ("probs", 3, 1 + 1e-6), ("lambdas", 1, 1 + 1e-6),
])
def test_lexicon_checks_reject_perturbations(sparse_case, field, index, factor):
    ref, out = sparse_case
    bad = {k: (list(v) if isinstance(v, list) else v) for k, v in out.items()}
    bad[field][index] *= factor
    problems, lex_off = oracle.check_lexicon_op(ref, bad)
    assert problems and not lex_off


def test_lex_div_perturbation_is_not_a_known_fault(sparse_case):
    ref, out = sparse_case
    bad = dict(out, lex_div=list(out["lex_div"]))
    bad["lex_div"][0] += 1e-6
    bad["targets"] = oracle_targets(bad)
    problems, lex_off = oracle.check_lexicon_op(ref, bad)
    assert lex_off == [bad["phonemes"][0]]
    assert oracle.lex_div_fault(ref, bad["phonemes"], bad["lex_div"], lex_off) is None


def oracle_targets(out):
    return [float(np.dot(out["observed_prob"], out[k])) for k in ("cost", "seg_info", "lex_div")]


def test_cwj_oracle_matches_the_finite_closed_form():
    # CWJ (2013): (f1/N)(1-A)^(1-N)(-ln A - sum_{r=1}^{N-1} (1-A)^r / r), at 60 digits
    import mpmath
    counts = [1, 1, 1, 2, 3, 5, 8]
    n_tok, f1, f2 = sum(counts), 3, 1
    with mpmath.workdps(60):
        a = mpmath.mpf(2 * f2) / ((n_tok - 1) * f1 + 2 * f2)
        unseen = mpmath.mpf(f1) / n_tok * (1 - a) ** (1 - n_tok) * (
            -mpmath.log(a) - mpmath.fsum((1 - a) ** k / k for k in range(1, n_tok)))
        observed = mpmath.fsum(mpmath.fsum(mpmath.mpf(1) / k for k in range(x, n_tok)) * x / n_tok
                               for x in counts)
        reference = float(observed + unseen)
    assert oracle.cwj(counts) == pytest.approx(reference, rel=1e-13)
    assert entropy.cwj_estimate(np.array(counts)) == pytest.approx(reference, rel=1e-12)


def test_capped_tail_fault_fails_as_described():
    heavy = gen._word_sets(gen.capped_lexicon())["p00"]
    got = entropy.cwj_estimate(np.array(heavy))
    full = oracle.cwj(heavy)
    assert 3e-4 < full - got < 1e-3  # silently low, by ~5e-4 nats
    assert got == pytest.approx(oracle.capped_lex_div(heavy), rel=1e-9)


# ------------------------------------------------------------------- CLI

def _cli(argv):
    buf = stdio.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main(argv) == 0
    return buf.getvalue()


def _check(argv, tmp_path, output=False):
    call = {"argv": list(argv)}
    if output:
        call["output"] = str(tmp_path / "out.txt")
        call["argv"] += ["-o", call["output"]]
    stdout = _cli(call["argv"])
    text = Path(call["output"]).read_text(encoding="utf-8") if output else None
    return call, stdout, text


TABLES = [str(DATA / f"{name}.tsv") for name in gen.BUNDLED_TABLES]


def _fits(tmp_path):
    path = tmp_path / "fits.tsv"
    path.write_text("n\talpha_hat\n" + "".join(f"{n}\t{a!r}\n" for n, a in gen.fit_points(4)))
    return str(path)


def test_cli_checks_pass_on_bundled_fixtures(tmp_path):
    calls = [
        (["predict-alpha", "--n", "57"], False),
        (["reconstruct", "--n", "17"], True),
        (["estimate-entropy", TABLES[1]], True),
        (["regress", _fits(tmp_path)], False),
        (["report", *TABLES], True),
    ] + [(["fit-alpha", t], False) for t in TABLES]
    for argv, output in calls:
        call, stdout, text = _check(argv, tmp_path, output)
        assert oracle.check_cli_call(call, stdout, text) == ([], None), argv


def test_cli_maxent_check_passes(tmp_path):
    feats = tmp_path / "feats.tsv"
    _cli(["features", str(DATA / "toy_b.lex"), TOY_INCIDENCE, "-o", str(feats)])
    call, stdout, _ = _check(["maxent", str(feats)], tmp_path)
    assert oracle.check_cli_call(call, stdout, None) == ([], None)
    payload = json.loads(stdout)
    first = sorted(payload["probs"])[0]
    payload["probs"][first] *= 1.001
    assert oracle.check_cli_call(call, json.dumps(payload), None)[0]


@pytest.mark.parametrize("argv,key,path", [
    (["predict-alpha", "--n", "57"], "alpha_predicted", ()),
    (["fit-alpha", TABLES[2]], "alpha_hat", ()),
    (["fit-alpha", TABLES[2]], "H_cwj", ()),
    (["regress", None], "slope", ("fit",)),
    (["regress", None], "se_b", ("law",)),
    (["report", *TABLES], "coeff_a", ("law",)),
])
def test_cli_checks_reject_perturbations(tmp_path, argv, key, path):
    argv = [a if a is not None else _fits(tmp_path) for a in argv]
    call, stdout, _ = _check(argv, tmp_path)
    payload = json.loads(stdout)
    node = payload
    for step in path:
        node = node[step]
    node[key] *= 1 + 1e-7
    assert oracle.check_cli_call(call, json.dumps(payload), None)[0]


def test_cli_repeat_must_be_byte_identical():
    manifest = {"cli-batch": {"ops": [{"argv": ["predict-alpha", "--n", "40"]}]}}
    text = _cli(["predict-alpha", "--n", "40"])
    record = {"index": 0, "error": None,
              "output": {"returncode": 0, "stdout": text, "output": None}}
    checker = run.CliChecker()
    assert checker(manifest, record) == (False, False)
    assert checker(manifest, record) == (False, False)
    changed = {**record, "output": {**record["output"], "stdout": text.replace("\n", " \n", 1)}}
    assert checker(manifest, changed) == (True, False)


def test_f1_one_fault_on_the_toy_lexicon_fails_as_described(tmp_path):
    argv = ["features", f"{gen.BUNDLED}/toy_a.lex", f"{gen.BUNDLED}/toy_incidence.tsv"]
    call, _, text = _check(argv, tmp_path, output=True)
    problems, fault = oracle.check_cli_call(call, "", text)
    assert fault == "f1=1" and len(problems) == 1
    manifest = {"cli-batch": {"ops": [call]}}
    record = {"index": 0, "error": None,
              "output": {"returncode": 0, "stdout": "", "output": text}}
    assert run.CliChecker()(manifest, record) == (True, True)


def test_reference_seconds_follow_the_kernel():
    records = [{"calib": 0.001, "probes": []},
               {"calib": 0.001, "probes": [0.002, 0.002, 0.004]},
               {"calib": 0.0005, "probes": []}]
    factors = speed.op_factors(records)
    assert factors[0] == pytest.approx(speed.REFERENCE_S / 0.001)  # this sample and the next
    assert factors[1] == pytest.approx(speed.REFERENCE_S / 0.002)  # median of its probes
    assert factors[2] == pytest.approx(speed.REFERENCE_S / 0.0005)


def test_probe_samples_during_a_call_and_accounts_for_its_time():
    with speed.Probe() as probe:
        end = time.perf_counter() + 4.5 * speed.PROBE_INTERVAL_S
        while time.perf_counter() < end:
            pass
    assert len(probe.samples) >= 3
    assert probe.spent >= sum(probe.samples)
    with speed.Probe(active=False) as idle:
        time.sleep(2 * speed.PROBE_INTERVAL_S)
    assert idle.samples == [] and idle.spent == 0.0


def test_benchmark_json_names_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
