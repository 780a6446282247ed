"""Tests of the benchmark itself: oracles, comparators, determinism and the
output contract.  Run from the root of the repository:

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import cmath
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import numpy as np  # noqa: E402

import detline as dl  # noqa: E402
import oracles as orc  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCH = json.load(_fh)


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join(cwd, "perfbench",
                                                        "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=170)


# ---------------------------------------------------------------------------
# oracles


@pytest.mark.parametrize("d", [1, 3, 5, 7])
def test_block_table_matches_gen_elementary(d):
    for j in range((d + 1) // 2):
        for z in (1.7 + 0.3j, -0.4 + 1.1j, 0.25 - 2j):
            c, g = dl.gen_elementary(d, j, z)
            rho = dl.refined_torsion(c, g).coeff
            sign, exp = orc.block_torsion(d, j)
            assert abs(rho - sign * z ** exp) <= 1e-12 * abs(rho)
            assert orc.log_close(rho, orc.log_block_product(d, [(j, z)]),
                                 "block") is None


@pytest.mark.parametrize("d", [1, 3, 5, 7])
def test_block_product_oracle_on_random_instances(d):
    rng = np.random.default_rng(d)
    for i in range(6):
        x = workloads.make_chiral(rng, f"t{i}", d, int(rng.integers(5, 60)))
        assert orc.log_close(dl.refined_torsion(x.c, x.g).coeff, x.log_rho,
                             "product") is None


def test_betti_oracle_matches_profile():
    rng = np.random.default_rng(5)
    for d in (1, 3, 5):
        x = workloads.make_chiral(rng, "h", d, 12, n_harmonic=2)
        assert dl.cohomology_frame(x.c).betti == x.betti
        assert sum(x.betti) == 4


def test_circle_closed_forms():
    for a in (0.25, 0.6 + 0.1j, 0.3 - 0.2j):
        m = dl.CircleModel(a)
        assert orc.rel_close(dl.rho_an_closed(m), orc.circle_rho(a), "rho",
                             1e-14) is None
        assert orc.rel_close(dl.rs_torsion_circle(m), orc.circle_rs(a), "rs",
                             1e-8) is None


# ---------------------------------------------------------------------------
# comparators fed wrong values


def test_comparators_reject_wrong_values():
    rho = 2.5 - 1.25j
    log = cmath.log(rho)
    assert orc.log_close(rho, log, "ok") is None
    for wrong in (-rho, rho.conjugate(), rho * (1 + 1e-6), 1 / rho, 0j,
                  complex("inf+nanj"), complex("nan+nanj")):
        assert orc.log_close(wrong, log, "wrong") is not None
    assert orc.rel_close(-rho, rho, "wrong", 1e-8) is not None
    assert orc.small(float("nan"), "nan", 1.0) is not None
    assert orc.small(1e-7, "big", 1e-8) is not None


def test_negated_coefficient_fails_the_op(monkeypatch):
    wl = workloads.WORKLOADS["chiral-small"]
    x = wl.setup(3, "unused")[0]
    tally = run.Tally()
    run.run_op(wl, x, tally)
    assert (tally.attempted, tally.failed) == (1, 0)

    real = dl.refined_torsion

    def negated(*args, **kwargs):
        out = real(*args, **kwargs)
        return type(out)(-out.coeff, out.frame)

    monkeypatch.setattr(dl, "refined_torsion", negated)
    run.run_op(wl, x, tally)
    assert (tally.attempted, tally.failed) == (2, 1)
    assert "refined_torsion" in tally.reasons[0]


def test_unexpected_exception_and_missing_error_fail_the_op(monkeypatch):
    wl = workloads.WORKLOADS["chiral-small"]
    items = wl.setup(4, "unused")
    with_cohomology = next(x for x in items if x.log_rho is None)
    tally = run.Tally()
    monkeypatch.setattr(dl, "graded_det_finite", lambda c, g: 1.0 + 0j)
    run.run_op(wl, with_cohomology, tally)
    assert tally.failed == 1 and "SpectralBoundaryError" in tally.reasons[0]

    def boom(*args):
        raise ValueError("boom")

    monkeypatch.setattr(dl, "cohomology_frame", boom)
    run.run_op(wl, items[0], tally)
    assert tally.failed == 2 and "unexpected ValueError" in tally.reasons[1]


def test_cli_request_checks_exit_code_and_strict_json():
    req = workloads.circle_request()
    good = json.dumps({"rho_an": [1.0, -1.0], "rs_torsion": 0.5 ** 0.5})
    assert req.judge(0, good) == [None, None]
    assert any(req.judge(1, good))
    assert any(req.judge(0, good.replace("-1.0", "NaN")))
    assert any(req.judge(0, "Traceback (most recent call last):"))


def test_known_defects_fail_at_this_commit(tmp_path):
    names = []
    for wl in workloads.WORKLOADS.values():
        for d in run.run_defects(wl, 1, str(tmp_path)):
            names.append(d["name"])
            assert d["failed"], d
    assert names == ["cli-nan-document", "overflow-d1-200xz50",
                     "circle-cut-n2000", "circle-split-past-ray"]


# ---------------------------------------------------------------------------
# determinism and the output contract


def test_inputs_follow_the_seed():
    def snapshot(seed):
        out = []
        for name in ("chiral-large", "circle-grid"):
            for item in workloads.WORKLOADS[name].setup(seed, "unused"):
                x = item[0] if isinstance(item, tuple) else item
                out.append(repr(x.profile) if hasattr(x, "profile") else
                           repr(x.a))
        return out

    assert snapshot(7) == snapshot(7)
    assert snapshot(7) != snapshot(8)


def test_tail_percentile_keeps_ten_samples_beyond():
    for n in (12, 30, 50, 300):
        q = run.tail_percentile(n)
        assert n * run.MIN_PASSES * (1 - q / 100) >= run.TAIL_BEYOND - 1e-9
    assert run.percentile([1, 2, 3, 4], 50) == 2.5


def _last_json(proc):
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


def test_tiny_run_emits_every_end_to_end_metric():
    proc = _run("--workload", "circle-grid", "--seed", "1", "--seconds", "0",
                "--trace", "0")
    result = _last_json(proc)
    assert result["correct"] and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(v["value"] > 0 for v in result["metrics"].values())
    for name, unit in want.items():
        assert any(name in line and f" {unit} " in line
                   for line in proc.stdout.splitlines()[:-1])


def test_traced_runs_emit_every_layer_metric_and_repeat_counts():
    runs = [_last_json(_run("--workload", "chiral-small", "--seed", "2",
                            "--seconds", "0", "--trace", "1"))
            for _ in range(2)]
    want = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    for result in runs:
        assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    counts = [name for name in want if name.startswith("lapack.")
              and (name.endswith(".calls") or name == "lapack.flops_computed")]
    assert len(counts) == 6
    for name in counts:
        assert runs[0]["metrics"][name] == runs[1]["metrics"][name]
        assert runs[0]["metrics"][name]["value"] > 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "chiral-small", "--seed", "1", "--seconds",
                "1", "--trace", "0", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_selftest_checks_match_the_registry():
    import detline.selftest
    assert [name for name, _ in detline.selftest.CHECKS] == list(
        run.SELFTEST_CHECKS)


def test_benchmark_json_matches_the_runner():
    assert [w["name"] for w in BENCH["workloads"]] == list(run.WORKLOADS)
    assert list(workloads.WORKLOADS) == list(run.WORKLOADS)
    layer = [f"{span}.{kind}" for span, kinds in run.LAYER_SPANS
             for kind in kinds]
    layer += ["lapack.flops_computed", "workbench.serialize_document.bytes",
              "workbench.deserialize_document.bytes", "cli.import_s"]
    assert sorted(m["name"] for m in BENCH["per_layer"]) == sorted(layer)
