"""Golden check of the committed value ledger.

ledger.py's Ledger runs a seeded slice of the ledger's corpus: the selftest
draws for d in {1, 3, 5}, with and without cohomology, seeds 0-1, every
scaled complex, the whole circle corpus and every pair draw.  For every
path that LEDGER.json records, each outcome must match it in what does not
depend on the BLAS build: value or raise, the exception's class, the CLI's
exit code, Betti numbers, split dimensions and eta.  The values of the
paths in BOUNDS must also lie within a relative bound of the recorded hex
value.  Bit-identity stays a claim that `python tests/ledger.py --diff`
makes on one machine.
"""

import json
import warnings

import numpy as np
import pytest

from detline import cohomology_frame, gen_random
from detline.selftest import _instance, _pairs
from ledger import (PAIRS, ROOT, Ledger, _rel_change, _scaled, _values,
                    circle_corpus)

GOLDEN = json.loads((ROOT / "LEDGER.json").read_text(
    encoding="utf-8"))["outcomes"]
# paths whose values are discrete: Betti numbers, split dimensions, eta
EXACT = ("cohomology_frame.betti", "plus_minus_split", "spectral_split",
         "eta_finite")
SPLIT_PATHS = ("spectral_split", "torsion_via_split", "graded_det_via_xi_eta",
               "cli split")
# Relative bound per path: 100 times the worst drift measured on this slice
# across OpenBLAS kernels (the default, Haswell, Nehalem, Prescott) and
# thread counts (1, 2), rounded up to a power of ten, at least 1e-12 and at
# most 1e-9.  The drifts were 1.5e-14 (refined_torsion), 6.9e-15, 7.1e-15,
# 3.6e-15 (fused_in_sum_frame) and 0 (rho_an_circle: no BLAS call).  Where
# the complex has cohomology, the value is a coefficient against harmonic
# bases that the SVD fixes only up to a unitary, so there it is the
# modulus that is bounded.
BOUNDS = {"refined_torsion": 1e-11, "graded_det_finite": 1e-12,
          "torsion_via_split": 1e-12, "rho_an_circle": 1e-12,
          "fused_in_sum_frame": 1e-12}


def _discrete(path: str, outcome: str) -> tuple:
    """The discrete part of a ledger outcome."""
    if outcome.startswith("raise "):
        return "raise", outcome[6:].split(":", 1)[0]
    if outcome.startswith("value "):
        return ("value", outcome[6:]) if path in EXACT else ("value",)
    head, _, stdout = outcome.partition("\nstdout ")
    if head != "exit 0":
        return (head,)
    out = json.loads(stdout)
    if path == "cli split":
        return head, out["d_small"], out["d_large"]
    if path == "cli torsion":
        return head, out["betti"], out["graded_det"] is None
    return (head,)  # cli circle: every number it prints is a value


def _drift(golden: str, outcome: str, acyclic: bool) -> float:
    """Relative change of a value outcome from the golden one: of the value
    on an acyclic complex, of its modulus otherwise."""
    if acyclic:
        return _rel_change(golden, outcome)
    old, new = abs(_values(golden)[0]), abs(_values(outcome)[0])
    return abs(new - old) / old


@pytest.fixture(scope="module")
def run(tmp_path_factory):
    """The slice's outcomes, and for each case whether its complex (for a
    pair, the direct sum) is acyclic."""
    led, acyclic = Ledger(tmp_path_factory.mktemp("ledger")), {}

    def chiral(case, c, g):
        led.chiral(case, c, g)
        acyclic[case] = cohomology_frame(c).acyclic

    # as in ledger.run, so that an overflow is an outcome, not a warning
    with warnings.catch_warnings(), np.errstate(all="ignore"):
        warnings.simplefilter("ignore")
        for d in (1, 3, 5):
            for kind in ("acyclic", "cohomology"):
                for seed in range(2):
                    chiral(f"instance d={d} {kind} seed={seed}",
                           *_instance(seed, d, kind == "acyclic"))
        for t in (1e-4, 1e-6, 1e-8):
            for seed in range(6):
                c, g = gen_random(seed, 3)
                chiral(f"scaled t={t:g} seed={seed}", _scaled(c, t), g)
        for a in circle_corpus():
            led.circle(a)
            acyclic[f"a={a!r}"] = True  # 0 < Re a < 1
        for i, (a, b) in enumerate(_pairs(*PAIRS)):
            led.fusion(f"pair {i}", a, b)
            acyclic[f"pair {i}"] = (cohomology_frame(a[0]).acyclic
                                    and cohomology_frame(b[0]).acyclic)
    return led.outcomes, acyclic


def test_every_ledger_path_is_run(run):
    assert set(run[0]) == set(GOLDEN)


@pytest.mark.parametrize("path", sorted(GOLDEN))
def test_discrete_outcomes_match_the_ledger(run, path):
    golden, cases = GOLDEN[path], run[0][path]
    if any(case.startswith("instance") for case in golden):
        # 30 chiral cases; a split path has one per level: three each for
        # the 12 draws, one for the 18 scaled complexes, whose level
        # choice raises
        assert len(cases) == (54 if path in SPLIT_PATHS else 30)
    else:  # the circle corpus, the pairs, and _lambda_choices' 18 raises
        assert set(cases) == set(golden)
    for case, outcome in cases.items():
        assert _discrete(path, outcome) == _discrete(path, golden[case]), case


@pytest.mark.parametrize("path", sorted(BOUNDS))
def test_values_hold_within_their_bound(run, path):
    outcomes, acyclic = run
    golden = GOLDEN[path]
    values = {case: outcome for case, outcome in outcomes[path].items()
              if outcome.startswith("value ")
              and golden[case].startswith("value ")}
    assert values
    for case, outcome in values.items():
        drift = _drift(golden[case], outcome, acyclic[case.split(" lam")[0]])
        assert drift <= BOUNDS[path], (case, drift)
