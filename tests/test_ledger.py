"""Golden check of the committed value ledger's discrete outcomes.

ledger.py's Ledger.chiral runs a seeded slice of the ledger's corpus (the
selftest draws for d in {1, 3, 5}, with and without cohomology, seeds 0-1,
and every scaled complex), and for the paths below each outcome must match
LEDGER.json in what does not depend on the BLAS build: value or raise, the
exception's class, the split dimensions and the CLI's exit code, Betti
numbers and split dimensions.  No float digit is compared; bit-identity
stays a claim that `python tests/ledger.py --diff` makes on one machine.
"""

import json
import pathlib
import warnings

import numpy as np
import pytest

from detline import gen_random
from detline.selftest import _instance
from ledger import ROOT, Ledger, _scaled

PATHS = ("graded_det_finite", "plus_minus_split", "spectral_split",
         "torsion_via_split", "cli torsion", "cli split")
# paths whose values are split dimensions, integers
DIMENSIONS = ("plus_minus_split", "spectral_split")


def _discrete(path: str, outcome: str) -> tuple:
    """The discrete part of a ledger outcome."""
    if outcome.startswith("raise "):
        return "raise", outcome[6:].split(":", 1)[0]
    if outcome.startswith("value "):
        return ("value", outcome[6:]) if path in DIMENSIONS else ("value",)
    head, _, stdout = outcome.partition("\nstdout ")
    if head != "exit 0":
        return (head,)
    out = json.loads(stdout)
    if path == "cli split":
        return head, out["d_small"], out["d_large"]
    return head, out["betti"], out["graded_det"] is None


@pytest.fixture(scope="module")
def outcomes(tmp_path_factory):
    led = Ledger(tmp_path_factory.mktemp("ledger"))
    # as in ledger.run, so that an overflow is an outcome, not a warning
    with warnings.catch_warnings(), np.errstate(all="ignore"):
        warnings.simplefilter("ignore")
        for d in (1, 3, 5):
            for kind in ("acyclic", "cohomology"):
                for seed in range(2):
                    led.chiral(f"instance d={d} {kind} seed={seed}",
                               *_instance(seed, d, kind == "acyclic"))
        for t in (1e-4, 1e-6, 1e-8):
            for seed in range(6):
                c, g = gen_random(seed, 3)
                led.chiral(f"scaled t={t:g} seed={seed}", _scaled(c, t), g)
    return led.outcomes


@pytest.mark.parametrize("path", PATHS)
def test_discrete_outcomes_match_the_ledger(outcomes, path):
    golden = json.loads(pathlib.Path(ROOT, "LEDGER.json").read_text(
        encoding="utf-8"))["outcomes"][path]
    cases = outcomes[path]
    # 30 cases; a split path has one per level: three each for the 12
    # draws, one for the 18 scaled complexes, whose levels raise
    assert len(cases) == (54 if path in ("spectral_split", "torsion_via_split",
                                         "cli split") else 30)
    for case, outcome in cases.items():
        assert _discrete(path, outcome) == _discrete(path, golden[case]), case
