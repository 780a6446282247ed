"""Value ledger: every public path and the CLI over one fixed, seeded corpus.

    python tests/ledger.py                   # writes LEDGER.json at the root
    python tests/ledger.py --out FILE        # writes FILE instead
    python tests/ledger.py --diff OLD        # compares OLD with LEDGER.json

Each case records one outcome: a value as hex floats ("value ..."; a complex
as re,im, the items of a tuple joined by ";"), a raise as "raise" plus the
exception's class and message, or a CLI run as its exit code and stdout,
and its stderr unless it exits 0.  The ledger holds every outcome, a
SHA-256 digest of each path's outcomes and one of the whole.  --diff
prints, per path, how many outcomes are bit-identical, the worst relative
change of a value, and every changed outcome; it runs nothing.

Bit-identity is a claim about one machine: another BLAS build may round
differently.  The script imports detline from the src/ beside it, so a copy
of it run in another checkout records that checkout.  It is not a test
module (pytest collects only test_*.py) and nothing in src/ imports it.

The corpus, all seeded:
- the selftest's profile draws (_instance) for d in {1, 3, 5, 7, 9}, with
  and without cohomology, seeds 0-5, at the _lambda_choices levels;
- the conjugated draws of test_laws at kappa in {1e2, 3e2}, d in {3, 5, 7},
  seeds 0-4;
- gen_random(seed, 3), seeds 0-5, with every differential scaled by t in
  {1e-4, 1e-6, 1e-8} (the scale law's inputs);
- d = 1 documents past the float range: 200 blocks of z = 50, 500 blocks of
  z_j = (1.3 + 0.4i)(1 + 0.01 j), and n blocks of z = 0.02 for n in {180,
  181, 182, 188, 189, 200};
- the circle: the selftest's grid, and a at Re a = 0.3 with Im a in {-115,
  -113, 113, 225, 225.489, 225.49, 226, 237.1, 237.2, 300}, plus
  a = 5e-324;
- the selftest's pair draws (_pairs at its default 40 cases and seed
  12345): the refined torsions of the two summands fused into the
  frame of their direct sum.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import pathlib
import sys
import tempfile
import warnings

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(1, str(ROOT / "tests"))

import numpy as np  # noqa: E402

import detline as dl  # noqa: E402
from detline.cli import main  # noqa: E402
from detline.selftest import (_circle_grid, _instance,  # noqa: E402
                              _lambda_choices, _pairs)
from test_laws import conjugated  # noqa: E402


def _hex(x) -> str:
    if isinstance(x, (bool, int, np.integer)):
        return str(int(x))
    if isinstance(x, (complex, np.complexfloating)):
        z = complex(x)
        return f"{z.real.hex()},{z.imag.hex()}"
    if isinstance(x, (float, np.floating)):
        return float(x).hex()
    return ";".join(_hex(v) for v in x)


def _outcome(fn) -> str:
    try:
        return "value " + _hex(fn())
    except Exception as exc:  # every raise is an outcome, its text included
        return f"raise {type(exc).__name__}: {exc}"


def _split_dims(split) -> list:
    return [[b.shape[1] for b in part.bases]
            for part in (split.small, split.large)]


def _cli(argv) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refuses the command line
            code = exc.code
    # on exit 0 stderr only repeats stdout's numbers in a human summary
    text = f"exit {code}\nstdout {out.getvalue()}"
    return text + (f"stderr {err.getvalue()}" if code else "")


class Ledger:
    def __init__(self, tmp: pathlib.Path):
        self.tmp = tmp
        self.outcomes: dict[str, dict[str, str]] = {}

    def put(self, path: str, case: str, outcome: str):
        self.outcomes.setdefault(path, {})[case] = outcome

    def chiral(self, case: str, c, g):
        put = self.put
        put("cohomology_frame.betti", case,
            _outcome(lambda: dl.cohomology_frame(c).betti))
        put("refined_torsion", case,
            _outcome(lambda: dl.refined_torsion(c, g).coeff))
        put("c_gamma", case, _outcome(lambda: dl.c_gamma(c, g).coeff))
        put("torsion_norm", case, _outcome(lambda: dl.torsion_norm(c, g)))
        put("graded_det_finite", case,
            _outcome(lambda: dl.graded_det_finite(c, g)))
        put("dual_torsion_check", case,
            _outcome(lambda: dl.dual_torsion_check(c, g)))
        put("plus_minus_split", case, _outcome(lambda: [
            [b.shape[1] for b in side]
            for side in dl.plus_minus_split(c, g)[:2]]))

        def b_even():
            return dl.build_signature(c, g).b_even

        put("eta_finite", case, _outcome(lambda: dl.eta_finite(b_even()).eta))
        put("pick_agmon_angle", case,
            _outcome(lambda: dl.pick_agmon_angle(b_even())))

        def det_eta():
            m = b_even()
            return dl.det_eta_check(m, dl.pick_agmon_angle(m))

        put("det_eta_check", case, _outcome(det_eta))
        try:
            lams = _lambda_choices(c, g)
        except Exception as exc:
            put("_lambda_choices", case, f"raise {type(exc).__name__}: {exc}")
            lams = [0.0]
        doc = self.tmp / "doc.json"
        doc.write_text(dl.serialize_document(c, g), encoding="utf-8")
        put("cli torsion", case, _cli(["torsion", str(doc)]))
        for i, lam in enumerate(map(float, lams)):
            at = f"{case} lam{i}={lam!r}"
            put("spectral_split", at,
                _outcome(lambda: _split_dims(dl.spectral_split(c, g, lam))))
            put("torsion_via_split", at,
                _outcome(lambda: dl.torsion_via_split(c, g, lam).coeff))
            put("graded_det_via_xi_eta", at,
                _outcome(lambda: dl.graded_det_via_xi_eta(c, g, lam)))
            put("cli split", at,
                _cli(["split", str(doc), "--lambda", repr(lam)]))

    def circle(self, a: complex):
        case, put, m = f"a={a!r}", self.put, dl.CircleModel(a)
        for name in ("eta_circle", "xi_circle", "rho_an_circle",
                     "rho_an_closed", "rs_torsion_circle", "rs_norm_check",
                     "duality_check", "zeta_zero_check"):
            put(name, case, _outcome(lambda: getattr(dl, name)(m)))
        put("metric_scale_check", case,
            _outcome(lambda: dl.metric_scale_check(m, 2.0)))
        for k in (0, 2, 5):
            put("split_check", f"{case} k={k}",
                _outcome(lambda: dl.split_check(m, k)))
        put("cli circle", case,
            _cli(["circle", "--a", f"{a.real!r},{a.imag!r}"]))

    def fusion(self, case: str, a, b):
        def fused():
            frame_sum = dl.cohomology_frame(dl.direct_sum(a[0], b[0]))
            return dl.fused_in_sum_frame(dl.refined_torsion(*a),
                                         dl.refined_torsion(*b),
                                         frame_sum).coeff

        self.put("fused_in_sum_frame", case, _outcome(fused))


def _scaled(c, t):
    return dl.CochainComplex(c.dims, tuple(t * p for p in c.partial))


def circle_corpus() -> list:
    """The holonomy exponents of the circle cases: the selftest's grid, the
    line Re a = 0.3 about the float range's edges, and a = 5e-324."""
    return ([m.a for m in _circle_grid()]
            + [complex(0.3, im) for im in (-115.0, -113.0, 113.0, 225.0,
                                            225.489, 225.49, 226.0, 237.1,
                                            237.2, 300.0)]
            + [complex(5e-324, 0.0)])


PAIRS = (40, 12345)  # the selftest's default cases and seed, for _pairs


def run() -> dict:
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings(), \
            np.errstate(all="ignore"):
        warnings.simplefilter("ignore")
        led = Ledger(pathlib.Path(tmp))
        for d in (1, 3, 5, 7, 9):
            for acyclic in (True, False):
                for seed in range(6):
                    kind = "acyclic" if acyclic else "cohomology"
                    led.chiral(f"instance d={d} {kind} seed={seed}",
                               *_instance(seed, d, acyclic))
        for kappa in (1e2, 3e2):
            for d in (3, 5, 7):
                for seed in range(5):
                    led.chiral(f"conjugated kappa={kappa:g} d={d} "
                               f"seed={seed}",
                               *conjugated(seed, d, kappa)[1])
        for t in (1e-4, 1e-6, 1e-8):
            for seed in range(6):
                c, g = dl.gen_random(seed, 3)
                led.chiral(f"scaled t={t:g} seed={seed}", _scaled(c, t), g)
        profiles = {"200 x z=50": [(0, 50.0)] * 200,
                    "500 x (1.3+0.4i)(1+0.01j)": [
                        (0, (1.3 + 0.4j) * (1 + 0.01 * j))
                        for j in range(500)]}
        profiles.update({f"{n} x z=0.02": [(0, 0.02)] * n
                         for n in (180, 181, 182, 188, 189, 200)})
        for name, blocks in profiles.items():
            led.chiral(f"range {name}", *dl.gen_random(
                1, 1, {"blocks": blocks, "harmonic": []}))
        for a in circle_corpus():
            led.circle(a)
        for i, (a, b) in enumerate(_pairs(*PAIRS)):
            led.fusion(f"pair {i}", a, b)
    outcomes = {p: dict(sorted(cases.items()))
                for p, cases in sorted(led.outcomes.items())}
    paths = {p: {"cases": len(cases), "sha256": _digest(cases)}
             for p, cases in outcomes.items()}
    return {"sha256": _digest(outcomes), "paths": paths,
            "outcomes": outcomes}


def _digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, ensure_ascii=False)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _values(outcome: str):
    """The numbers of a value outcome as complex, or None."""
    if not outcome.startswith("value "):
        return None
    out = []
    for item in outcome[6:].split(";"):
        parts = [float.fromhex(p) if "0x" in p or "inf" in p or "nan" in p
                 else float(p) for p in item.split(",") if p]
        out.append(complex(*parts) if parts else 0j)
    return out


def _rel_change(old: str, new: str):
    """max |new - old| / max |old| over two value outcomes' numbers (inf
    when old is all 0 and new is not), or None when either is not a value
    (a raise, a CLI run) or the shapes differ."""
    a, b = _values(old), _values(new)
    if a is None or b is None or len(a) != len(b):
        return None
    change = max((abs(x - y) for x, y in zip(a, b)), default=0.0)
    if not change:
        return 0.0
    scale = max((abs(z) for z in a), default=0.0)
    return change / scale if scale else math.inf


def diff(old: dict, new: dict) -> int:
    """Print the per-path summary and every changed outcome; return the
    number of changed outcomes.  The worst relative change is taken over
    the outcomes that are values on both sides; any other change (a value
    that now raises, a new message, another CLI run) counts as "other"."""
    rows, changed = [], []
    for path in sorted(set(old["outcomes"]) | set(new["outcomes"])):
        a = old["outcomes"].get(path, {})
        b = new["outcomes"].get(path, {})
        cases = sorted(set(a) | set(b))
        same, worst, other = 0, 0.0, 0
        for case in cases:
            if a.get(case) == b.get(case):
                same += 1
                continue
            changed.append((path, case, a.get(case), b.get(case)))
            rel = (_rel_change(a[case], b[case])
                   if case in a and case in b else None)
            if rel is None:
                other += 1
            else:
                worst = max(worst, rel)
        rows.append((path, len(cases), same, worst, other))
    print(f"{'path':24} {'cases':>5} {'identical':>9} {'worst rel':>9} "
          f"{'other':>5}")
    for path, n, same, worst, other in rows:
        print(f"{path:24} {n:5d} {same:9d} {worst:9.3g} {other:5d}")
    print(f"{len(changed)} changed outcome(s)")
    for path, case, a, b in changed:
        print(f"\n[{path}] {case}")
        for mark, text in (("-", a), ("+", b)):
            text = "(absent)" if text is None else text.rstrip("\n")
            print(f"  {mark} " + text.replace("\n", "\n    "))
    return len(changed)


def _main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--out", default=str(ROOT / "LEDGER.json"),
                   help="ledger file to write, or with --diff to read")
    p.add_argument("--diff", metavar="OLD",
                   help="compare the ledger OLD with --out; runs nothing")
    args = p.parse_args(argv)
    if args.diff:
        old, new = (json.loads(pathlib.Path(f).read_text(encoding="utf-8"))
                    for f in (args.diff, args.out))
        diff(old, new)
        return 0
    ledger = run()
    pathlib.Path(args.out).write_text(
        json.dumps(ledger, indent=1, ensure_ascii=False) + "\n",
        encoding="utf-8")
    total = sum(v["cases"] for v in ledger["paths"].values())
    print(f"{total} outcomes over {len(ledger['paths'])} paths written to "
          f"{args.out} (sha256 {ledger['sha256'][:16]})")
    return 0


if __name__ == "__main__":
    sys.exit(_main())
