"""The seeded workloads: their inputs, the op each input goes through, and
the oracle behind every check.

Every workload builds its inputs from the ``--seed`` alone, in ``setup``.
An op returns the list of its failed checks; an op with a non-empty list, or
one that raises anything the oracle did not ask for, counts as failed.  The
ops that fail at the time the benchmark was written, because of a known
defect of the program, are not in any workload: they run as ``defects``
beside it, and the report shows whether each still fails.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field

import numpy as np

import detline as dl
import oracles as orc
from detline.errors import SpectralBoundaryError

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def expect_raise(exc_type, what, fn, *args):
    """None when fn raises exc_type; a failure reason when it returns.
    Any other exception propagates and fails the op."""
    try:
        value = fn(*args)
    except exc_type:
        return None
    return f"{what}: expected {exc_type.__name__}, got {value!r}"


# ---------------------------------------------------------------------------
# chiral complexes


def _draw_z(rng) -> complex:
    while True:
        z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        if abs(z) >= 0.2:
            return z


def make_profile(rng, d: int, target: int, n_harmonic: int = 0,
                 offset: int = 0) -> dict:
    """Elementary blocks until the total dimension reaches ``target``, plus
    ``n_harmonic`` harmonic pairs.  Block and harmonic degrees cycle from
    ``offset``, so the dimensions do not depend on the seed; the seed draws
    each z as ``workbench.random_profile`` does."""
    r = (d + 1) // 2
    harmonic = [(offset + k) % (d + 1) for k in range(n_harmonic)]
    n = 2 * n_harmonic
    blocks = []
    while n < target or not blocks:
        j = (offset + len(blocks)) % r
        blocks.append((j, _draw_z(rng)))
        n += 2 if 2 * j + 1 == d else 4
    return {"blocks": blocks, "harmonic": harmonic}


@dataclass
class Chiral:
    """A generated chiral complex with its oracle data."""

    name: str
    d: int
    profile: dict
    c: object
    g: object
    betti: tuple
    log_rho: complex | None  # None when the complex is not acyclic
    target: int = 0
    lams: tuple = ()


def make_chiral(rng, name, d, target, n_harmonic=0, offset=0) -> Chiral:
    profile = make_profile(rng, d, target, n_harmonic, offset)
    c, g = dl.gen_random(int(rng.integers(2 ** 31)), d, profile)
    log_rho = (None if n_harmonic
               else orc.log_block_product(d, profile["blocks"]))
    return Chiral(name, d, profile, c, g,
                  orc.expected_betti(d, profile["harmonic"]), log_rho, target)


def pick_lambdas(x: Chiral) -> tuple:
    """Split levels 0, the geometric middle of the widest gap between
    distinct nonzero moduli of spec(B^2) (half the smallest modulus when
    there is one), and twice the largest modulus."""
    sig = dl.build_signature(x.c, x.g)
    mods = []
    for j in range(x.d + 1):
        block = sig.bsq_block(j)
        if block.size:
            mods.extend(abs(z) for z in np.linalg.eigvals(block))
    top = max(mods)
    mods = sorted({round(m, 6) for m in mods if m > 1e-6 * max(top, 1.0)})
    if len(mods) > 1:
        i = max(range(len(mods) - 1), key=lambda k: mods[k + 1] / mods[k])
        mid = math.sqrt(mods[i] * mods[i + 1])
    else:
        mid = mods[0] / 2.0
    return 0.0, mid, 2.0 * mods[-1]


def chiral_checks(x: Chiral, what: str, value, rho=None):
    """A torsion-valued result against the block product (acyclic) or
    against the refined torsion of the same complex (with cohomology)."""
    if x.log_rho is not None:
        return orc.log_close(value, x.log_rho, what)
    return orc.rel_close(value, rho, what, 1e-8)


class ChiralSmall:
    """Several hundred small instances, each through the whole pipeline."""

    reference = "py"  # kernel for the speed scaling in run.py
    name = "chiral-small"
    why = ("hundreds of tiny complexes (N 5-40, d 1/3/5, half with "
           "cohomology) through the whole pipeline: per-call overhead and "
           "validation dominate, LAPACK work is small")
    count = 300

    def setup(self, seed, out_dir):
        # The dimensions are the same for every seed, so every seed asks for
        # the same amount of work; the seed draws each z and the
        # conjugating matrices.
        rng = np.random.default_rng([seed, 1])
        items = []
        for i in range(self.count):
            d = (1, 3, 5)[i % 3]
            n_harm = 1 + (i // 2) % 2 if i % 2 else 0
            x = make_chiral(rng, f"small-{i}", d, 5 + (7 * i) % 36, n_harm,
                            offset=i)
            x.lams = pick_lambdas(x)
            items.append(x)
        return items

    def op(self, x: Chiral):
        c, g = x.c, x.g
        errs = []
        fr = dl.cohomology_frame(c)
        errs.append(orc.equal(fr.betti, x.betti, "cohomology_frame betti"))
        rho = dl.refined_torsion(c, g, fr).coeff
        if x.log_rho is not None:
            errs.append(orc.log_close(rho, x.log_rho, "refined_torsion"))
            errs.append(orc.log_close(dl.graded_det_finite(c, g), x.log_rho,
                                      "graded_det_finite"))
        else:
            errs.append(orc.finite(rho, "refined_torsion"))
            errs.append(expect_raise(SpectralBoundaryError,
                                     "graded_det_finite with cohomology",
                                     dl.graded_det_finite, c, g))
        for lam in x.lams:
            via = dl.torsion_via_split(c, g, lam, fr).coeff
            errs.append(chiral_checks(x, f"torsion_via_split({lam:.4g})",
                                      via, rho))
        if x.log_rho is not None:
            errs.append(orc.log_close(dl.graded_det_via_xi_eta(c, g, 0.0),
                                      x.log_rho, "graded_det_via_xi_eta"))
        errs.append(orc.small(dl.dual_torsion_check(c, g),
                              "dual_torsion_check", 1e-8))
        return errs

    def defects(self, seed, out_dir):
        return [nan_document_defect(seed, out_dir)]


# The ROADMAP ladder: d in {1, 3, 5} at N ~ 100 / 300 / 1000.  One split at
# N ~ 1000 takes seconds, so the split stages stop at N ~ 300.
LADDER = [(d, n) for n in (100, 300, 1000) for d in (1, 3, 5)]
SPLIT_MAX_N = 300
LARGE_STAGES = ("refined_torsion", "graded_det_finite", "torsion_via_split",
                "graded_det_via_xi_eta")


def make_ladder(seed):
    rng = np.random.default_rng([seed, 2])
    return [make_chiral(rng, f"d{d}-n{n}", d, n) for d, n in LADDER]


def large_stage(x: Chiral, stage: str):
    c, g = x.c, x.g
    if stage == "refined_torsion":
        value = dl.refined_torsion(c, g).coeff
    elif stage == "graded_det_finite":
        value = dl.graded_det_finite(c, g)
    elif stage == "torsion_via_split":
        value = dl.torsion_via_split(c, g, 0.0).coeff
    else:
        value = dl.graded_det_via_xi_eta(c, g, 0.0)
    return [orc.log_close(value, x.log_rho, f"{x.name} {stage}")]


class ChiralLarge:
    """The size ladder; an op is one stage on one rung instance."""

    reference = "blas"  # kernel for the speed scaling in run.py
    name = "chiral-large"
    why = ("size ladder d 1/3/5 at N ~100/300/1000, acyclic: bound by "
           "LAPACK (SVD, Schur, lstsq), where factorization sharing and "
           "the split show")

    def setup(self, seed, out_dir):
        return [(x, stage) for x in make_ladder(seed) for stage in
                LARGE_STAGES[:4 if x.target <= SPLIT_MAX_N else 2]]

    def op(self, item):
        return large_stage(*item)

    def defects(self, seed, out_dir):
        # ROADMAP item 3: log|rho| = 200 log 50 ~ 782.4 overflows a double.
        blocks = [(0, 50.0)] * 200
        c, g = dl.gen_random(seed, 1, {"blocks": blocks, "harmonic": []})
        x = Chiral("overflow-d1-200xz50", 1, {"blocks": blocks}, c, g,
                   (0, 0), orc.log_block_product(1, blocks))
        return [(x.name, lambda: large_stage(x, "refined_torsion")
                 + large_stage(x, "graded_det_finite"))]


# ---------------------------------------------------------------------------
# circle model

CIRCLE_SCALES = (0.5, 1.0, 2.0, 5.0)
CIRCLE_SPLITS = (2, 5)
# split_check is wrong when the eigenvalue a (or a - 1) lies past the
# default Agmon ray, arg = -pi/4 (Im a < -Re a, or Im a > 1 - Re a): its
# residual is O(1) there.  Grid points keep this far inside; the defect runs
# as circle-split-past-ray beside the workload.
CUT_MARGIN = 0.02


@dataclass
class CirclePoint:
    a: complex
    rho: complex = field(init=False)
    rs: float = field(init=False)
    rs_norm: float = field(init=False)

    def __post_init__(self):
        self.rho = orc.circle_rho(self.a)
        self.rs = orc.circle_rs(self.a)
        self.rs_norm = orc.circle_rs_norm(self.a)


class CircleGrid:
    """A seeded grid of holonomy exponents through every circle check."""

    reference = "complex"  # kernel for the speed scaling in run.py
    name = "circle-grid"
    why = ("pure-Python Hurwitz/zeta' scalar code with no LAPACK, dominated "
           "by the branch-cut scan; the linear-algebra layers are bypassed")
    n_real = 25
    n_complex = 25

    def setup(self, seed, out_dir):
        rng = np.random.default_rng([seed, 3])
        step = 0.9 / (self.n_real - 1)
        pts = [0.05 + i * step + rng.uniform(-step / 4, step / 4)
               for i in range(self.n_real)]
        pts = [min(max(a, 0.05), 0.95) for a in pts]
        for _ in range(self.n_complex):
            re = rng.uniform(0.05, 0.95)
            lo, hi = max(-0.3, CUT_MARGIN - re), min(0.3, 1 - re - CUT_MARGIN)
            pts.append(complex(re, rng.uniform(lo, hi)))
        return [CirclePoint(complex(a)) for a in pts]

    def op(self, p: CirclePoint):
        errs = []
        for s in CIRCLE_SCALES:
            m = dl.CircleModel(p.a, scale=s)
            errs.append(orc.rel_close(dl.rho_an_circle(m), p.rho,
                                      f"rho_an_circle scale {s}", 1e-8))
        m = dl.CircleModel(p.a)
        value, target = dl.rs_norm_check(m)
        errs.append(orc.rel_close(value, p.rs_norm, "rs_norm value", 1e-8))
        errs.append(orc.rel_close(target, p.rs_norm, "rs_norm target", 1e-8))
        errs.append(orc.rel_close(dl.rs_torsion_circle(m), p.rs,
                                  "rs_torsion_circle", 1e-8))
        errs.append(orc.small(dl.duality_check(m), "duality_check", 1e-9))
        for s in CIRCLE_SCALES:
            if s != 1.0:
                errs.append(orc.small(dl.metric_scale_check(m, s),
                                      f"metric_scale_check {s}", 1e-9))
        for k in CIRCLE_SPLITS:
            errs.append(orc.small(dl.split_check(m, k), f"split_check {k}",
                                  1e-8))
        errs.append(orc.small(dl.zeta_zero_check(m), "zeta_zero_check",
                              1e-10))
        return errs

    def defects(self, seed, out_dir):
        # ROADMAP item 2: (2000 + a)^2 lies on the cut 2 theta, beyond the
        # default scan depth of 1000.
        theta = -1e-4
        m = dl.CircleModel(complex(0.3, 2000.3 * math.tan(theta)))
        past = dl.CircleModel(complex(0.15, -0.25))
        return [("circle-cut-n2000", lambda: [expect_raise(
            SpectralBoundaryError, "rho_an_circle on the cut",
            dl.rho_an_circle, m, theta)]),
                ("circle-split-past-ray", lambda: [orc.small(
                    dl.split_check(past, 2), "split_check a=0.15-0.25i",
                    1e-8)])]


# ---------------------------------------------------------------------------
# command line


def _strict_json(text: str):
    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")
    return json.loads(text, parse_constant=reject)


@dataclass
class Request:
    """One CLI invocation and the check of its exit code and stdout."""

    name: str
    argv: list
    check: object  # (exit_code, stdout) -> list of failure reasons

    def cold(self):
        """Run in a fresh interpreter; returns (seconds, failures)."""
        env = dict(os.environ, PYTHONPATH=SRC)
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "detline.cli", *self.argv], env=env,
            cwd=ROOT, capture_output=True, text=True, timeout=150)
        elapsed = time.perf_counter() - t0
        return elapsed, self.judge(proc.returncode, proc.stdout)

    def in_process(self):
        """Run ``detline.cli.main`` in this interpreter."""
        import detline.cli
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = detline.cli.main(list(self.argv))
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 2
            except Exception as exc:  # the interpreter would exit with 1
                return [f"{self.name}: raised {type(exc).__name__}: {exc}"]
        return self.judge(code, out.getvalue())

    def judge(self, code, stdout):
        try:
            return self.check(code, stdout)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            return [f"{self.name}: unreadable output ({exc})"]


def _pair(v):
    return None if v is None else complex(v[0], v[1])


def _exit0(code, stdout):
    if code != 0:
        raise ValueError(f"exit code {code}, expected 0")
    return _strict_json(stdout)


def circle_request() -> Request:
    a = 0.25

    def check(code, stdout):
        out = _exit0(code, stdout)
        return [orc.rel_close(_pair(out["rho_an"]), orc.circle_rho(a),
                              "cli circle rho_an", 1e-8),
                orc.rel_close(out["rs_torsion"], orc.circle_rs(a),
                              "cli circle rs_torsion", 1e-8)]
    return Request("circle 0.25", ["circle", "--a", "0.25"], check)


def selftest_request() -> Request:
    def check(code, stdout):
        out = _exit0(code, stdout)
        failed = [c["name"] for c in out["checks"] if not c["passed"]]
        return [orc.equal(out["passed"], True, "cli selftest passed"),
                orc.equal(failed, [], "cli selftest failed checks")]
    return Request("selftest", ["selftest"], check)


def _doc_requests(x: Chiral, path: str):
    """torsion and split requests on a document, checked against the values
    computed in this process and against the oracle."""
    fr = dl.cohomology_frame(x.c)
    rho = dl.refined_torsion(x.c, x.g, fr).coeff
    lam = x.lams[1]
    via = dl.torsion_via_split(x.c, x.g, lam, fr).coeff

    def torsion(code, stdout):
        out = _exit0(code, stdout)
        t = _pair(out["torsion"])
        errs = [orc.rel_close(t, rho, "cli torsion vs in-process", 1e-9),
                orc.equal(tuple(out["betti"]), x.betti, "cli torsion betti")]
        if x.log_rho is not None:
            errs.append(orc.log_close(t, x.log_rho, "cli torsion"))
            errs.append(orc.log_close(_pair(out["graded_det"]), x.log_rho,
                                      "cli graded_det"))
        else:
            errs.append(orc.equal(out["graded_det"], None, "cli graded_det"))
        return errs

    def split(code, stdout):
        out = _exit0(code, stdout)
        v = _pair(out["torsion_via_split"])
        errs = [orc.rel_close(v, via, "cli split vs in-process", 1e-9),
                orc.rel_close(_pair(out["refined_torsion"]), rho,
                              "cli split refined_torsion", 1e-9),
                orc.equal(out["consistent"], True, "cli split consistent")]
        if x.log_rho is not None:
            errs.append(orc.log_close(v, x.log_rho, "cli split"))
        return errs

    return [Request(f"torsion {x.name}", ["torsion", path], torsion),
            Request(f"split {x.name}", ["split", path, "--lambda", repr(lam)],
                    split)]


def probe_requests(seed, out_dir):
    """The CLI requests every traced run makes in-process: torsion and split
    on two documents (N ~ 10 with cohomology, N ~ 100 acyclic) written under
    out_dir, circle, and selftest."""
    rng = np.random.default_rng([seed, 4])
    docs = [make_chiral(rng, "doc-n10", 3, 10, 1),
            make_chiral(rng, "doc-n100", 5, 100)]
    os.makedirs(out_dir, exist_ok=True)
    requests = []
    for x in docs:
        x.lams = pick_lambdas(x)
        path = os.path.join(out_dir, f"{x.name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(dl.serialize_document(x.c, x.g, {"name": x.name}))
        requests += _doc_requests(x, path)
    return requests + [circle_request(), selftest_request()]


def nan_document_defect(seed, out_dir):
    """ROADMAP item 3: json.loads accepts NaN, validate() lets it pass, and
    the CLI dies in the SVD with exit 1; the contract says exit 2."""
    rng = np.random.default_rng([seed, 5])
    x = make_chiral(rng, "doc-nan", 3, 10)
    doc = json.loads(dl.serialize_document(x.c, x.g))
    mat = next(m for m in doc["differential"] if m and m[0])
    mat[0][0][0] = float("nan")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "doc-nan.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)

    def check(code, stdout):
        return [orc.equal(code, 2, "cli torsion on a NaN entry: exit")]
    req = Request("cli-nan-document", ["torsion", path], check)
    return req.name, lambda: req.cold()[1]


WORKLOADS = {w.name: w for w in (ChiralSmall(), ChiralLarge(), CircleGrid())}

