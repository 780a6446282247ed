"""detline benchmark: one seeded workload per run, every result checked.

    python3 perfbench/run.py --workload chiral-small --seed 1 --seconds 25 \\
        --trace 0

Run from the root of the repository; the package is imported from ``src/``.
With ``--trace 0`` the run sets up (``SETUP_SAMPLES`` times: here and in
fresh interpreters), then repeats the workload's fixed input set for
``--seconds`` seconds (at least ``MIN_PASSES`` times); the last line of
stdout is a JSON object with the end-to-end metrics.  With ``--trace 1``
the run makes untraced passes for half of ``--seconds``, then wraps every
layer in spans (``spans.py``), makes one traced pass plus an in-process
pass of the CLI requests, and reports the per-layer metrics and the
tracing overhead.  Everything the run writes goes under
``.perfbench_out/``.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import cmath
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
WORKLOADS = ("chiral-small", "chiral-large", "circle-grid")
MIN_PASSES = 2
TAIL_BEYOND = 10  # samples the tail percentile must have beyond it
SETUP_SAMPLES = 4

SELFTEST_CHECKS = (
    "fuse-associative", "alpha-beta-compatibility", "fuse-dual-line",
    "fuse-anticommutation", "dual-graded-involution",
    "fusion-cohomology-diagram", "cohomology-duality-diagram",
    "phi-frame-rotation", "torsion-direct-sum", "torsion-norm-unitary",
    "torsion-variation-order", "torsion-duality", "torsion-equals-graded-det",
    "split-torsion-consistency", "split-large-part-acyclic",
    "signature-odd-even-spectrum", "det-eta-identity", "xi-eta-two-path",
    "agmon-angle-independence", "circle-two-path", "circle-rs-norm",
    "circle-duality", "circle-split-levels", "circle-zeta-zero",
    "circle-scale-invariance", "hurwitz-derivative-crosscheck",
    "document-round-trip")

# (span name, aggregates reported); busy_s = span time, self_s = span time
# not covered by child spans, calls and fail are counts.
LAYER_SPANS = (
    ("complexes.cohomology_frame", ("calls", "busy_s")),
    ("complexes.phi", ("calls", "busy_s")),
    ("torsion.validate_chirality", ("calls", "busy_s")),
    ("torsion.c_gamma", ("busy_s",)),
    ("torsion.refined_torsion", ("calls", "self_s")),
    ("torsion.dual_torsion_check", ("self_s",)),
    ("signature.spectral_split", ("calls", "busy_s", "fail")),
    ("signature.plus_minus_split", ("busy_s",)),
    ("signature.graded_det_finite", ("self_s", "fail")),
    ("signature.torsion_via_split", ("self_s",)),
    ("signature.graded_det_via_xi_eta", ("self_s",)),
    ("signature.log_det_cut", ("calls", "busy_s")),
    ("signature.eta_finite", ("busy_s",)),
    ("circle.xi_circle", ("calls", "self_s")),
    ("circle.hurwitz_zeta", ("calls", "busy_s")),
    ("circle.hurwitz_zeta_deriv0", ("busy_s",)),
    ("circle.eta_circle", ("busy_s",)),
    ("circle.split_check", ("self_s",)),
    ("lapack.svd", ("calls", "busy_s")),
    ("lapack.schur", ("calls", "busy_s")),
    ("lapack.eigvals", ("calls", "busy_s")),
    ("lapack.lstsq", ("calls", "busy_s")),
    ("lapack.det", ("calls", "busy_s")),
    ("workbench.gen_random", ("busy_s",)),
    ("workbench.serialize_document", ("busy_s",)),
    ("workbench.deserialize_document", ("busy_s",)),
    ("cli.main.torsion", ("busy_s",)),
    ("cli.main.split", ("busy_s",)),
    ("cli.main.circle", ("busy_s",)),
) + tuple((f"selftest.check.{name}", ("busy_s",)) for name in SELFTEST_CHECKS)


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def cap_blas_threads() -> None:
    """Cap BLAS threads at nproc, before numpy is first imported; child
    processes inherit the setting."""
    cap = str(nproc())
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = cap
    os.environ["PYTHONPATH"] = SRC
    sys.path.insert(0, SRC)


def percentile(values, q: float) -> float:
    """Linear-interpolation percentile (numpy's default method)."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_percentile(ops_per_pass: int) -> float:
    """Highest percentile with TAIL_BEYOND samples beyond it in a run of
    MIN_PASSES passes; fixed per workload, so runs compare."""
    n = ops_per_pass * MIN_PASSES
    return max(50.0, int(1000.0 * (1 - TAIL_BEYOND / n)) / 10.0)


def loadavg() -> float:
    with open("/proc/loadavg", encoding="ascii") as fh:
        return float(fh.read().split()[0])


def environment(seed: int) -> dict:
    import numpy
    import scipy
    blas = "unknown"
    try:
        cfg = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{cfg.get('name')} {cfg.get('version')}"
    except Exception:  # the layout of show_config differs across versions
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas,
            "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
            "nproc": nproc(), "seed": seed,
            "loadavg_1m": loadavg()}


# ---------------------------------------------------------------------------
# set-up


def setup(name: str, seed: int, out_dir: str):
    """Import detline, build the inputs and their oracles, run one warm-up
    op.  Returns (workload, items, seconds)."""
    t0 = time.perf_counter()
    import workloads
    wl = workloads.WORKLOADS[name]
    items = wl.setup(seed, out_dir)
    wl.op(items[0])
    return wl, items, time.perf_counter() - t0


def setup_in_child(name: str, seed: int) -> float:
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--setup-only",
         "--workload", name, "--seed", str(seed)],
        capture_output=True, text=True, timeout=170, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up subprocess failed: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


# ---------------------------------------------------------------------------
# passes


class Tally:
    """Op times and failures over a run."""

    def __init__(self, n_items: int = 0):
        self.item_s: list[list[float]] = [[] for _ in range(n_items)]
        self.pass_s: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def record(self, errs) -> None:
        errs = [e for e in errs if e]
        self.attempted += 1
        if errs:
            self.failed += 1
            if len(self.reasons) < 20:
                self.reasons.append("; ".join(errs))


class Reference:
    """Machine speed during a run, from a fixed kernel timed between ops.

    On a shared virtual machine (2 vCPUs, other tenants on the host) the
    speed drifts by a third and more within minutes, which no median within
    one run can remove.  So every time is reported at a nominal speed: it
    is scaled by ``NOMINAL_S / kernel time``, the kernel time being the
    median of the last ``WINDOW`` samples, taken at most ``EVERY_S`` apart
    and around each op.  A workload names the kernel whose speed its own time
    follows: ``py`` (an integer loop), ``complex`` (a loop of complex
    arithmetic and ``cmath.phase``, the shape of the circle model's scalar
    code) or ``blas`` (a fixed 96 x 96 complex SVD).  The kernel is the
    benchmark's own code, so no change to the program moves it.
    """

    NOMINAL_S = {"py": 1.5e-3, "complex": 1.0e-3, "blas": 4.5e-3}
    EVERY_S = 0.1
    WINDOW = 9

    def __init__(self, kind: str):
        import numpy as np
        self.kind = kind
        rng = np.random.default_rng(0)
        self._a = rng.standard_normal((96, 96)) + 1j * rng.standard_normal(
            (96, 96))
        self._svd = np.linalg.svd
        self.samples: list[float] = []
        self._last = 0.0
        self.sample()

    def sample(self) -> None:
        t0 = time.perf_counter()
        if self.kind == "py":
            acc = 0
            for i in range(20000):
                acc += i * i % 7
        elif self.kind == "complex":
            a, acc = 0.3 + 0.1j, 0.0
            for n in range(-1000, 1000):
                acc += min(abs(cmath.phase((n + a) ** 2) - 1.0), 2.0)
        else:
            self._svd(self._a)
        self._last = time.perf_counter()
        self.samples.append(self._last - t0)

    def maybe_sample(self) -> None:
        if time.perf_counter() - self._last >= self.EVERY_S:
            self.sample()

    def scale(self) -> float:
        return self.NOMINAL_S[self.kind] / statistics.median(
            self.samples[-self.WINDOW:])


def run_op(wl, item, tally: Tally) -> float:
    t0 = time.perf_counter()
    try:
        errs = wl.op(item)
    except Exception as exc:  # an unexpected exception fails the op
        errs = [f"unexpected {type(exc).__name__}: {exc}"]
    elapsed = time.perf_counter() - t0
    tally.record(errs)
    return elapsed


def run_passes(wl, items, tally: Tally, ref: Reference, seconds: float,
               min_passes: int, max_passes: int | None = None) -> None:
    """Repeat the input set until the next pass would end after `seconds`;
    op times are recorded scaled to the reference's nominal speed."""
    start = time.perf_counter()
    while True:
        spent = 0.0
        for i, item in enumerate(items):
            ref.maybe_sample()
            elapsed = run_op(wl, item, tally)
            spent += elapsed
            ref.maybe_sample()
            tally.item_s[i].append(elapsed * ref.scale())
        tally.pass_s.append(spent)
        done = len(tally.pass_s)
        if max_passes is not None and done >= max_passes:
            return
        if done >= min_passes and (time.perf_counter() - start
                                   + statistics.median(tally.pass_s)
                                   > seconds):
            return


def run_defects(wl, seed: int, out_dir: str) -> list[dict]:
    out = []
    for name, fn in wl.defects(seed, out_dir):
        try:
            errs = [e for e in fn() if e]
        except Exception as exc:  # an unexpected exception is a failure
            errs = [f"unexpected {type(exc).__name__}: {exc}"]
        out.append({"name": name, "failed": bool(errs),
                    "detail": "; ".join(errs) or "passes its oracle"})
    return out


# ---------------------------------------------------------------------------
# reports


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(args, out_dir) -> tuple[dict, Tally, dict]:
    wl, items, first = setup(args.workload, args.seed, out_dir)
    ref = Reference(wl.reference)
    setups = [first]
    scaled_setups = [first * ref.scale()]
    for _ in range(SETUP_SAMPLES - 1):
        setups.append(setup_in_child(args.workload, args.seed))
        ref.sample()
        scaled_setups.append(setups[-1] * ref.scale())
    tally = Tally(len(items))
    run_passes(wl, items, tally, ref, args.seconds, MIN_PASSES)
    op_ms = [1000.0 * t for ts in tally.item_s for t in ts]
    q = tail_percentile(len(items))
    tail = percentile(op_ms, q)
    # One pass of the input set, each op at its median over the passes: a
    # stall during one pass moves the result less than a pass total would.
    wall = sum(statistics.median(ts) for ts in tally.item_s)
    times = {
        "setup_s": (statistics.median(scaled_setups), "s"),
        "wall_s": (wall, "s"),
        "op_ms.p50": (statistics.median(op_ms), "ms"),
        "op_ms.tail": (tail, "ms"),
    }
    notes = {
        "setup_s": (f"median of {len(setups)}; measured "
                    f"{statistics.median(setups):.4g} s"),
        "wall_s": (f"{len(items)} ops, each at its median over "
                   f"{len(tally.pass_s)} passes; measured pass "
                   f"{statistics.median(tally.pass_s):.4g} s"),
        "op_ms.p50": f"{len(op_ms)} ops",
        "op_ms.tail": (f"p{q:g} of {len(op_ms)} ops, "
                       f"{sum(t > tail for t in op_ms)} beyond"),
    }
    metrics = {name: metric(value, unit)
               for name, (value, unit) in times.items()}
    metrics["peak_rss_mb"] = metric(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    kernel = statistics.median(ref.samples)
    return metrics, tally, {"notes": notes, "tail_percentile": q,
                            "setups": setups, "passes": tally.pass_s,
                            "speed": {"kernel": ref.kind,
                                      "median_kernel_s": kernel,
                                      "nominal_kernel_s":
                                          ref.NOMINAL_S[ref.kind],
                                      "samples": len(ref.samples)}}


def import_seconds(samples: int = 3) -> float:
    times = []
    for _ in range(samples):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import detline"], check=True,
                       timeout=120, cwd=ROOT)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def per_layer(args, out_dir) -> tuple[dict, Tally, dict]:
    import spans
    wl, items, _ = setup(args.workload, args.seed, out_dir)
    ref = Reference(wl.reference)
    untraced = Tally(len(items))
    run_passes(wl, items, untraced, ref, args.seconds / 2.0, 1)
    tracer = spans.Tracer()
    tracer.install()
    try:
        import workloads
        items = wl.setup(args.seed, out_dir)
        wl.op(items[0])
        traced = Tally(len(items))
        run_passes(wl, items, traced, ref, 0.0, 1, max_passes=1)
        for req in workloads.probe_requests(args.seed,
                                            os.path.join(out_dir, "probe")):
            traced.record(req.in_process())
    finally:
        tracer.uninstall()
    agg = tracer.aggregate()
    metrics = {}
    for span, kinds in LAYER_SPANS:
        a = agg.get(span, {"calls": 0, "busy": 0.0, "self": 0.0, "fail": 0})
        for kind in kinds:
            if kind == "busy_s":
                metrics[f"{span}.busy_s"] = metric(a["busy"], "s")
            elif kind == "self_s":
                metrics[f"{span}.self_s"] = metric(a["self"], "s")
            else:
                metrics[f"{span}.{kind}"] = metric(a[kind], "count")
    metrics["lapack.flops_computed"] = metric(tracer.flops, "flop")
    for name in ("workbench.serialize_document",
                 "workbench.deserialize_document"):
        metrics[f"{name}.bytes"] = metric(tracer.bytes[name], "bytes")
    metrics["cli.import_s"] = metric(import_seconds(), "s")
    spans_path = os.path.join(
        OUT, f"spans-{args.workload}-seed{args.seed}.json")
    tracer.write(spans_path)
    untraced_wall = sum(statistics.median(ts) for ts in untraced.item_s)
    traced_wall = sum(ts[0] for ts in traced.item_s)
    tally = Tally()
    for t in (untraced, traced):
        tally.attempted += t.attempted
        tally.failed += t.failed
        tally.reasons += t.reasons
    overhead = {"untraced_wall_s": untraced_wall, "traced_wall_s": traced_wall,
                "overhead": traced_wall / untraced_wall - 1.0,
                "spans": len(tracer.spans), "spans_file": spans_path}
    return metrics, tally, {"tracing": overhead}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="time one set-up and print it (used by the run)")
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "detline", "__init__.py")):
        print(f"no detline package under {SRC}; run from a checkout of the "
              f"repository", file=sys.stderr)
        return 2
    cap_blas_threads()
    if args.setup_only:
        out_dir = os.path.join(OUT, "setup-probe")
        print(json.dumps({"setup_s": setup(args.workload, args.seed,
                                           out_dir)[2]}))
        return 0
    out_dir = os.path.join(OUT, args.workload)
    os.makedirs(out_dir, exist_ok=True)
    load_start = loadavg()
    run = per_layer if args.trace else end_to_end
    metrics, tally, extra = run(args, out_dir)
    import workloads
    defects = run_defects(workloads.WORKLOADS[args.workload], args.seed,
                          out_dir)
    env = environment(args.seed)
    env["loadavg_1m_start"] = load_start
    result = {"correct": tally.failed == 0, "attempted": tally.attempted,
              "failed": tally.failed, "metrics": metrics}
    report = {"workload": args.workload, "trace": args.trace, "env": env,
              "fail_frac": tally.failed / tally.attempted,
              "failures": tally.reasons, "known_defects": defects, **extra,
              **result}
    path = os.path.join(OUT, f"result-{args.workload}-seed{args.seed}"
                             f"-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)

    print(f"env: {json.dumps(env)}")
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{tally.attempted} ops, {tally.failed} failed")
    notes = extra.get("notes", {})
    for name, m in metrics.items():
        print(f"  {name:<48} {m['value']:<14.6g} {m['unit']:<6} "
              f"{notes.get(name, '')}")
    print(f"  {'fail_frac':<48} {report['fail_frac']:<14.6g} 1      "
          f"{tally.failed}/{tally.attempted} ops")
    if args.trace:
        t = extra["tracing"]
        print(f"  tracing overhead: traced wall_s {t['traced_wall_s']:.4f} s "
              f"vs untraced {t['untraced_wall_s']:.4f} s "
              f"({100 * t['overhead']:+.1f}%), {t['spans']} spans in "
              f"{os.path.relpath(t['spans_file'], ROOT)}")
    for reason in tally.reasons[:5]:
        print(f"  FAILED: {reason}")
    for d in defects:
        state = "still fails" if d["failed"] else "now passes"
        print(f"  known defect {d['name']}: {state} ({d['detail']})")
    print(f"  report: {os.path.relpath(path, ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
