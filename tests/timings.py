"""Wall times of the package end to end, and the cost of a chiral pair's
first op beside a repeated one.

    python tests/timings.py import        # median of 5 `import detline`
    python tests/timings.py cli           # median of 5 `detline circle --a 0.25`
    python tests/timings.py selftest      # median of 3 `detline selftest`
    python tests/timings.py pair-reuse    # chiral-small seed 1, cold and warm
    python tests/timings.py               # all four, in that order

Run it from the repo root with the package installed: the first three
time fresh processes, the interpreter importing detline and the detline
console script.  pair-reuse runs perfbench's chiral-small workload, seed
1, once on fresh pairs and again on the same pairs, which read what each
pair kept on the first pass.  It prints both times, the np.linalg.eigvals
and np.linalg.det calls per op, and the number of ops that failed their
oracle.  The benchmark repeats its inputs, so its wall_s is the warm
figure; this shows the first-call cost beside it.  It is not a test
module (pytest collects only test_*.py) and gates nothing.
"""

import statistics
import subprocess
import sys
import tempfile
import time

import numpy as np


def _median(runs: int, argv: list) -> float:
    """Median wall time of runs fresh runs of argv, its output discarded."""
    times = []
    for _ in range(runs):
        t0 = time.perf_counter()
        subprocess.run(argv, check=True, stdout=subprocess.DEVNULL,
                       stderr=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def cold_import():
    t = _median(5, [sys.executable, "-c", "import detline"])
    print(f"import detline: median {t:.3f} s of 5")


def cli_cold_start():
    t = _median(5, ["detline", "circle", "--a", "0.25"])
    print(f"detline circle --a 0.25: median {t:.3f} s of 5")


def selftest_wall_time():
    t = _median(3, ["detline", "selftest"])
    print(f"detline selftest: median {t:.3f} s of 3")


def pair_reuse():
    sys.path.insert(0, "perfbench")
    import workloads
    wl = workloads.ChiralSmall()
    items = wl.setup(1, tempfile.mkdtemp())
    counts = dict.fromkeys(("eigvals", "det"), 0)

    def spy(name):
        orig = getattr(np.linalg, name)

        def counted(*args, **kwargs):
            counts[name] += 1
            return orig(*args, **kwargs)
        setattr(np.linalg, name, counted)
    for name in counts:
        spy(name)
    for name in ("cold (fresh pairs)", "warm (same pairs)"):
        counts.update(dict.fromkeys(counts, 0))
        t0 = time.perf_counter()
        failed = sum(any(wl.op(x)) for x in items)
        t = time.perf_counter() - t0
        print(f"chiral-small seed 1, {name}: {t:.3f} s for "
              f"{len(items)} ops, {counts['eigvals'] / len(items):.2f} "
              f"eigvals calls per op, {counts['det'] / len(items):.2f} det "
              f"calls per op, {failed} failed")


SECTIONS = {"import": cold_import, "cli": cli_cold_start,
            "selftest": selftest_wall_time, "pair-reuse": pair_reuse}

if __name__ == "__main__":
    for section in sys.argv[1:] or SECTIONS:
        SECTIONS[section]()
