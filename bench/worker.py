"""One workload in one fresh process: set up, run rounds for the given
seconds, check every round, print the result as one JSON line.

Started by run.py with BLAS pinned to one thread and PYTHONPATH set to the
checkout's src/.  With --import-only it prints its own import time and
exits, which is how set-up time is sampled more than once per run.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

try:
    import innerseries

    import checks
    import tracer
    import workloads
except ImportError as err:
    sys.exit(f"bench: cannot import the program from {ROOT / 'src'}: {err}")

IMPORT_S = time.perf_counter() - T0
SETUP_REPEATS = 3


def attempt(name: str, fn) -> tuple[int, int]:
    """Run one operation; returns (failed, wrong) as 0/1 each."""
    try:
        fn()
        return 0, 0
    except checks.CheckFailed as err:
        print(f"bench: check {name} failed: {err}", file=sys.stderr)
        return 1, 1
    except Exception:
        print(f"bench: operation {name} failed:", file=sys.stderr)
        traceback.print_exc()
        return 1, 0


class Tally:
    """Operation counts and per-round measurements of one run."""

    def __init__(self):
        self.attempted = self.failed = self.wrong = 0
        self.walls: list[float] = []
        self.sizes: list[int] = []
        # high-water mark before any check runs, so that the checks' own
        # arrays do not count as the program's memory
        self.peak_rss_mb: float | None = None

    def round(self, wl, out: Path) -> float:
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        r = wl.round(out)
        results = []
        start = time.perf_counter()
        for name, fn in r.steps:
            results.append(attempt(name, fn))
        wall = time.perf_counter() - start
        if self.peak_rss_mb is None:
            self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        for name, fn in r.checks:
            results.append(attempt(name, fn))
        self.attempted += len(results)
        self.failed += sum(f for f, _ in results)
        self.wrong += sum(w for _, w in results)
        self.walls.append(wall)
        self.sizes.append(sum(f.stat().st_size for f in out.rglob("*") if f.is_file()))
        return wall

    def rounds(self, wl, out: Path, seconds: float) -> None:
        start = time.perf_counter()
        while True:
            self.round(wl, out)
            if time.perf_counter() - start >= seconds:
                return


def import_seconds() -> float:
    """Median import time over this process and fresh helper processes."""
    samples = [IMPORT_S]
    for _ in range(SETUP_REPEATS - 1):
        proc = subprocess.run(
            [sys.executable, __file__, "--import-only"],
            env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


def measure(wl, seconds: float, trace: bool, spec: dict, work: Path) -> dict:
    """Set up and run rounds of one workload; the result object to print."""
    out = work / "out"
    tally = Tally()
    if trace:
        tr = tracer.Tracer()
        tr.install()
        wl.setup()
        tr.uninstall()
        tally.rounds(wl, out, seconds)
        untraced = statistics.median(tally.walls)
        tr.install()
        traced = tally.round(wl, out)
        tr.uninstall()
        tr.write(work / "spans.jsonl")
        wanted = spec["per_layer"]
        values = tr.layer_metrics(m["name"] for m in wanted)
        values["trace.overhead_s"] = traced - untraced
    else:
        setups = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            wl.setup()
            setups.append(time.perf_counter() - start)
        values = {"setup_s": import_seconds() + statistics.median(setups)}
        tally.rounds(wl, out, seconds)
        values["wall_s"] = statistics.median(tally.walls)
        values["peak_rss_mb"] = tally.peak_rss_mb
        values["artifact_bytes"] = statistics.median(tally.sizes)
        wanted = spec["end_to_end"]
    return {
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": values.get(m["name"]), "unit": m["unit"]} for m in wanted},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--import-only", action="store_true")
    ap.add_argument("--workload", choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.import_only:
        print(IMPORT_S)
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    if Path(innerseries.__file__).resolve().parents[1] != ROOT / "src":
        sys.exit(f"bench: imported {innerseries.__file__}, not the checkout's src/")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    work = ROOT / ".bench_out" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    wl = workloads.WORKLOADS[args.workload](args.seed, workloads.FULL, work)
    print(json.dumps(measure(wl, args.seconds, bool(args.trace), spec, work)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
