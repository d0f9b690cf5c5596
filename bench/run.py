"""The b2weyl benchmark: seeded CLI workloads, checked against an independent model.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S   # every workload
    python3 bench/run.py --self-test                            # oracle self-test

Inputs are generated from the seed by ``workloads`` (through ``model``,
never through b2weyl), a fresh worker interpreter runs them against
``src/b2weyl`` in-process, and every output is checked outside the timed
region.  Human-readable lines come first; the last line of stdout is the
JSON result.  With --trace 0 it holds the end-to-end metrics, with
--trace 1 the per-layer metrics of a traced replay.  See bench/DESIGN.md.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"
SETUP_RUNS = 9
RUN_TIMEOUT_S = 170
SETUP_CODE = """
import json, statistics, sys, time
sys.path.insert(0, sys.argv[1])
from worker import speed_probe
probes = [speed_probe() for _ in range(5)]
start = time.perf_counter()
import b2weyl.cli
b2weyl.cli.build_parser({})
elapsed = time.perf_counter() - start
probes += [speed_probe() for _ in range(5)]
print(json.dumps([elapsed, statistics.median(probes)]))
"""

# Timings are scaled to the speed at which worker.speed_probe takes this
# long (its median on a 2-vCPU x86-64 VM at 2.0 GHz with Python 3.11), by
# the speed samples taken during each interval and within PROBE_WINDOW_S.
PROBE_NOMINAL_S = 80e-6
PROBE_WINDOW_S = 0.05

# Each workload's own names for the end-to-end metrics in BENCHMARK.json.
NAMES = {
    "orbit-dump": {"ops_per_s": ("elements_per_s", "records/s"),
                   "p50_ms": ("dump_p50_ms", "ms"),
                   "tail_ms": ("dump_max_ms", "ms"),
                   "first_output_ms": ("orbit_first_record_ms", "ms")},
    "query-mix": {"ops_per_s": ("queries_per_s", "req/s"),
                  "p50_ms": ("query_p50_ms", "ms"),
                  "tail_ms": ("query_p99_ms", "ms"),
                  "first_output_ms": ("query_first_byte_p50_ms", "ms")},
    "cascade-replay": {"ops_per_s": ("moves_per_s", "moves/s"),
                       "p50_ms": ("scenario_p50_ms", "ms"),
                       "tail_ms": ("scenario_p90_ms", "ms"),
                       "first_output_ms": ("replay_first_byte_p50_ms", "ms")},
}
# The highest percentile with at least ten units beyond it at the run's
# minimum size; orbit-dump has too few units for any, so it reports the max.
TAIL = {"orbit-dump": 1.0, "query-mix": 0.99, "cascade-replay": 0.90}
UNITS = {"ops_per_s": "1/s", "p50_ms": "ms", "tail_ms": "ms", "first_output_ms": "ms",
         "peak_rss_mb": "MB", "setup_s": "s"}


class BenchError(RuntimeError):
    pass


def percentile(values, q):
    """Nearest-rank percentile; q = 1.0 is the maximum."""
    ordered = sorted(values)
    return ordered[max(1, -int(-len(ordered) * q // 1)) - 1]


def measure_setup() -> tuple[float, float]:
    """Median time, in fresh interpreters, to import the CLI and build its
    parser, as every shell invocation does: (at nominal speed, measured).

    Each interpreter times the import itself, between speed probes of its
    own, so process start-up noise stays out of the reading."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    nominal, measured = [], []
    for _ in range(SETUP_RUNS):
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE, str(BENCH)], cwd=ROOT,
                              env=env, capture_output=True, text=True, timeout=60)
        if proc.returncode != 0:
            raise BenchError(f"set-up interpreter exited with code {proc.returncode}: "
                             f"{proc.stderr.strip()[-300:]}")
        elapsed, probe = json.loads(proc.stdout)
        nominal.append(elapsed * PROBE_NOMINAL_S / probe)
        measured.append(elapsed)
    return statistics.median(nominal), statistics.median(measured)


def run_worker(workdir: Path, spec: dict) -> dict:
    (workdir / "inputs.json").write_text(json.dumps(spec))
    proc = subprocess.run([sys.executable, str(BENCH / "worker.py"), str(workdir)],
                          cwd=ROOT, timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    out = json.loads((workdir / "outputs.json").read_text())
    attach_texts(out["units"], (workdir / "outputs.bin").read_bytes())
    return out


def attach_texts(done, blob: bytes) -> None:
    """Replace each record's [offset, length] into the outputs by the text."""
    for unit in done:
        for rec in unit:
            if rec["text"] is not None:
                start, length = rec["text"]
                rec["text"] = blob[start:start + length].decode()


def check_units(wl, done):
    """(attempted calls, failed calls, problems, checked outputs by argv).

    The output kept for an argv is checked against the model; every other
    output of that argv must have the same digest."""
    calls = [(argv, expect, rec)
             for index, records in enumerate(done)
             for argv, expect, rec in zip(wl.units[index % len(wl.units)],
                                          wl.expect[index % len(wl.units)], records)]
    texts = {"\0".join(argv): rec for argv, _, rec in calls if rec["text"] is not None}
    failed = 0
    problems = []
    for argv, expect, rec in calls:
        if rec["text"] is None:
            kept = texts.get("\0".join(argv))
            found = [] if kept and kept["sha"] == rec["sha"] else [
                "output differs from the same request's checked output"]
        else:
            try:
                found = expect(rec["code"], rec["text"])
            except (ValueError, TypeError, KeyError, IndexError, AttributeError) as exc:
                found = [f"unreadable output: {exc!r}"]
        if found:
            failed += 1
            problems.append(f"{' '.join(argv)[:120]}: {found[0]}")
    return len(calls), failed, problems, {k: rec["text"] for k, rec in texts.items()}


def scale_to_nominal(done, samples):
    """Add each call's duration and time to first byte at nominal speed.

    An interval is scaled by the mean of nominal / probe time over the
    speed samples taken in it or within PROBE_WINDOW_S of it."""
    times = [t for t, _ in samples]

    def factor(start, end):
        lo = bisect.bisect_left(times, start - PROBE_WINDOW_S)
        hi = bisect.bisect_right(times, end + PROBE_WINDOW_S)
        near = samples[lo:hi] or samples[max(lo - 1, 0):lo + 1]
        return statistics.fmean(PROBE_NOMINAL_S / p for _, p in near)

    for unit in done:
        for c in unit:
            c["nominal_s"] = c["seconds"] * factor(c["at"], c["at"] + c["seconds"])
            c["nominal_first_s"] = c["first_s"] * factor(c["at"], c["at"] + c["first_s"])


def end_to_end(name, wl, done, texts, scaled=True):
    """The end-to-end metrics of one untraced run (see NAMES)."""
    took, first = ("nominal_s", "nominal_first_s") if scaled else ("seconds", "first_s")
    durations = [sum(c[took] for c in unit) for unit in done]
    if name == "orbit-dump":
        ops = len(done) * sum(workloads.orbit_records(texts["\0".join(argv)])
                              for argv in wl.units[0])
    else:
        ops = sum(wl.ops[:len(done)])
    return {
        "ops_per_s": ops / sum(durations),
        "p50_ms": statistics.median(durations) * 1000,
        "tail_ms": percentile(durations, TAIL[name]) * 1000,
        "first_output_ms": statistics.median(u[0][first] for u in done) * 1000,
    }


def run_workload(name, seed, seconds, trace):
    """One workload in its own worker: (attempted, failed, metrics, report lines)."""
    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"{name}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir()
    spans_path = WORK / f"spans-{name}.tsv"
    try:
        wl = workloads.generate(name, seed, workloads.pool_size(name, seconds, trace),
                                str(workdir))
        for path, text in wl.files.items():
            Path(path).write_text(text)
        spec = {"units": wl.units, "seconds": seconds, "trace": trace,
                "min_units": workloads.MIN_UNITS[name], "spans_path": str(spans_path)}
        setup = None if trace else measure_setup()
        out = run_worker(workdir, spec)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    done = out["units"]
    attempted, failed, problems, texts = check_units(wl, done)
    scale_to_nominal(done, out["samples"])
    lines = [f"{name}: units={len(done)} calls={attempted} failed={failed} "
             f"failed_ratio={failed / attempted:.4f} peak_rss_mb={out['peak_rss_mb']:.1f}"]
    lines += [f"  problem: {p}" for p in problems[:5]]
    if trace:
        metrics = out["layers"]
        half = len(done) // 2
        untraced = sum(c["nominal_s"] for u in done[:half] for c in u)
        traced = sum(c["nominal_s"] for u in done[half:] for c in u)
        # Self times at nominal speed: scaled by the traced pass's mean factor.
        scale = traced / sum(c["seconds"] for u in done[half:] for c in u)
        for key in metrics:
            if key.endswith(".self_s"):
                metrics[key] *= scale
        metrics["trace.units"] = half
        metrics["trace.overhead_ratio"] = traced / untraced
        lines.append(f"  spans written to {spans_path}")
        lines += [f"  {key:48s} {metrics[key]:.6g}" for key in sorted(metrics)]
        return attempted, failed, metrics, lines
    metrics = end_to_end(name, wl, done, texts)
    raw = end_to_end(name, wl, done, texts, scaled=False)
    metrics["peak_rss_mb"] = out["peak_rss_mb"]
    metrics["setup_s"], raw["setup_s"] = setup
    lines.append(f"  {'metric':26s} {'nominal':>12s} {'measured':>12s} unit")
    for key, value in metrics.items():
        label, unit = NAMES[name].get(key, (key, UNITS[key]))
        lines.append(f"  {label:26s} {value:12.4f} {raw.get(key, value):12.4f} {unit}")
    lines.append(f"  {'failed_ratio':26s} {failed / attempted:12.4f} {'':12s} ratio")
    return attempted, failed, metrics, lines


def commit() -> str:
    """HEAD of the checkout's git repository, when there is one."""
    git = ROOT / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        ref = ref[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def layer_unit(key: str) -> str:
    if key.endswith(".self_s"):
        return "s"
    if key.endswith("ratio"):
        return "ratio"
    if key.endswith("bytes"):
        return "bytes"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "b2weyl" / "cli.py").is_file():
        print(f"error: no b2weyl sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.self_test:
        import selftest
        return selftest.main()
    if args.workload is None:
        parser.error("--workload is required")
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    print(f"# python={platform.python_version()} nproc={os.cpu_count()} "
          f"commit={commit()} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    total_attempted = total_failed = 0
    result = {}
    try:
        for name in names:
            attempted, failed, metrics, lines = run_workload(
                name, args.seed, args.seconds, bool(args.trace))
            print("\n".join("# " + line for line in lines))
            total_attempted += attempted
            total_failed += failed
            prefix = f"{name}." if len(names) > 1 else ""
            for key, value in metrics.items():
                unit = layer_unit(key) if args.trace else UNITS[key]
                result[prefix + key] = {"value": value, "unit": unit}
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": total_failed == 0, "attempted": total_attempted,
                      "failed": total_failed, "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
