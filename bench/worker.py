"""Benchmark worker: drives b2weyl.cli.main in a fresh interpreter.

    python3 bench/worker.py WORKDIR

Reads WORKDIR/inputs.json, runs its units one call at a time with stdout
captured in memory (a single client in a closed loop), and writes the
timings to WORKDIR/outputs.json and the outputs to WORKDIR/outputs.bin.
Untraced runs go until the time is up and at least ``min_units`` units
are done; traced runs replay each unit once untraced and once traced,
which gives the tracing overhead.  A timer samples the host's speed
throughout.
"""

from __future__ import annotations

import gc
import hashlib
import io
import json
import resource
import signal
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PROBE_INTERVAL_S = 0.02


class Capture(io.StringIO):
    """In-memory stdout that notes when its first byte arrives."""

    first = None

    def write(self, text):
        if self.first is None:
            self.first = time.perf_counter()
        return super().write(text)


def call(cli, argv):
    """One CLI request: (exit code, stdout, seconds, seconds to first byte)."""
    out = Capture()
    saved = sys.stdout
    sys.stdout = out
    start = time.perf_counter()
    try:
        code = cli.main(list(argv))
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # a crash is a failed request, not a failed benchmark
        code = "crash"
        out.write(traceback.format_exc())
    finally:
        end = time.perf_counter()
        sys.stdout = saved
    first = (out.first if out.first is not None else end) - start
    return code, out.getvalue(), end - start, first


def speed_probe() -> float:
    """Seconds taken by a fixed ~80 us piece of pure-Python tuple and
    integer work.

    It allocates as the engine does and runs cold, where the interrupted
    code left the caches, so it feels the same cache and memory contention
    as the engine.  (A warmed-up, compute-only probe tracked the engine's
    slowdowns far worse.)
    """
    start = time.perf_counter()
    t, s = (1, 2, 3), 0
    for i in range(100):
        t = tuple(x + i for x in t)
        s += t[0] * t[2]
    return time.perf_counter() - start


class SpeedSampler:
    """Runs speed_probe every PROBE_INTERVAL_S from a SIGALRM timer.

    The host's speed drifts by tens of percent within a second.  Samples
    taken on a timer, inside calls as well as between them, let the parent
    scale each call's duration to a nominal speed (run.scale_to_nominal)
    without a second thread or process.
    """

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []

    def _tick(self, signum, frame) -> None:
        self.samples.append((time.perf_counter(), speed_probe()))

    def __enter__(self) -> "SpeedSampler":
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def run_units(cli, units, sink, seconds=None, min_units=0, seen=None):
    """Run units in order.  The first time an argv is seen, its output is
    appended to the binary file ``sink`` and the record keeps its [offset,
    length]; later outputs of that argv are kept as digests only.  Outputs
    thus stay out of this interpreter's memory and its peak RSS.

    Garbage is collected between calls, outside the timed region, so that
    no request pays for the previous one's cycles, as with one process per
    request.
    """
    seen = set() if seen is None else seen
    done = []
    start = time.perf_counter()
    for unit in units:
        if (seconds is not None and len(done) >= min_units
                and time.perf_counter() - start >= seconds):
            break
        records = []
        for argv in unit:
            at = time.perf_counter()
            code, text, duration, first = call(cli, argv)
            data = text.encode()
            key = "\0".join(argv)
            ref = None
            if key not in seen:
                seen.add(key)
                ref = [sink.tell(), len(data)]
                sink.write(data)
            records.append({
                "code": code, "at": at, "seconds": duration, "first_s": first,
                "bytes": len(data), "sha": hashlib.sha256(data).hexdigest(), "text": ref})
            gc.collect()
        done.append(records)
    return done


def peak_rss_mb() -> float:
    """This interpreter's peak resident set size.

    VmHWM starts afresh at exec; ru_maxrss would carry over the peak of
    the parent that spawned the worker.
    """
    try:
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main(workdir: Path) -> None:
    spec = json.loads((workdir / "inputs.json").read_text())
    sys.path.insert(0, str(ROOT / "src"))
    from b2weyl import cli

    units = spec["units"]
    tracer = None
    if spec["trace"]:
        import tracing
        tracer = tracing.Tracer()
    # The interpreter's start-up objects never become garbage; keep the
    # collector from traversing them on every full collection.
    gc.freeze()
    result = {}
    sampler = SpeedSampler()
    with open(workdir / "outputs.bin", "wb") as sink, sampler:
        if tracer is None:
            result["units"] = run_units(cli, units, sink, spec["seconds"], spec["min_units"])
        else:
            # Each unit runs untraced and traced back to back, in alternating
            # order, so that both see the same host speed and cache warmth.
            seen: set = set()
            untraced, traced = [], []
            for index, unit in enumerate(units):
                tracer.request = index
                for traced_pass in ((False, True) if index % 2 else (True, False)):
                    if traced_pass:
                        tracer.install()
                    try:
                        records = run_units(cli, [unit], sink, seen=seen)
                    finally:
                        tracer.uninstall()
                    (traced if traced_pass else untraced).extend(records)
            result["units"] = untraced + traced
    if tracer is not None:
        layers = tracer.layer_metrics()
        layers["cli.stdout_bytes"] = sum(c["bytes"] for u in traced for c in u)
        result["layers"] = layers
        tracer.write_spans(spec["spans_path"])
    result["samples"] = sampler.samples
    result["peak_rss_mb"] = peak_rss_mb()
    (workdir / "outputs.json").write_text(json.dumps(result))


if __name__ == "__main__":
    main(Path(sys.argv[1]))
