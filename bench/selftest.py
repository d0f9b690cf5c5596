"""Oracle self-test: corrupted outputs must count as failed requests.

    python3 bench/run.py --self-test

Runs smoke-sized orbit-dump and cascade-replay units in-process, checks
that the untouched outputs pass, then corrupts one orbit coefficient,
drops one orbit record and alters one cascade total.  Each corruption
must raise the failed count above zero, so that a zero in a real run is
not vacuous.
"""

from __future__ import annotations

import io
import json
import os
import random
import shutil
import sys
from fractions import Fraction
from pathlib import Path

import run
import worker
import workloads


def _run(cli, wl):
    sink = io.BytesIO()
    done = worker.run_units(cli, wl.units, sink)
    run.attach_texts(done, sink.getvalue())
    return done


def _failed(wl, done):
    return run.check_units(wl, done)[1]


def _corrupt_coefficient(text):
    lines = text.splitlines(keepends=True)
    rec = json.loads(lines[5])
    rec["coeff"][0][0] += 4
    lines[5] = json.dumps(rec, separators=(",", ":")) + "\n"
    return "".join(lines)


def _drop_record(text):
    lines = text.splitlines(keepends=True)
    del lines[5]
    return "".join(lines)


def _alter_total(text):
    lines = text.splitlines(keepends=True)
    rec = json.loads(lines[-1])
    rec["total"][0] = str(Fraction(rec["total"][0]) + 1)
    lines[-1] = json.dumps(rec, separators=(",", ":")) + "\n"
    return "".join(lines)


def main() -> int:
    sys.path.insert(0, str(run.ROOT / "src"))
    from b2weyl import cli

    workdir = run.WORK / f"selftest-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        rng = random.Random("self-test")
        orbit = workloads.orbit_dump(rng, 1, str(workdir), json_depth=12, csv_depth=8)
        cascade = workloads.cascade_replay(rng, 6, str(workdir))
        for path, text in cascade.files.items():
            Path(path).write_text(text)
        orbit_done = _run(cli, orbit)
        cascade_done = _run(cli, cascade)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    # A physical scenario: its replay exits 0 and prints one record per move.
    physical = next(k for k, unit in enumerate(cascade_done) if unit[0]["code"] == 0)

    cases = [("untouched orbit outputs", orbit, orbit_done, None, None, False),
             ("untouched cascade outputs", cascade, cascade_done, None, None, False),
             ("one orbit coefficient corrupted", orbit, orbit_done, 0, _corrupt_coefficient, True),
             ("one orbit record dropped", orbit, orbit_done, 0, _drop_record, True),
             ("one cascade total altered", cascade, cascade_done, physical, _alter_total, True)]
    ok = True
    for label, wl, done, unit, mutate, should_fail in cases:
        if mutate is not None:
            done = [[dict(rec) for rec in u] for u in done]
            done[unit][0]["text"] = mutate(done[unit][0]["text"])
        failed = _failed(wl, done)
        passed = (failed > 0) == should_fail
        ok = ok and passed
        expect = "failed > 0" if should_fail else "failed = 0"
        print(f"{'PASS' if passed else 'FAIL'}  {label}: failed={failed} (expected {expect})")
    print(json.dumps({"self_test": "pass" if ok else "fail"}))
    return 0 if ok else 1
