#!/usr/bin/env python3
"""Same-bytes check: the golden campaigns against their recorded sha256.

Usage, from the root of a source checkout (fdlink is imported from ./src):

    python3 tests/golden.py

Every scenario file in tests/data/golden/ runs through `fdlink sweep` at
`--workers` 1 and at `--workers` 2. The script prints each output file
whose bytes differ between the two, then "N of M match" for the sha256 of
the serial outputs against tests/data/golden/sha256.json, and each hash
that moved. The exit code is 0 only when every hash matches and serial
equals parallel on every scenario.

The recorded hashes hold for the machine, numpy and BLAS in the file's
fingerprint (perfbench/bench.py's fields); the script says when this
environment differs from it.
"""

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "data" / "golden"
RECORD = GOLDEN / "sha256.json"
WORKERS = (1, 2)
ENV_KEYS = ("machine", "numpy", "blas")     # the fingerprint fields that
                                            # decide the rounding


def fingerprint():
    sys.path.insert(0, str(ROOT / "perfbench"))
    from bench import fingerprint as bench_fingerprint
    fp = bench_fingerprint(None)
    del fp["seed"]
    return fp


def sweep(spec, out, workers):
    """Run one scenario file through the CLI; returns its exit code."""
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    return subprocess.run(
        [sys.executable, "-m", "fdlink", "sweep", "--spec", str(spec),
         "--out", str(out), "--workers", str(workers)],
        env=env, stdout=subprocess.DEVNULL).returncode


def digests(out):
    """{file name: sha256} of an output directory."""
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.glob("*")) if p.is_file()}


def main():
    ok = True
    serial = {}
    with tempfile.TemporaryDirectory() as tmp:
        for spec in sorted(p for p in GOLDEN.glob("*.json") if p != RECORD):
            runs = []
            for w in WORKERS:
                out = Path(tmp, spec.stem, f"workers{w}")
                code = sweep(spec, out, w)
                if code:
                    print(f"{spec.stem}: fdlink sweep --workers {w} "
                          f"exited {code}")
                    ok = False
                runs.append(digests(out))
            for name in sorted(set(runs[0]) | set(runs[1])):
                if runs[0].get(name) != runs[1].get(name):
                    print(f"serial != {WORKERS[1]} workers: "
                          f"{spec.stem}/{name}")
                    ok = False
            serial.update({f"{spec.stem}/{n}": h for n, h in runs[0].items()})

    fp = fingerprint()
    recorded = json.loads(RECORD.read_text())
    for key in ENV_KEYS:
        if fp[key] != recorded["fingerprint"][key]:
            print(f"environment differs from the recording: {key} "
                  f"{fp[key]!r}, recorded {recorded['fingerprint'][key]!r}")
    want = recorded["sha256"]
    print(f"{sum(serial.get(k) == h for k, h in want.items())} of "
          f"{len(want)} match")
    for name in sorted(set(want) | set(serial)):
        if serial.get(name) != want.get(name):
            print(f"moved: {name} {want.get(name)} -> {serial.get(name)}")
            ok = False
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
