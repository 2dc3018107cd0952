#!/usr/bin/env python3
"""fdlink campaign benchmark.

Usage, from the root of a source checkout (fdlink is imported from ./src):

    python3 perfbench/bench.py --workload wifi20-full --seed 1 \
        --seconds 35 --trace 0

Each workload is a scenario JSON written from the seed and run through the
public entry point, ``fdlink.cli.main(["sweep", ...])``. With ``--trace 0``
the campaign is repeated until ``--seconds`` is used up and the end-to-end
metrics are printed; with ``--trace 1`` two untraced campaigns and one
traced serial campaign give the per-layer metrics. The last stdout line is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it holds the machine fingerprint and the raw
samples. The exit code is 0 only when every output check passed. See
perfbench/README.md for what each metric means and which layer should move
it.

The benchmark sets no BLAS thread variable: ``workers > 1`` campaigns run
with whatever the environment gives them, so BLAS oversubscription in the
worker pool is measured, not hidden.
"""

import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from tracer import Tracer, layer_totals, self_times, END, FRAME, NAME, START

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

NPROC = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
    else (os.cpu_count() or 1)
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
POWERS = (20.0, 30.0, 40.0)
OPERATING_DBM = 40.0       # the power at which criteria 3 and 4 are judged
SETUP_REPEATS = 7


def _power(p, **extra):
    return {"p_b_dbm": p, "p_m2_dbm": p, **extra}


# Why these workloads (see README.md for the full metric map):
# - wifi20-full runs every layer once per ~100 ms frame; about half of it is
#   the digital canceller. It is the only workload with rate metrics. It runs
#   serially because with workers=2 its throughput swings 0.4-8 frames/s from
#   one campaign to the next (BLAS oversubscription), wider than any bound.
#   Its traced run times a short pool_probe campaign at workers=nproc, so the
#   pool's scaling still shows in simulator.monte_carlo.scaling_eff.
# - lte20-digital spends ~87% of a 3.6 s frame and all of its 0.9 GB peak in
#   the digital canceller; orchestration is negligible.
# - wifi20-analog-taps runs ~12 ms frames that never reach the digital
#   canceller, as many tiny pool tasks: dispatch, CSV writing, solve_dl and
#   the TX/channel kernels. Its timed campaigns hold one run per point: the
#   pool's slow and fast phases last as long as the pool, so only many short
#   campaigns average them within one run. Its physics comes from one
#   untimed campaign of `runs` runs per point.
WORKLOADS = {
    "wifi20-full": dict(
        preset="wifi20", stages="full", runs=40, workers=1,
        pool_probe=dict(runs=4, workers=NPROC),
        sweep=[_power(p) for p in POWERS],
        physics=dict(total_supp_db="own", digital_supp_db="own",
                     fd_hd_ratio="own", p_saturation="census")),
    "lte20-digital": dict(
        preset="lte20", stages="digital", runs=3, workers=1,
        sweep=[_power(OPERATING_DBM)],
        physics=dict(total_supp_db="own", digital_supp_db="own",
                     fd_hd_ratio="reference", p_saturation="census")),
    "wifi20-analog-taps": dict(
        preset="wifi20", stages="analog", runs=10, timed_runs=1,
        workers=NPROC,
        sweep=[_power(p, n_taps=t, greedy_taps=g)
               for t in (16, 32, 48) for g in (False, True) for p in POWERS],
        physics=dict(total_supp_db="reference", digital_supp_db="reference",
                     fd_hd_ratio="reference", p_saturation="own")),
}

# Physics a workload's own campaign cannot give comes from one of these
# untimed, untraced serial campaigns, seeded the same way: "reference" where
# the workload has no rates or no digital stage, "census" where it has too
# few runs to estimate a saturation probability (the flag is computed before
# the digital stage, so the analog stage gives the same flag per run).
SOURCES = {
    "reference": dict(preset="wifi20", stages="full", runs=20,
                      sweep=[_power(OPERATING_DBM)]),
    "census": dict(preset="wifi20", stages="analog", runs=100,
                   sweep=[_power(p) for p in POWERS]),
}

PHYSICS = {   # name -> (unit, better)
    "total_supp_db": ("dB", "higher"),
    "digital_supp_db": ("dB", "higher"),
    "fd_hd_ratio": ("ratio", "higher"),
    "p_saturation": ("ratio", "lower"),
}
END_TO_END = {
    "frames_per_s": ("frames/s", "higher"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "completed_frac": ("ratio", "higher"),
    **PHYSICS,
}

# Layers timed in the traced run: (module, function). Every one except the
# numerics pair is wrapped where run_frame looks it up, in fdlink.simulator.
FRAME_LAYERS = [
    ("config_units", "complex_normal"),
    ("channel", "gen_rician_si"), ("channel", "gen_rayleigh"),
    ("channel", "estimate_with_mse"), ("channel", "to_freq"),
    ("channel", "apply_channel"),
    ("analog_canceller", "build_canceller"),
    ("analog_canceller", "quantize_taps"),
    ("beamforming", "solve_dl"), ("beamforming", "ul_precoder"),
    ("beamforming", "ul_combiner"), ("beamforming", "rate_bits"),
    ("impairments", "derive_gain_matrices"), ("impairments", "tx_chain"),
    ("impairments", "adc_full_scale"), ("impairments", "adc_quantize"),
    ("waveform", "draw_symbols"), ("waveform", "ofdm_modulate"),
    ("waveform", "ofdm_demodulate"), ("waveform", "frame_power"),
    ("digital_canceller", "build_design_matrix"),
    ("digital_canceller", "tsvd_estimate"),
    ("digital_canceller", "cancel_signal"),
    ("simulator", "run_frame"), ("simulator", "compute_psd"),
    ("numerics", "svd"), ("numerics", "eig_general"),
]
# Campaign-level layers, wrapped where the CLI looks them up.
CLI_LAYERS = [("simulator", "monte_carlo"),
              ("simulator", "write_scenario_outputs")]

PER_LAYER_EXTRA = {   # name -> (unit, better)
    "simulator.monte_carlo.self_ms_per_frame": ("ms/frame", "lower"),
    "simulator.write_scenario_outputs.bytes": ("bytes", "lower"),
    "digital_canceller.build_design_matrix.bytes_per_frame": (
        "bytes/frame", "lower"),
    "numerics.svd.gflop_per_frame": ("GFLOP/frame", "lower"),
    "beamforming.solve_dl.tries_per_frame": ("tries/frame", "lower"),
    "beamforming.solve_dl.accept_ratio": ("ratio", "higher"),
    "simulator.monte_carlo.cpu_s_per_frame": ("s/frame", "lower"),
    "simulator.monte_carlo.scaling_eff": ("ratio", "higher"),
    "trace.frame_ms": ("ms/frame", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
}


def per_layer_specs():
    """{metric name: (unit, better)} for every per-layer metric, in order."""
    out = {}
    for module, func in FRAME_LAYERS + CLI_LAYERS[1:]:
        out[f"{module}.{func}.calls_per_frame"] = ("calls/frame", "lower")
        out[f"{module}.{func}.self_ms_per_frame"] = ("ms/frame", "lower")
    out.update(PER_LAYER_EXTRA)
    return out


# ---------------------------------------------------------------------------
# environment

def import_fdlink():
    """Import fdlink from this checkout's src/, never from anywhere else."""
    if not (SRC / "fdlink" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no fdlink sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import fdlink
    import fdlink.cli
    if Path(fdlink.__file__).resolve().parent != (SRC / "fdlink").resolve():
        raise SystemExit(f"benchmark: imported fdlink from {fdlink.__file__}")
    return fdlink


def fingerprint(seed):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_id = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_id = "unknown"
    try:   # only this checkout's own commit, not that of a parent directory
        top, commit = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, timeout=10).stdout.split()
        if Path(top).resolve() != ROOT:
            commit = None
    except (OSError, subprocess.SubprocessError, ValueError):
        commit = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "fdlink").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": NPROC, "machine": platform.machine(),
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": blas_id,
        "blas_thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "fdlink_commit": commit, "fdlink_src_sha256": digest.hexdigest(),
        "seed": seed,
    }


def cpu_seconds():
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb():
    """Largest resident set of this process or any reaped child (Linux: KiB)."""
    return max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024.0


# ---------------------------------------------------------------------------
# campaigns

def scenario(shape, name, seed, runs=None):
    from fdlink.config_units import preset
    return {"name": name, "config": preset(shape["preset"]).to_dict(),
            "sweep": shape["sweep"], "runs": runs or shape["runs"],
            "seed": seed, "stages": shape["stages"]}


def write_scenario(scn, path):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(scn, indent=1))
    return path


def time_setup(spec_path):
    """Wall time of a fresh interpreter importing fdlink and validating the
    scenario, i.e. everything before monte_carlo starts."""
    code = ("import json, sys\n"
            "import fdlink.cli\n"
            "from fdlink.simulator import ScenarioSpec\n"
            "with open(sys.argv[1]) as f:\n"
            "    ScenarioSpec.from_dict(json.load(f))\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", code, str(spec_path)], env=env,
                   check=True, timeout=120, stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


class Campaign:
    """One `fdlink sweep` call: return code, wall time and its CSV bytes."""

    def __init__(self, cli, spec_path, out_dir, workers, attempted):
        self.attempted = attempted
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):   # per-point summary
            self.rc = cli.main(["sweep", "--spec", str(spec_path),
                                "--out", str(out_dir),
                                "--workers", str(workers)])
        self.wall = time.perf_counter() - t0
        self.outputs = {p.name: p.read_bytes()
                        for p in sorted(Path(out_dir).glob("*.csv"))}
        runs = self.outputs.get("runs.csv", b"")
        self.completed = max(runs.count(b"\n") - 1, 0)

    @property
    def failed(self):
        return self.attempted - self.completed

    def aggregates(self):
        """{(sweep point, metric): (mean, n)} from aggregates.csv."""
        text = self.outputs.get("aggregates.csv", b"").decode()
        return {(r["sweep_point"], r["metric"]): (float(r["mean"]), int(r["n"]))
                for r in csv.DictReader(io.StringIO(text))}


def mean_over(agg, metric, labels=None):
    """Run-weighted mean of a metric over sweep points (all when None)."""
    hits = [(m, n) for (label, name), (m, n) in agg.items()
            if name == metric and (labels is None or label in labels)]
    total = sum(n for _, n in hits)
    return sum(m * n for m, n in hits) / total if total else float("nan")


def physics(campaign, scn):
    from fdlink.simulator import ScenarioSpec
    spec = ScenarioSpec.from_dict(scn)
    at_op = {spec.point_label(p) for p in scn["sweep"]
             if p["p_b_dbm"] == OPERATING_DBM}
    agg = campaign.aggregates()
    return {
        "total_supp_db": mean_over(agg, "total_supp_db", at_op),
        "digital_supp_db": mean_over(agg, "digital_supp_db"),
        "fd_hd_ratio": (mean_over(agg, "fd_rate", at_op)
                        / mean_over(agg, "hd_rate", at_op)),
        "p_saturation": mean_over(agg, "p_saturation"),
    }


class Bench:
    """State of one benchmark invocation: workload, seed and scratch dir."""

    def __init__(self, fdlink, workload, seed, work, runs=None):
        self.cli = fdlink.cli
        self.workload = workload
        self.shape = WORKLOADS[workload]
        self.seed = seed
        self.work = work
        self.scn = scenario(self.shape, workload, seed, runs)
        self.spec_path = write_scenario(self.scn, work / "scenario.json")
        self.timed_scn, self.timed_path = self.scn, self.spec_path
        if runs is None and "timed_runs" in self.shape:
            self.timed_scn = scenario(self.shape, workload, seed,
                                      self.shape["timed_runs"])
            self.timed_path = write_scenario(self.timed_scn,
                                             work / "timed.json")
        self.campaigns = []
        self.problems = []

    def campaign(self, workers, scn=None, spec_path=None):
        scn, spec_path = (scn, spec_path) if scn else (self.scn, self.spec_path)
        out = self.work / f"campaign{len(self.campaigns)}"
        c = Campaign(self.cli, spec_path, out, workers,
                     len(scn["sweep"]) * scn["runs"])
        shutil.rmtree(out, ignore_errors=True)
        self.campaigns.append(c)
        if c.rc != 0:
            self.problems.append(f"fdlink sweep exited {c.rc}")
        return c

    def check_same_bytes(self, first, other, what):
        if other.outputs != first.outputs:
            self.problems.append(f"{what} wrote different CSV bytes")

    def result(self, metrics):
        for name, (value, _) in metrics.items():
            if not math.isfinite(value):
                self.problems.append(f"{name} is not finite")
        return {
            "correct": not self.problems,
            "attempted": sum(c.attempted for c in self.campaigns),
            "failed": sum(c.failed for c in self.campaigns),
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in metrics.items()},
        }

    # -- untraced run: end-to-end metrics ------------------------------------

    def measure(self, seconds):
        setup = [time_setup(self.timed_path) for _ in range(SETUP_REPEATS)]
        start = time.perf_counter()
        while True:
            c = self.campaign(self.shape["workers"], self.timed_scn,
                              self.timed_path)
            if c.rc != 0:
                break
            elapsed = time.perf_counter() - start
            if len(self.campaigns) >= 2 and elapsed + c.wall > seconds:
                break
        timed = list(self.campaigns)
        rss = peak_rss_mb()
        for c in timed[1:]:
            self.check_same_bytes(timed[0], c, "a repeat at the same seed")

        values = {}
        sources = self.shape["physics"]
        for source in dict.fromkeys(sources.values()):
            if source == "own":
                scn = self.scn
                c = timed[0] if self.timed_scn is scn else self.campaign(1)
            else:
                scn = scenario(SOURCES[source], source, self.seed)
                c = self.campaign(1, scn, write_scenario(
                    scn, self.work / f"{source}.json"))
            got = physics(c, scn)
            values.update({k: got[k] for k, src in sources.items()
                           if src == source})
        attempted = sum(c.attempted for c in timed)
        metrics = {
            "frames_per_s": attempted / sum(c.wall for c in timed),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": rss,
            "completed_frac": sum(c.completed for c in timed) / attempted,
        }
        metrics.update(values)
        details = {"campaign_wall_s": [c.wall for c in timed],
                   "campaign_frames": [c.attempted for c in timed],
                   "setup_samples_s": setup}
        return self.result({k: (v, END_TO_END[k][0])
                            for k, v in metrics.items()}), details

    # -- traced run: per-layer metrics ---------------------------------------

    def measure_traced(self, fdlink):
        pool = self.shape.get("pool_probe")
        if pool:
            scn = scenario(self.shape, self.workload, self.seed,
                           min(pool["runs"], self.scn["runs"]))
            workers = pool["workers"]
            probe = (scn, write_scenario(scn, self.work / "pool.json"))
        else:
            workers, probe = self.shape["workers"], ()
        cpu0 = cpu_seconds()
        untraced = self.campaign(workers, *probe)
        cpu_per_frame = (cpu_seconds() - cpu0) / untraced.attempted
        # A second, warm serial campaign is the base for the tracing overhead:
        # the first campaign in a process also pays for cold caches.
        serial = self.campaign(1)
        tracer = Tracer()
        with tracer.installed(layer_targets(fdlink)):
            traced = self.campaign(1)
        if not tracer.restored():
            self.problems.append("a wrapped attribute was not restored")
        if not pool:
            self.check_same_bytes(untraced, serial, "the serial campaign")
        self.check_same_bytes(serial, traced, "the traced campaign")

        frames = tracer.frames
        if frames != traced.attempted:
            self.problems.append(f"traced {frames} frames of "
                                 f"{traced.attempted} attempted")
        frames = max(frames, 1)
        spans = tracer.spans
        frame_wall = sum(s[END] - s[START] for s in spans
                         if s[NAME] == "simulator.run_frame")
        in_frame_self = sum(own for s, own in zip(spans, self_times(spans))
                            if s[FRAME] > 0)
        if abs(in_frame_self - frame_wall) > 1e-9 * max(frame_wall, 1.0):
            self.problems.append("layer self times do not add up to the "
                                 "frame wall time")

        totals = layer_totals(spans)
        metrics = {}
        for module, func in FRAME_LAYERS + CLI_LAYERS[1:]:
            calls, own = totals.get(f"{module}.{func}", (0, 0.0))
            metrics[f"{module}.{func}.calls_per_frame"] = calls / frames
            metrics[f"{module}.{func}.self_ms_per_frame"] = 1e3 * own / frames
        cnt = tracer.counters
        tries = cnt.get("beamforming.solve_dl.tries", 0.0)
        untraced_fps = untraced.attempted / untraced.wall
        traced_fps = traced.attempted / traced.wall
        metrics.update({
            "simulator.monte_carlo.self_ms_per_frame":
                1e3 * totals.get("simulator.monte_carlo", (0, 0.0))[1] / frames,
            "simulator.write_scenario_outputs.bytes":
                cnt.get("simulator.write_scenario_outputs.bytes", 0.0),
            "digital_canceller.build_design_matrix.bytes_per_frame":
                cnt.get("digital_canceller.build_design_matrix.bytes", 0.0)
                / frames,
            "numerics.svd.gflop_per_frame":
                cnt.get("numerics.svd.flop", 0.0) / 1e9 / frames,
            "beamforming.solve_dl.tries_per_frame": tries / frames,
            "beamforming.solve_dl.accept_ratio":
                cnt.get("beamforming.solve_dl.accepted", 0.0) / tries
                if tries else 0.0,
            "simulator.monte_carlo.cpu_s_per_frame": cpu_per_frame,
            "simulator.monte_carlo.scaling_eff":
                untraced_fps / (workers * traced_fps),
            "trace.frame_ms": 1e3 * frame_wall / frames,
            "trace.overhead_frac": traced.wall / serial.wall - 1.0,
        })
        specs = per_layer_specs()
        spans_path = OUT / f"spans-{self.workload}-seed{self.seed}.json"
        spans_path.write_text(json.dumps(
            {"fields": ["name", "start", "end", "parent", "frame"],
             "spans": spans}))
        details = {"untraced_wall_s": untraced.wall,
                   "serial_wall_s": serial.wall, "traced_wall_s": traced.wall,
                   "spans_file": str(spans_path.relative_to(ROOT))}
        return self.result({k: (v, specs[k][0])
                            for k, v in metrics.items()}), details


# ---------------------------------------------------------------------------
# trace hooks: counters computed from call arguments and results

def _svd_flop(tracer, args, kwargs, result):
    """Golub-Van Loan R-SVD count, 6 m n^2 + 20 n^3 real flops per matrix
    (m >= n), times 4 for complex input; computed from shapes, not measured."""
    a = args[0] if args else kwargs["a"]
    shape = np.shape(a)
    m, n = max(shape[-2:]), min(shape[-2:])
    batch = math.prod(shape[:-2])
    scale = 4 if np.iscomplexobj(a) else 1
    tracer.count("numerics.svd.flop",
                 batch * scale * (6 * m * n * n + 20 * n ** 3))


def _solve_dl_tries(tracer, args, kwargs, result):
    """Stream counts tried: candidates run from alpha_max down to the
    returned alpha; a feasible return is the one accepted try."""
    h_si_eff_f, h_dl_f = args[0], args[1]
    alpha_max = min(h_dl_f.shape[1], h_si_eff_f.shape[2])
    cap = kwargs.get("alpha_cap", args[9] if len(args) > 9 else None)
    if cap is not None:
        alpha_max = min(alpha_max, cap)
    tracer.count("beamforming.solve_dl.tries", alpha_max - result.alpha + 1)
    tracer.count("beamforming.solve_dl.accepted", float(result.feasible))


def _design_bytes(tracer, args, kwargs, result):
    tracer.count("digital_canceller.build_design_matrix.bytes", result.nbytes)


def _output_bytes(tracer, args, kwargs, result):
    tracer.count("simulator.write_scenario_outputs.bytes",
                 sum(os.path.getsize(p) for p in result))


HOOKS = {
    "numerics.svd": _svd_flop,
    "beamforming.solve_dl": _solve_dl_tries,
    "digital_canceller.build_design_matrix": _design_bytes,
    "simulator.write_scenario_outputs": _output_bytes,
}


def layer_targets(fdlink):
    """(owner, attribute, span name, hook, frame_root) for Tracer.installed."""
    import fdlink.numerics
    import fdlink.simulator
    targets = []
    for module, func in FRAME_LAYERS:
        owner = fdlink.numerics if module == "numerics" else fdlink.simulator
        name = f"{module}.{func}"
        targets.append((owner, func, name, HOOKS.get(name),
                        name == "simulator.run_frame"))
    for module, func in CLI_LAYERS:
        name = f"{module}.{func}"
        targets.append((fdlink.cli, func, name, HOOKS.get(name), False))
    return targets


# ---------------------------------------------------------------------------

def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    fdlink = import_fdlink()
    OUT.mkdir(exist_ok=True)
    work = OUT / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    try:
        bench = Bench(fdlink, args.workload, args.seed, work)
        if args.trace:
            result, details = bench.measure_traced(fdlink)
        else:
            result, details = bench.measure(args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"workload": args.workload, "trace": args.trace,
                      "fingerprint": fingerprint(args.seed),
                      "problems": bench.problems, **details}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
