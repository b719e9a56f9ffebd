#!/usr/bin/env python3
"""Benchmark of the whole SEA serving stack, end to end and layer by layer.

Run from the root of a source checkout (nothing needs installing; the
package is imported from ``src/``)::

    python3 perfbench/run.py --edge-rate 12 --workload solo-cold --seed 1 --trace 0
    python3 perfbench/run.py --edge-rate 12 --workload all            # every workload
    python3 perfbench/run.py --edge-rate 12 --workload all --trace 1  # per-layer breakdown
    python3 perfbench/run.py --edge-rate 12 --workload all --repeat 5 # steadiness report

``--edge-rate`` is the value BENCHMARK.json's command fixes; ``--seconds``
defaults to its ``run_seconds``.

Each workload runs in a fresh interpreter.  Before it, an untimed
preflight builds the ``cnative`` kernel into a cache inside the checkout
and fails if that backend is unavailable; ``SETUP_PROBES`` more fresh
interpreters, half before and half after the measured one, each time
one set-up (``setup_s`` is their median).
``--trace 1`` reports the per-layer metrics instead of the end-to-end
ones.  The last line of standard output is the JSON result.

End-to-end times are reported on a host-speed scale: each run times a
fixed reference task while the program is idle and divides its times by
how much slower than nominal the reference ran (``hostspeed.py``).  The
figures as measured are printed on the ``raw`` line of every run.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import pathlib
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Everything a run writes (kernel cache, journals, temp files) lives here.
RUN_DIR = ROOT / ".perfbench-run"

WORKLOADS = ("solo-cold", "service-wal", "edge-net")
SETUP_PROBES = 6
CHILD_TIMEOUT = 150

#: Per-layer metric -> the workload and end-to-end metric it should move.
#: Names and units of every metric come from BENCHMARK.json; a traced run
#: reports every per-layer metric, and one a workload does not reach in
#: this process reads 0.
MOVES = {
    "core.solve_ms_p50": "solo-cold throughput_rps, latency_p50_ms",
    "core.sweeps_per_solve": "solo-cold throughput_rps; service-wal latency_p50_ms via warm starts",
    "core.share": "solo-cold throughput_rps",
    "equilibration.calls_per_req": "solo-cold throughput_rps",
    "equilibration.us_per_call": "solo-cold throughput_rps",
    "equilibration.share": "solo-cold throughput_rps; service-wal scaled by it; not edge-net",
    "equilibration.sort_reuse_rate": "service-wal latency_p50_ms",
    "equilibration.rows_skipped_share": "service-wal latency_p50_ms",
    "service.self_ms_p50": "service-wal latency_p50_ms",
    "service.share": "service-wal latency_p50_ms",
    "service.retries": "failure count (any workload)",
    "service.errors": "failure count (any workload)",
    "cache.hit_rate": "service-wal, edge-net latency_p50_ms",
    "cache.lookup_us": "service-wal latency_p50_ms (remote on edge-net)",
    "cache.share": "service-wal latency_p50_ms",
    "journal.derive_id_ms_per_req": "service-wal throughput_rps; edge-net latency_p50_ms",
    "journal.append_ms_per_req": "service-wal throughput_rps, latency_p50_ms",
    "journal.sync_ms_per_req": "service-wal throughput_rps, latency_p50_ms",
    "journal.bytes_per_req": "service-wal throughput_rps; edge-net via shipping",
    "journal.share": "service-wal throughput_rps; none on solo-cold",
    "wire.decode_us_per_req": "edge-net latency_p50_ms",
    "wire.encode_us_per_req": "edge-net latency_p50_ms",
    "wire.bytes_per_req": "edge-net latency_p50_ms",
    "wire.share": "edge-net latency_p50_ms",
    "edge.self_ms_p50": "edge-net latency_p50_ms, latency_p90_ms",
    "edge.share": "edge-net latency_p50_ms",
    "edge.gen_late_ms_p90": "run validity (edge-net generator lateness)",
    "edge.errors": "failure count (edge-net)",
    "cluster.route_us_per_req": "edge-net latency_p50_ms",
    "cluster.drain_ms_p50": "edge-net latency_p50_ms",
    "cluster.share": "edge-net latency_p50_ms",
    "net.roundtrip_ms_p50": "edge-net latency_p50_ms, latency_p90_ms "
                            "(round trips that returned answers)",
    "net.replica_append_ms_per_req": "edge-net latency_p50_ms, latency_p90_ms",
    "net.shipped_records_per_req": "edge-net (exact count)",
    "net.reconnects": "failure count (edge-net)",
    "net.share": "edge-net latency_p50_ms",
    "trace.coverage": "trace validity: layer self time over request wall, "
                      "p50 (near 1 by construction, residual included)",
    "trace.attributed_share": "trace validity: coverage without the residual; "
                              "a missing span lowers it",
    "trace.residual_ms_p50": "trace validity: time no inner span names "
                             "(edge remainder; outermost span's self time)",
    "trace.overhead_pct": "trace cost: throughput (closed loops) or p50 (edge-net), traced vs untraced",
}


def load_spec() -> tuple[dict, dict, int]:
    """``({end-to-end metric: unit}, {per-layer metric: unit},
    run_seconds)`` as BENCHMARK.json at the checkout root defines them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e, per_layer = ({m["name"]: m["unit"] for m in spec[key]}
                      for key in ("end_to_end", "per_layer"))
    return e2e, per_layer, spec["run_seconds"]


#: The layers each workload was chosen to load: in a traced run their
#: summed self-time share must exceed every other layer's.
CHOSEN = {
    "solo-cold": ("equilibration", "core"),
    "service-wal": ("journal",),
    "edge-net": ("edge", "wire", "cluster", "net"),
}


def chosen_check(name: str, layers: dict) -> str:
    """The ``edge`` layer is left out: it is the open loop's residual
    (client round trip minus the router's spans), so counting it would
    make the edge-net check hold whatever the spans measure."""
    shares = {key[:-len(".share")]: value for key, value in layers.items()
              if key.endswith(".share") and key != "edge.share"}
    chosen = sum(shares.get(layer, 0.0) for layer in CHOSEN[name])
    others = {k: v for k, v in shares.items() if k not in CHOSEN[name]}
    top = max(others, key=others.get, default="none")
    top_share = others.get(top, 0.0)
    verdict = "holds" if chosen > top_share else "DOES NOT HOLD"
    return (f"  chosen layers {'+'.join(CHOSEN[name])} share {chosen:.3f} "
            f"(edge residual left out) vs largest other {top} "
            f"{top_share:.3f}: {verdict}")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    env["REPRO_KERNEL_BACKEND"] = "cnative"
    env["REPRO_CNATIVE_CACHE"] = str(RUN_DIR / "cnative")
    env["TMPDIR"] = str(RUN_DIR / "tmp")
    # Fixed string hashing: dict and set layouts repeat from run to run.
    env["PYTHONHASHSEED"] = "0"
    return env


def _child(args, extra: list[str]) -> dict:
    """Run this script as a fresh-interpreter child; its last stdout line
    is its JSON result."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--edge-rate", str(args.edge_rate),
           *extra]
    # Own process group: a child that overruns is killed together with
    # any shard server it started.
    proc = subprocess.Popen(cmd, env=child_env(), stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(extra)} child for {args.workload} "
                           f"failed with exit code {proc.returncode}")
    return json.loads(lines[-1])


# -- children (fresh interpreters) ---------------------------------------------------


def _run_child(args) -> dict:
    if args.child == "setup":
        with _scratch(args.workload) as tmp:
            t0 = time.perf_counter()  # before ``import repro``
            import workloads

            elapsed, slow = workloads.setup_seconds(
                args.workload, args.seed, args.edge_rate, tmp, t0)
            return {"setup_s": elapsed, "slowness": slow}
    import workloads

    if args.child == "preflight":
        from repro.equilibration.backends import get_backend

        get_backend(workloads.BACKEND)  # builds it, or raises why not
        return workloads.environment(args.seed)
    with _scratch(args.workload) as tmp:
        return workloads.measure(args.workload, args.seed, args.seconds,
                                 bool(args.trace), args.edge_rate, tmp)


@contextlib.contextmanager
def _scratch(name: str):
    """A per-run directory under RUN_DIR, removed (and the removal synced
    to disk) when the run is over, so one run's dirty pages never land
    on the next run's clock."""
    path = pathlib.Path(tempfile.mkdtemp(prefix=f"{name}-", dir=RUN_DIR))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        os.sync()


# -- one workload -----------------------------------------------------------------------


def run_workload(args) -> dict:
    """Preflight, set-up probes and the measured run of one workload."""
    env = _child(args, ["--child", "preflight"])

    def probe(count: int) -> list[dict]:
        return [_child(args, ["--child", "setup"]) for _ in range(count)]

    # Half the set-ups before the measured run and half after, so one
    # slow spell of the machine cannot set them all.
    setups = probe(SETUP_PROBES // 2)
    raw = _child(args, ["--child", "measure"])
    setups += probe(SETUP_PROBES - len(setups))
    raw["setup_s"] = statistics.median(p["setup_s"] / p["slowness"]
                                       for p in setups)
    raw["raw"]["setup_s"] = statistics.median(p["setup_s"] for p in setups)
    raw["setup_samples"] = len(setups)
    raw["env"] = env
    return raw


def result_line(raw: dict, units: dict, traced: bool) -> dict:
    """The contract's JSON object for one workload run: every metric of
    ``units`` (per-layer ones when traced, else end-to-end ones)."""
    if traced:
        unknown = set(raw["layers"]) - set(units)
        if unknown:
            raise RuntimeError(f"traced metrics missing from BENCHMARK.json: "
                               f"{sorted(unknown)}")
        metrics = {name: {"value": float(raw["layers"].get(name, 0.0)),
                          "unit": unit} for name, unit in units.items()}
    else:
        metrics = {name: {"value": float(raw[name]), "unit": unit}
                   for name, unit in units.items()}
    return {
        "correct": raw["failed"] == 0 and raw["attempted"] > 0,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": metrics,
    }


def describe(raw: dict, units: dict, traced: bool) -> list[str]:
    """Human-readable lines for one workload run."""
    name = raw["workload"]
    lines = [f"# env {json.dumps(raw['env'], sort_keys=True)}",
             f"{name}: attempted {raw['attempted']}, "
             f"succeeded {raw['attempted'] - raw['failed']}, "
             f"failed {raw['failed']}"]
    if traced:
        for metric, unit in units.items():
            value = raw["layers"].get(metric, 0.0)
            lines.append(f"  {metric:34s} {value:14.4f} {unit:6s} -> "
                         f"{MOVES.get(metric, '?')}")
        lines.append(f"  (traced: {raw['traced_samples']} requests; "
                     f"trace.coverage includes the residual of "
                     f"{raw['layers']['trace.residual_ms_p50']:.3f} ms p50, "
                     f"trace.attributed_share leaves it out)")
        lines.append(chosen_check(name, raw["layers"]))
        return lines
    for metric, unit in units.items():
        lines.append(f"  {metric:16s} {raw[metric]:12.4f} {unit}")
    lines.append(f"  percentiles from {raw['samples']} samples, "
                 f"{raw['beyond_p90']} beyond p90; setup_s is the median "
                 f"of {raw['setup_samples']} fresh-interpreter set-ups")
    lines.append(f"  raw (as measured; host slowness {raw['slowness']:.3f}): "
                 + ", ".join(f"{k} {v:.4f}" for k, v in raw["raw"].items()))
    if "gen_late_ms_p90" in raw:
        lines.append(f"  generator lateness p90 {raw['gen_late_ms_p90']:.3f} ms")
    if raw["samples"] < 100:
        lines.append("  WARNING: fewer than 100 samples; p90 is not trustworthy")
    return lines


def repeat_report(runs: dict, units: dict) -> list[str]:
    """Median and IQR/median of each end-to-end metric over repeats."""
    from stats import spread

    lines = []
    for name, raws in runs.items():
        lines.append(f"{name}: {len(raws)} runs")
        for metric, unit in units.items():
            sp = spread(r[metric] for r in raws)
            line = (f"  {metric:16s} median {sp['median']:12.4f} {unit:5s}"
                    f" IQR/median {sp['iqr_share']:.4f}")
            if metric in raws[0]["raw"]:
                line += (" (raw: %.4f)"
                         % spread(r["raw"][metric] for r in raws)["iqr_share"])
            lines.append(line)
        counts = sorted({r["samples"] for r in raws})
        lines.append(f"  samples per run {counts[0]}..{counts[-1]}, "
                     f"beyond p90 >= {min(r['beyond_p90'] for r in raws)}")
        late = [r["gen_late_ms_p90"] for r in raws if "gen_late_ms_p90" in r]
        if late:
            lines.append(f"  generator lateness p90 max {max(late):.3f} ms")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        help="measured time per run (default: run_seconds "
                             "of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--edge-rate", type=float, required=True,
                        help="edge-net offered rate, requests/s, as "
                             "BENCHMARK.json's command fixes it")
    parser.add_argument("--repeat", type=int, default=1,
                        help="runs per workload, each with seed+k; prints "
                             "median and IQR/median per metric")
    parser.add_argument("--child", choices=("preflight", "setup", "measure"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child is not None:
        print(json.dumps(_run_child(args)))
        return 0

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no package source at {SRC}; run from the root of a "
              "source checkout", file=sys.stderr)
        return 2
    e2e, per_layer, run_seconds = load_spec()
    if args.seconds is None:
        args.seconds = float(run_seconds)
    if (args.seed < 0 or args.seconds <= 0 or args.repeat < 1
            or args.edge_rate <= 0):
        parser.error("--seed must be >= 0, --seconds, --edge-rate > 0, "
                     "--repeat >= 1")
    (RUN_DIR / "tmp").mkdir(parents=True, exist_ok=True)
    units = per_layer if args.trace else e2e

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    runs: dict = {}
    try:
        for name in names:
            for k in range(args.repeat):
                sub = argparse.Namespace(**{**vars(args), "workload": name,
                                            "seed": args.seed + k})
                raw = run_workload(sub)
                runs.setdefault(name, []).append(raw)
                for line in describe(raw, units, bool(args.trace)):
                    print(line, flush=True)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if args.repeat > 1 and not args.trace:
        for line in repeat_report(runs, units):
            print(line)
    results = {name: [result_line(r, units, bool(args.trace)) for r in raws]
               for name, raws in runs.items()}
    if len(names) == 1 and args.repeat == 1:
        final = results[names[0]][0]
    else:
        final = {
            "correct": all(r["correct"] for rs in results.values() for r in rs),
            "attempted": sum(r["attempted"] for rs in results.values() for r in rs),
            "failed": sum(r["failed"] for rs in results.values() for r in rs),
            "metrics": {f"{name}/{metric}": value
                        for name, rs in results.items()
                        for metric, value in rs[-1]["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
