#!/usr/bin/env python3
"""Benchmark of the essayscore pipeline: one command, three workloads.

    python3 bench/run.py --workload {embed,train,serve} --seed N \\
        --seconds S --trace {0,1} [--size {full,tiny}]

Run it from the root of a checkout: it imports the program from
``src/`` next to this directory, never from an installed copy. It sets
up its inputs from ``--seed`` and repeats the workload's op until
``--seconds`` of op time are measured, checking every op's outputs. It
sets up nine times, three times before the ops and six times spread
over them. The gated timings are calibrated to a nominal machine speed
by a reference loop timed between the units of work (see
``calibration.py``) and reported as medians. The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. The lines
before it print every metric by name with its unit, including the
workload's own named metrics. The full record (environment, artifact
digests, named metrics) is written under ``.bench_work/results/`` and,
with ``--trace 1``, the spans next to it.

Exit codes: 0 after a run (``correct`` says whether every check passed),
2 when the program cannot be imported or set up.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

# set-up runs SETUPS times, the first SETUPS_FIRST of them before the ops
# and the rest spread evenly over the op time; setup_s is their median
SETUPS, SETUPS_FIRST = 9, 3

# glibc's mallopt parameters, and the size from which arrays are mmapped
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD, MMAP_THRESHOLD = -1, -3, 4 << 20

# a run stops early once this many ops have failed
MAX_FAILED = 100

# Layer metrics taken from the set-up phase as well as from the ops:
# these calls happen only in set-up on some workloads (ingest everywhere,
# the model fixture's save and load on serve).
SETUP_LAYERS = ("corpus.ingest_s", "lstm.save_s", "lstm.load_s")

CLI_STAGES = ("train-embeddings", "train-scorer", "evaluate")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("embed", "train", "serve"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny is for the smoke test")
    return p.parse_args(argv)


def cap_blas_threads() -> int:
    """Run OpenBLAS on one thread, before numpy loads; return the cores.

    With one thread an op's speed depends on its own core alone, like
    the calibration reference's, and not on what other tenants run on
    the other cores.
    """
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    return len(os.sched_getaffinity(0))


def pin_mmap_threshold() -> bool:
    """Keep glibc serving arrays of 4 MiB and more by mmap; True if it does.

    By default glibc raises its mmap threshold to the largest block freed
    so far. After the first M-sized array (about 13 MB) is freed, later
    ones come from the heap, and whether the heap shrinks again depends
    on the order of frees, which Python's randomized string hashing
    changes from run to run: on the same input, peak RSS read 183 MB in
    some runs and 195 MB in others. With the threshold pinned, large
    arrays are unmapped when freed and peak RSS measures what was live.
    The trim threshold is set to twice the mmap threshold, as glibc sets
    it when it moves the threshold itself; left at its 128 KiB default,
    every freed block of a megabyte would go back to the system and be
    faulted in again on the next allocation.
    """
    import ctypes
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return False
    return bool(mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD)
                and mallopt(M_TRIM_THRESHOLD, 2 * MMAP_THRESHOLD))


def import_program():
    """Import essayscore from this checkout's src/, or exit 2."""
    if not (SRC / "essayscore" / "__init__.py").is_file():
        print(f"error: no program at {SRC}/essayscore", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import essayscore
    where = Path(essayscore.__file__).resolve()
    if SRC.resolve() not in where.parents:
        print(f"error: imported essayscore from {where}, not {SRC}",
              file=sys.stderr)
        sys.exit(2)
    return essayscore


# --- environment record ----------------------------------------------------

def blas_info() -> dict:
    """OpenBLAS version and live thread count, read from the loaded library."""
    import ctypes

    import numpy as np
    info = {"version": None, "threads": None}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["version"] = deps.get("version")
        info["name"] = deps.get("name")
    except (KeyError, TypeError, AttributeError):
        pass
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({ln.split()[-1] for ln in fh
                           if "openblas" in ln and ln.rstrip().endswith(".so")})
        for lib_path in libs:
            lib = ctypes.CDLL(lib_path)
            for sym in ("scipy_openblas_get_num_threads64_",
                        "scipy_openblas_get_num_threads",
                        "openblas_get_num_threads64_",
                        "openblas_get_num_threads"):
                fn = getattr(lib, sym, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    info["threads"] = int(fn())
                    break
            if info["threads"] is not None:
                break
    except OSError:
        pass
    return info


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def src_lines() -> int:
    return sum(len(p.read_bytes().splitlines()) for p in SRC.rglob("*.py"))


def environment(args, cores: int, pinned: bool) -> dict:
    import numpy
    import scipy
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_info(),
        "openblas_num_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": cores,
        "mmap_threshold_pinned": pinned,
        "machine": platform.machine(),
        "git_commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "src_lines": src_lines(),
    }


# --- the run ---------------------------------------------------------------

def run(args, wl_mod, tracer_mod, cal_mod, run_dir: Path):
    workload = wl_mod.WORKLOADS[args.workload](args.seed,
                                               wl_mod.SIZES[args.size])
    tracer = tracer_mod.Tracer() if args.trace else None
    cal = cal_mod.Calibration(workload.reference)

    def span_for(traced: bool):
        if traced:
            return tracer.span
        return lambda name: nullcontext()

    # Each set-up replaces the workspace the ops use. Set-ups spread over
    # the run give setup_s, like the op figures, the median of the whole
    # run rather than of its first seconds. Each set-up is calibrated by
    # reference blocks just before and after it.
    setups = []          # (start, end) of each set-up

    def set_up():
        k = len(setups)
        if k:
            wl_mod.clean(run_dir / f"setup-{k - 1}")
        ctx = tracer.installed(("setup", k)) if tracer else nullcontext()
        cal.mark()
        t0 = time.perf_counter()
        with ctx:
            workload.setup(run_dir / f"setup-{k}", span_for(bool(tracer)))
        setups.append((t0, time.perf_counter()))
        cal.mark()
        workload.prepare()

    for _ in range(SETUPS_FIRST):
        set_up()
    spread = SETUPS - SETUPS_FIRST

    # units of work until --seconds of op time; a traced run alternates
    # traced and untraced units, so it measures its own tracing overhead.
    # Checks run after each unit, outside the timing and the tracing; a
    # reference block runs before each unit and after the last.
    unit = workload.unit_ops
    min_units = 2 if tracer else 1
    results, traced_units = [], []
    measured = 0.0
    failed = 0
    u = 0
    while (measured < args.seconds or u < min_units) and failed < MAX_FAILED:
        traced = bool(tracer) and u % 2 == 0
        ctx = tracer.installed(("op", u)) if traced else nullcontext()
        batch = []
        cal.mark()
        with ctx:
            for k in range(u * unit, (u + 1) * unit):
                t0 = time.perf_counter()
                try:
                    res = workload.run_op(k, span_for(traced))
                except Exception as exc:  # counted as a failed op
                    res = wl_mod.OpResult(
                        seconds=time.perf_counter() - t0,
                        errors={"op": f"{type(exc).__name__}: {exc}"})
                res.start = t0
                batch.append(res)
        for res in batch:
            workload.check_op(res)
            measured += res.seconds
            failed += min(res.attempted, len(res.errors))
        results += batch
        if traced:
            traced_units.append(u)
        u += 1
        done = len(setups) - SETUPS_FIRST
        if done < spread and \
                measured >= args.seconds * (done + 1) / (spread + 1):
            set_up()
    cal.mark()
    while len(setups) < SETUPS:
        set_up()
    for res in results:
        res.scale = cal.scale(res.start, res.start + res.seconds)
    setup_times = [(end - start, cal.scale(start, end))
                   for start, end in setups]
    return workload, tracer, setup_times, results, traced_units, cal


def end_to_end(wl_mod, workload, setup_times, results, calibrated=True):
    """The gated metrics: medians over the run of calibrated timings.

    ``calibrated=False`` gives the same figures from the raw timings,
    which the full record carries next to them.
    """
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setup = [raw * (scale if calibrated else 1.0)
             for raw, scale in setup_times]
    return {
        "setup_s": (wl_mod.median(setup), "s"),
        "peak_rss_mb": (peak, "MB"),
        "items_per_s": (workload.items_per_s(results, calibrated), "1/s"),
        "op_ms": (workload.op_ms(results, calibrated), "ms"),
    }


def per_layer(tracer, workload, results, traced_units, setups: int) -> dict:
    """Per-op means over the traced ops (plus per-set-up means, see above)."""
    ops = [("op", u) for u in traced_units]
    n = max(len(ops) * workload.unit_ops, 1)
    spans = tracer.summarize(ops)
    setup_spans = tracer.summarize([("setup", k) for k in range(setups)])

    def total(name):
        return spans[name]["total_s"] / n if name in spans else 0.0

    def selft(name):
        return spans[name]["self_s"] / n if name in spans else 0.0

    def count(name):
        return spans[name]["count"] / n if name in spans else 0.0

    def counter(name):
        return tracer.counter(name, ops) / n

    def ratio(num, den):
        d = tracer.counter(den, ops)
        return tracer.counter(num, ops) / d if d else 0.0

    maps = spans["saliency.quality_map"]["count"] \
        if "saliency.quality_map" in spans else 0
    m = {
        "corpus.ingest_s": (total("corpus.load_corpus")
                            + total("corpus.save_corpus_cache"), "s"),
        "corpus.cache_load_s": (total("corpus.load_corpus_cache"), "s"),
        "corpus.extract_windows_s": (total("corpus.extract_windows"), "s"),
        "corpus.windows": (counter("corpus.windows"), "count"),
        "corpus.corrupt_s": (total("corpus.corrupt_window"), "s"),
        "corpus.corrupt_calls": (count("corpus.corrupt_window"), "count"),
        "sswe.backward_s": (total("sswe.backward"), "s"),
        "sswe.backward_calls": (count("sswe.backward"), "count"),
        "sswe.update_s": (selft("sswe.train_sswe"), "s"),
        "sswe.live_col_ratio": (ratio("sswe.live_cols", "sswe.touched_cols"),
                                "1"),
        "sswe.save_s": (total("sswe.save_embeddings"), "s"),
        "lstm.fwd_s": (total("lstm.forward_essay"), "s"),
        "lstm.fwd_calls": (count("lstm.forward_essay"), "count"),
        "lstm.fwd_tokens": (counter("lstm.fwd_tokens"), "count"),
        "lstm.bptt_s": (total("lstm.bptt"), "s"),
        "lstm.bptt_calls": (count("lstm.bptt"), "count"),
        "lstm.rmsprop_s": (total("lstm.rmsprop_update"), "s"),
        "lstm.rmsprop_elems": (counter("lstm.rmsprop_elems"), "count"),
        "lstm.m_touched_ratio": (ratio("lstm.m_touched_cols", "lstm.m_cols"),
                                 "1"),
        "lstm.train_self_s": (selft("lstm.train_scorer"), "s"),
        "lstm.predict_s": (total("lstm.predict"), "s"),
        "lstm.save_s": (total("lstm.save_model"), "s"),
        "lstm.load_s": (total("lstm.load_model"), "s"),
        "saliency.map_s": (spans["saliency.top_maps"]["total_s"] / n, "s"),
        "saliency.maps": (spans["saliency.top_maps"]["count"] / n, "count"),
        "saliency.passes_per_map": (
            spans["saliency.map_passes"]["count"] / maps if maps else 0.0,
            "count"),
        "saliency.render_s": (total("saliency.render_html")
                              + total("saliency.render_ansi"), "s"),
        "metrics.report_s": (total("metrics.report"), "s"),
    }
    for stage in CLI_STAGES:
        m[f"cli.{stage}.self_s"] = (selft(f"cli.{stage}"), "s")

    setup_n = max(setups, 1)
    setup_total = {
        "corpus.ingest_s": (setup_spans["corpus.load_corpus"]["total_s"]
                            + setup_spans["corpus.save_corpus_cache"]["total_s"]),
        "lstm.save_s": setup_spans["lstm.save_model"]["total_s"],
        "lstm.load_s": setup_spans["lstm.load_model"]["total_s"],
    }
    for name in SETUP_LAYERS:
        value, unit = m[name]
        m[name] = (value + setup_total[name] / setup_n, unit)

    # tracing overhead: calibrated op time per item, traced against
    # untraced units
    def per_item(rs):
        items = sum(r.items for r in rs)
        busy = sum(r.seconds * r.scale for r in rs)
        return busy / items if items else math.nan
    traced = set(traced_units)
    unit = workload.unit_ops
    on = [r for k, r in enumerate(results) if k // unit in traced]
    off = [r for k, r in enumerate(results) if k // unit not in traced]
    overhead = per_item(on) / per_item(off) - 1.0 if off else math.nan
    m["trace.overhead_ratio"] = (0.0 if math.isnan(overhead) else overhead, "1")
    return m


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    cores = cap_blas_threads()
    pinned = pin_mmap_threshold()
    import_program()
    sys.path.insert(0, str(BENCH))
    import calibration as cal_mod
    import tracer as tracer_mod
    import workloads as wl_mod

    run_dir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        workload, tracer, setup_times, results, traced_units, cal = \
            run(args, wl_mod, tracer_mod, cal_mod, run_dir)
    except Exception as exc:  # set-up failed: no result to report
        wl_mod.clean(run_dir)
        print(f"error: set-up failed: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 2
    try:
        attempted = sum(r.attempted for r in results)
        failed = sum(min(r.attempted, len(r.errors)) for r in results)
        e2e = end_to_end(wl_mod, workload, setup_times, results)
        op_ms = [1e3 * r.seconds for r in results]
        tail_ms, tail_pct = wl_mod.tail(op_ms)
        named = dict(e2e)
        for name, value in end_to_end(wl_mod, workload, setup_times,
                                      results, calibrated=False).items():
            if name != "peak_rss_mb":
                named[f"{name}_raw"] = value
        ref_ms = cal.reference_ms()
        named.update({
            "reference_ms_p50": (wl_mod.median(ref_ms), "ms"),
            "reference_blocks": (len(ref_ms), "count"),
            "op_ms_p50": (wl_mod.median(op_ms), "ms"),
            "op_ms_tail": (tail_ms, "ms"),
            "op_ms_tail_percentile": (tail_pct, "%"),
            "ops_attempted": (attempted, "count"),
            "failed_ratio": (failed / attempted, "1"),
            "units": (len(results) // workload.unit_ops, "count"),
        })
        named.update(workload.named_metrics(
            [r for r in results if not r.errors] or results))
        record = {
            "env": environment(args, cores, pinned),
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "errors": [e for r in results for e in r.errors.values()][:10],
            "setup_s_each": [raw for raw, _ in setup_times],
            "setup_scale_each": [scale for _, scale in setup_times],
            "op_ms_each": op_ms,
            "op_scale_each": [r.scale for r in results],
            "reference_ms_each": ref_ms,
            "named_metrics": {k: {"value": v, "unit": u}
                              for k, (v, u) in named.items()},
            "artifact_sha256": workload.digests(),
        }
        if tracer is not None:
            metrics = per_layer(tracer, workload, results, traced_units,
                                len(setup_times))
            record["per_layer"] = {k: {"value": v, "unit": u}
                                   for k, (v, u) in metrics.items()}
            record["traced_units"] = len(traced_units)
        else:
            metrics = e2e
        results_dir = WORK / "results"
        results_dir.mkdir(parents=True, exist_ok=True)
        stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        if tracer is not None:
            tracer.write_jsonl(results_dir / f"{stem}.spans.jsonl")
        with open(results_dir / f"{stem}.json", "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1, default=str)
    finally:
        wl_mod.clean(run_dir)

    for name, (value, unit) in {**named, **(metrics if tracer else {})}.items():
        print(f"{name:34s} {value:.6g} {unit}")
    for err in record["errors"]:
        print(f"failed: {err}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
