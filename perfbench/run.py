#!/usr/bin/env python3
"""The repository benchmark: `ingest` and `search` on the paper preset, plus
the ungated `serve` diagnostic.

    python3 perfbench/run.py --workload ingest|search|serve --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout. It builds the `sdds` binary and the harness
(`perfbench/harness`) from source into $CARGO_TARGET_DIR (default
`.bench_build`), runs one workload, checks its outputs and prints every metric
by name and unit. The last stdout line is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, the per-layer metrics with `--trace 1`. The exit code is non-zero
when an output check fails or the run cannot complete.

    python3 perfbench/run.py --sweep 200,400,800 --seed N --seconds S

runs the diagnostic sweep of `serve` over several offered rates instead.
`BENCHMARK.json` gates `ingest` and `search` only: `serve` times single ops
through fsync and TCP wake-ups, whose latency varies too much from run to run
on a shared machine to hold a bound.
"""

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
HARNESS = BENCH_DIR / "harness"
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 160
WORKLOADS = ("ingest", "search", "serve")


def fail(msg, code=1):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def target_dir():
    t = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return t if t.is_absolute() else (Path.cwd() / t).resolve()


def build(target):
    """Builds the `sdds` binary and the harness; cargo's output goes to stderr."""
    if not (ROOT / "Cargo.toml").is_file() or not (ROOT / "src/bin/sdds.rs").is_file():
        fail(f"{ROOT} is not a checkout of the repository (no Cargo.toml / src/bin/sdds.rs)", 2)
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    for manifest, extra in (
        (ROOT / "Cargo.toml", ["--bin", "sdds"]),
        (HARNESS / "Cargo.toml", []),
    ):
        cmd = ["cargo", "build", "--release", "--offline", "--quiet",
               "--manifest-path", str(manifest)] + extra
        try:
            done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail(f"build failed: {e}")
        if done.returncode != 0:
            fail(f"build failed: {' '.join(cmd)}")
    return target / "release" / "sdds", target / "release" / "sdds-perfbench"


def run_harness(harness, args):
    """Runs the harness in its own process group and reaps the whole group,
    so no rank it spawned can outlive the run."""
    proc = subprocess.Popen([str(harness)] + args, cwd=ROOT, stdout=subprocess.PIPE,
                            start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        out = None
    finally:
        reap_group(proc)
    if out is None:
        fail(f"harness did not finish within {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        fail(f"harness exited with code {proc.returncode}")
    lines = out.strip().splitlines()
    if not lines:
        fail("harness printed no report")
    return json.loads(lines[-1])


def reap_group(proc):
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass
    proc.wait()
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(proc.pid, 0)
        except (ProcessLookupError, PermissionError):
            return
        time.sleep(0.05)


def pct(values, q):
    """Exact nearest-rank percentile of the samples."""
    s = sorted(values)
    return s[max(0, math.ceil(q * len(s)) - 1)]


class Deltas:
    """Counter and histogram deltas, summed over the client process and
    (for TCP) the scraped ranks."""

    def __init__(self, *parts):
        self.counters, self.hist = {}, {}
        for p in parts:
            for k, v in (p or {}).get("counters", {}).items():
                self.counters[k] = self.counters.get(k, 0) + v
            for k, (c, s) in (p or {}).get("hist", {}).items():
                c0, s0 = self.hist.get(k, (0, 0.0))
                self.hist[k] = (c0 + c, s0 + s)

    def c(self, name):
        return self.counters.get(name, 0)

    def hsum(self, name):
        return self.hist.get(name, (0, 0.0))[1]

    def hmean(self, name):
        c, s = self.hist.get(name, (0, 0.0))
        return s / c if c else 0.0


def div(a, b):
    return a / b if b else 0.0


def span(rep, name):
    s = rep.get("spans", {}).get(name)
    return s if s else {"count": 0, "total_s": 0.0, "self_s": 0.0, "detail_sum": 0}


def span_mean(rep, name):
    s = span(rep, name)
    return div(s["total_s"], s["count"])


SERVE_WINDOWS = 5


def windowed(rep, lat, q):
    """Percentile `q` of the latency samples. For `serve`, the median over
    equal windows of the measured phase of each window's pooled percentile,
    so one stall of the shared machine cannot decide the run's figure."""
    if rep["workload"] != "serve":
        return pct(lat, q)
    point = rep["points"][0]
    width = point["seconds"] / SERVE_WINDOWS
    windows = [[] for _ in range(SERVE_WINDOWS)]
    for due, ms in point["ops"]:
        windows[min(int(due / width), SERVE_WINDOWS - 1)].append(ms)
    return statistics.median(pct(w, q) for w in windows if w)


def end_to_end(rep):
    """The metrics a user sees, with the samples behind each percentile."""
    w = rep["workload"]
    attempted, failed = rep["attempted"], rep["failed"]
    if w == "ingest":
        lat = rep["lat_ms"]["batch"]
        rate = statistics.median(rep["rates"])
        tally = rep["verify_search"]
    elif w == "search":
        lat = rep["lat_ms"]["search"]
        rate = rep["rate"]
        tally = rep["search"]
    else:
        point = rep["points"][0]
        lat = [ms for _, ms in point["ops"]]
        rate = point["achieved_rate"]
        tally = rep["verify_search"]
    metrics = {
        "setup_s": (statistics.median(rep["setup_s"]), "s"),
        "ok_op_ratio": (div(attempted - failed, attempted), "ratio"),
        "ops_per_s": (rate, "1/s"),
        "p50_ms": (windowed(rep, lat, 0.50), "ms"),
        "p95_ms": (windowed(rep, lat, 0.95), "ms"),
        "stored_bytes_per_user_byte": (rep.get("stored_bytes_per_user_byte", 0.0), "ratio"),
        "search_precision": (div(tally["true_hits"], tally["returned"]), "ratio"),
    }
    notes = [f"p50_ms/p95_ms: over {len(lat)} samples"
             + (f", each the median over {SERVE_WINDOWS} windows" if w == "serve" else "")]
    if w == "serve":
        for kind, samples in rep["lat_ms"].items():
            if samples:
                notes.append(f"{kind}: p50 {pct(samples, 0.5):.4f} ms over {len(samples)} ops")
        notes.append(f"p99 of all {len(lat)} point ops: {pct(lat, 0.99):.4f} ms (not gated)")
        notes.append(f"generator lag: max {point['max_lag_ms']:.3f} ms, "
                     f"mean {point['mean_lag_ms']:.4f} ms at {point['offered_rate']} ops/s offered")
    notes.append(f"setup_s: median of {len(rep['setup_s'])} set-ups")
    notes.append(pattern_mix(rep["patterns"], tally))
    return metrics, notes


def pattern_mix(patterns, tally):
    """The measured share of selective and broad searches and the patterns'
    true-hit counts."""
    parts = []
    for broad, name in ((False, "selective"), (True, "broad")):
        hits = sorted(p["true_hits"] for p in patterns if p["broad"] == broad)
        if hits:
            parts.append(f"{len(hits)} {name} patterns ({hits[0]}-{hits[-1]} true hits)")
    share = div(tally["broad"], tally["searches"])
    return (f"search mix: {', '.join(parts)}; {tally['broad']} of {tally['searches']} "
            f"searches broad ({share:.1%})")


def per_layer(rep):
    """Per-layer costs: the harness's spans around the public calls into each
    layer (traced ops only), and deltas of the program's own counters over
    the measured phase (`ingest`: over the traced rounds)."""
    w = rep["workload"]
    d = Deltas(rep.get("phase_deltas"), rep.get("phase_rank_deltas"))
    na = {}
    point = rep["points"][0] if w == "serve" else None
    if w == "ingest":
        ops = d.c("core.ingest_records")
        op_name = "record"
    elif w == "search":
        ops = rep["measured_searches"]
        op_name = "search"
    else:
        ops = sum(point["op_counts"].values())
        op_name = "point op"
    records = d.c("core.ingest_records")
    searches = ops if w == "search" else 0
    buckets = rep.get("buckets", 0)
    m = {}

    def put(name, value, unit, applies, why=""):
        m[name] = (value if applies else 0.0, unit)
        if not applies:
            na[name] = why

    writes = w in ("ingest", "serve")
    no_writes = "no records are transformed or inserted in this workload"
    no_search = "no searches run in the traced phase of this workload"
    put("core.transform_us_per_record", span_mean(rep, "transform") * 1e6, "us", writes, no_writes)
    for stage in ("chunk", "encode", "disperse"):
        put(f"core.{stage}_us_per_record", div(d.hsum(f"core.{stage}_seconds"), records) * 1e6,
            "us", writes, no_writes)
    put("core.index_bytes_per_record", div(d.c("core.ingest_index_bytes"), records), "B",
        writes, no_writes)
    is_search = w == "search"
    put("core.query_build_us", span_mean(rep, "build_query") * 1e6, "us", is_search, no_search)
    bq = span(rep, "build_query")
    put("core.query_bytes", div(bq["detail_sum"], bq["count"]), "B", is_search, no_search)
    internal_build = d.hsum("core.query_build_seconds") - bq["total_s"]
    combine = d.hsum("core.search_seconds") - d.hsum("lh.scan_seconds") - max(internal_build, 0.0)
    put("core.combine_ms_per_search", div(combine, searches) * 1e3, "ms", is_search, no_search)
    tally = rep.get("search", {})
    put("core.candidates_per_hit", div(tally.get("candidates", 0), tally.get("returned", 0)),
        "ratio", is_search, no_search)
    put("cipher.record_encrypt_us", span_mean(rep, "encrypt_record") * 1e6, "us", writes, no_writes)
    serve = w == "serve"
    if serve:
        # only the serve diagnostic decrypts, merges and speaks TCP; the
        # gated workloads do not list these metrics
        put("cipher.record_decrypt_us", span_mean(rep, "decrypt_record") * 1e6, "us", True)
    put("lh.insert_batch_ms", span_mean(rep, "insert_batch") * 1e3, "ms", writes, no_writes)
    put("lh.splits_per_1k_records", div(d.c("lh.splits"), records / 1000), "count", writes,
        no_writes)
    put("lh.drain_batch_mean", d.hmean("lh.drain_batch_size"), "count", True)
    keyed = "searches address every bucket by scan, not by key"
    put("lh.image_hit_ratio", div(d.c("lh.requests_hops_0"), d.c("lh.requests")), "ratio",
        writes, keyed)
    put("lh.forwards_per_op", div(d.c("lh.forwards"), ops), "count", writes, keyed)
    put("lh.iams_per_op", div(d.c("lh.iams"), ops), "count", writes, keyed)
    put("lh.retries_per_op", div(d.c("lh.retries") + d.c("lh.scan_retries"), ops), "count", True)
    if serve:
        put("lh.merges", d.c("lh.merges"), "count", True)
    put("lh.loop_stall_s", d.hsum("lh.loop_stall_seconds"), "s", True)
    put("lh.buckets", buckets, "count", True)
    put("lh.scan_ms", d.hmean("lh.scan_seconds") * 1e3, "ms", is_search, no_search)
    put("lh.fanout_per_search", div(d.c("lh.scan_fanout_buckets"), d.c("lh.scans")), "count",
        is_search, no_search)
    put("lh.index_probe_yield", div(d.c("lh.scan_index_candidates"), d.c("lh.scan_index_probes")),
        "ratio", is_search, no_search)
    put("lh.linear_fallback_ratio",
        div(d.c("lh.scan_fallback_linear"), d.c("lh.scan_fanout_buckets")), "ratio", is_search,
        no_search)
    put("lh.gather_ms_per_search", div(d.hsum("lh.scan_gather_seconds"), searches) * 1e3, "ms",
        is_search, no_search)
    put("net.msgs_per_op", div(d.c("net.messages"), ops), "count", True)
    put("net.bytes_per_op", div(d.c("net.bytes"), ops), "B", True)
    put("net.msgs_per_search_over_model",
        div(div(d.c("net.messages"), searches), 2 * buckets + 2), "ratio", is_search, no_search)
    put("net.buf_pool_hit_ratio",
        div(d.c("net.buf_pool_hits"), d.c("net.buf_pool_hits") + d.c("net.buf_pool_misses")),
        "ratio", True)
    if serve:
        put("net.tcp.writes_per_op", div(d.c("net.tcp.writes"), ops), "count", True)
        put("net.tcp.frames_per_write", div(d.c("net.tcp.frames_sent"), d.c("net.tcp.writes")),
            "count", True)
    put("net.rejected_per_op", div(d.c("net.rejected"), ops), "count", True)
    # serve's ranks write their WAL during the measured phase; search's
    # file goes to disk only in its preload (set-up), so its storage
    # figures are that preload's, per record loaded
    if serve:
        sd = d
        write_ops = point["op_counts"]["insert"] + point["op_counts"]["delete"]
        disk = div(point["disk_growth_bytes"], point["inserted_bytes"])
    else:
        sd = Deltas(rep.get("preload_deltas"))
        write_ops = rep.get("records", 0) if is_search else 0
        disk = rep.get("disk_bytes_per_user_byte", 0.0)
    on_disk = serve or is_search
    no_disk = "this workload keeps buckets in memory"
    put("storage.fsyncs_per_write_op", div(sd.c("storage.wal_fsyncs"), write_ops), "count",
        on_disk, no_disk)
    put("storage.fsync_ms_mean", sd.hmean("storage.fsync_seconds") * 1e3, "ms", on_disk, no_disk)
    put("storage.append_us_mean", sd.hmean("storage.append_seconds") * 1e6, "us", on_disk,
        no_disk)
    put("storage.disk_bytes_per_user_byte", disk, "ratio", on_disk, no_disk)
    if w == "ingest":
        overhead = div(statistics.median(rep["rates"]), statistics.median(rep["traced_rates"]))
    else:
        # traced and untraced ops alternate; a closed-loop client's
        # throughput is the inverse of its mean latency, and an open loop's
        # throughput is its offered rate, so compare service capacity
        src = point if point else rep
        overhead = div(src["traced_mean_ms"], src["untraced_mean_ms"])
    put("obs.tracing_overhead_ratio", overhead, "ratio", True)
    notes = [f"per-op figures are per {op_name}, over {ops} of them"]
    if is_search:
        notes.append(f"storage.* over the preload of the searched file (set-up), per record "
                     f"loaded, over {write_ops} records")
    notes += [f"{k} absent: {v}" for k, v in na.items()]
    return m, notes


def checks(rep):
    """Output checks that make a run incorrect (not merely a failed op)."""
    problems = list(rep.get("hard_failures", []))
    every = Deltas(rep.get("deltas"), rep.get("rank_deltas"))
    if every.c("lh.requests_hops_gt2"):
        problems.append(f"lh.requests_hops_gt2 = {every.c('lh.requests_hops_gt2')}, must be 0")
    for key in ("search", "verify_search"):
        t = rep.get(key)
        if t and t["false_negatives"]:
            problems.append(f"{key}: {t['false_negatives']} true hits missing from results")
    if rep.get("ranks_killed"):
        problems.append(f"{rep['ranks_killed']} rank(s) ignored shutdown and were killed")
    return problems


def sweep(harness, sdds, work, opts):
    rep = run_harness(harness, ["--workload", "serve", "--seed", str(opts.seed), "--seconds",
                                str(opts.seconds), "--trace", "0", "--sdds", str(sdds),
                                "--work", str(work), "--rates", opts.sweep])
    rows = []
    for p in rep["points"]:
        lat = [ms for _, ms in p["ops"]]
        rows.append({"offered_rate": p["offered_rate"], "achieved_rate": p["achieved_rate"],
                     "samples": len(lat), "p50_ms": pct(lat, 0.5), "p99_ms": pct(lat, 0.99),
                     "max_lag_ms": p["max_lag_ms"], "mean_lag_ms": p["mean_lag_ms"]})
        print(" ".join(f"{k}={v:.4g}" if isinstance(v, float) else f"{k}={v}"
                       for k, v in rows[-1].items()))
    problems = checks(rep)
    print(json.dumps({"seed": opts.seed, "seconds_per_rate": opts.seconds, "nproc": rep["nproc"],
                      "failed": rep["failed"], "attempted": rep["attempted"],
                      "problems": problems, "points": rows}))
    sys.exit(1 if problems else 0)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--sweep", help="comma-separated offered rates for the serve sweep")
    opts = ap.parse_args()
    if not opts.workload and not opts.sweep:
        fail("--workload or --sweep is required", 2)
    sdds, harness = build(target_dir())
    work = ROOT / ".bench_work"
    if opts.sweep:
        sweep(harness, sdds, work, opts)
    rep = run_harness(harness, ["--workload", opts.workload, "--seed", str(opts.seed),
                                "--seconds", str(opts.seconds), "--trace", str(opts.trace),
                                "--sdds", str(sdds), "--work", str(work)])
    metrics, notes = per_layer(rep) if opts.trace else end_to_end(rep)
    problems = checks(rep)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    for note in notes:
        print(f"# {note}")
    if rep.get("span_file"):
        print(f"# spans written to {rep['span_file']}")
    for e in rep.get("errors", []):
        print(f"# failed op: {e}")
    for p in problems:
        print(f"# CHECK FAILED: {p}")
        print(f"perfbench: check failed: {p}", file=sys.stderr)
    correct = not problems
    print(json.dumps({
        "correct": correct,
        "attempted": int(rep["attempted"]),
        "failed": int(rep["failed"]),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
