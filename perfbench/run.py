#!/usr/bin/env python3
"""The RETINA benchmark: open-loop serving of two traffic mixes, with the
training job that produces the served bundle timed in every run.

Run from the root of a checkout:

    python3 perfbench/run.py --workload hot_cascade --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --self-test

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, the per-layer metrics of the traced run with `--trace 1`.
The line before it (`record: {...}`) is the run record. See
perfbench/README.md for the metric dictionary and the workload rationale.
"""

import argparse
import hashlib
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

# `retina generate --scale 0.1 --users 6000` at its default seed: 3151
# tweets; users are 1.5x the engine's 4096-entry user LRU and tweets 12x
# its 256-entry tweet LRU.
WORLD_ARGS = ["--scale", "0.1", "--users", "6000"]

# Fixed rates, set from the capacity measured on the commit that defined
# the benchmark (4-core Xeon, see README.md): nominal at about a third of
# capacity, overload at about 1.5x.
WORKLOADS = {
    "hot_cascade": {"nominal_qps": 5000.0, "overload_qps": 22000.0},
    "long_tail": {"nominal_qps": 750.0, "overload_qps": 3500.0},
}

SLO_P99_MS = 20.0
# A run whose generator was later than this share of the p99 limit (p99 of
# send lag in the nominal phase) is invalid: the SLO itself could not be
# measured.
SEND_LAG_SHARE = 1.0
SETUP_REPEATS = 3
# Daemon cold starts timed in an untraced run; cold_start_s is their median.
COLD_STARTS = 2
# A nominal quantile that is itself a miss (JSON null) reads as the
# client's response timeout.
RESPONSE_TIMEOUT_MS = 3000.0
CLI_METRICS = re.compile(
    r"macro-F1 ([0-9.]+)\s+ACC ([0-9.]+)\s+AUC ([0-9.]+)\s+"
    r"MAP@20 ([0-9.]+)\s+HITS@20 ([0-9.]+)")
TARGETS = ["retina_cli", "retina_serve_bin", "perfbench_client"]

# Per-layer metric -> (the end-to-end metric it should move, on which
# workloads). Names and units come from BENCHMARK.json; the self-test
# checks that README.md's tables agree with both.
LAYERS = {
    "p99_ms": ("none: the nominal tail itself, reported unbounded", "both"),
    "serve.codec_us": ("p50_ms", "hot_cascade"),
    "serve.handle_us": ("slo_qps, sat_ok_qps", "both"),
    "serve.wire_queue_ms": ("p50_ms, p99_ms", "hot_cascade"),
    "serve.coalesce_avg_batch": ("sat_ok_qps, slo_qps",
                                 "hot_cascade; flat on long_tail"),
    "serve.coalesced_frac": ("sat_ok_qps, slo_qps",
                             "hot_cascade; flat on long_tail"),
    "serve.shed_frac": ("sat_ok_qps", "both"),
    "serve.queue_depth_peak": ("p99_ms", "both"),
    "core.score_warm_us": ("p50_ms", "hot_cascade"),
    "core.score_cold_us": ("p50_ms", "long_tail"),
    "core.tweet_cache_hit_frac": ("p50_ms, slo_qps", "long_tail"),
    "core.user_cache_hit_frac": ("p50_ms, slo_qps", "long_tail"),
    "core.user_block_us": ("p50_ms, slo_qps", "long_tail"),
    "core.news_window_us": ("p50_ms, slo_qps", "long_tail"),
    "core.engine_self_us": ("p50_ms, slo_qps", "long_tail"),
    "core.assemble_us": ("p50_ms, slo_qps", "both"),
    "core.restore_s": ("cold_start_s", "both"),
    "core.model_load_s": ("cold_start_s", "both"),
    "core.features_build_s": ("train_s", "both"),
    "core.task_build_s": ("train_s", "both"),
    "core.fit_s": ("train_s", "both"),
    "core.eval_s": ("train_s", "both"),
    "text.tfidf_us": ("p50_ms, slo_qps", "long_tail"),
    "text.doc2vec_us": ("p50_ms (long_tail), cold_start_s", "both"),
    "graph.bfs_us": ("p50_ms, slo_qps", "long_tail"),
    "graph.bfs_reached": ("p50_ms, slo_qps", "long_tail"),
    "datagen.trending_us": ("p50_ms, slo_qps", "long_tail"),
    "datagen.import_s": ("cold_start_s", "both"),
    "datagen.generate_s": ("setup_s", "both"),
    "io.ckpt_read_s": ("cold_start_s", "both"),
    "io.bundle_save_s": ("train_s", "both"),
    "nn.forward_us_per_row": ("sat_ok_qps (hot_cascade), train_s", "both"),
    "nn.rows_per_forward": ("sat_ok_qps, slo_qps", "hot_cascade"),
    "harness.send_lag_p99_ms": ("validity of every latency", "both"),
    "harness.trace_overhead_frac": ("cost of tracing", "both"),
}


def load_spec():
    """BENCHMARK.json's metric dictionary: {"end_to_end": {name: metric},
    "per_layer": {name: metric}}."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    out = {kind: {m["name"]: m for m in spec[kind]}
           for kind in ("end_to_end", "per_layer")}
    if set(out["per_layer"]) != set(LAYERS):
        raise BenchError("run.py's LAYERS and BENCHMARK.json's per_layer "
                         "name different metrics")
    return out


class BenchError(Exception):
    pass


# Child processes keep their temporary files inside the build tree.
CHILD_ENV = dict(os.environ)


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def sha256_file(path, h=None):
    h = h or hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h


def sha256_tree(path):
    """Digest of every file under `path` (relative names and bytes)."""
    h = hashlib.sha256()
    for p in sorted(Path(path).rglob("*")):
        if p.is_file():
            h.update(str(p.relative_to(path)).encode() + b"\0")
            sha256_file(p, h)
    return h.hexdigest()


def run(cmd, cwd, timeout, log_path=None):
    """Runs `cmd`; returns (wall seconds, stdout text)."""
    out = open(log_path, "w") if log_path else subprocess.DEVNULL
    start = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=cwd, stdout=subprocess.PIPE,
                            stderr=out, text=True, env=CHILD_ENV)
    try:
        stdout, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"timed out after {timeout}s: {' '.join(cmd)}")
    finally:
        if log_path:
            out.close()
    wall = time.monotonic() - start
    if proc.returncode != 0:
        raise BenchError(f"exit {proc.returncode}: {' '.join(cmd)}")
    return wall, stdout


def run_rusage(cmd, cwd, timeout, out_path, log_path):
    """Runs `cmd` with stdout to `out_path`; returns (wall seconds, peak
    RSS kB from wait4, exit code, stdout text)."""
    with open(out_path, "w") as out, open(log_path, "w") as err:
        start = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=cwd, stdout=out, stderr=err,
                                env=CHILD_ENV)
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid == proc.pid:
                break
            if time.monotonic() - start > timeout:
                proc.kill()
                os.wait4(proc.pid, 0)
                raise BenchError(f"timed out: {' '.join(cmd)}")
            time.sleep(0.01)
        wall = time.monotonic() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss, proc.returncode, Path(out_path).read_text()


def build_dir():
    d = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return d if d.is_absolute() else ROOT / d


def build(bdir):
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise BenchError(f"{ROOT} is not a RETINA checkout (no CMakeLists.txt "
                         "or src/ beside perfbench/)")
    (bdir / "tmp").mkdir(parents=True, exist_ok=True)
    CHILD_ENV["TMPDIR"] = str(bdir / "tmp")
    log_path = bdir / "perfbench_build.log"
    if not (bdir / "CMakeCache.txt").is_file():
        run(["cmake", "-S", str(BENCH_DIR), "-B", str(bdir),
             "-DCMAKE_BUILD_TYPE=Release"], ROOT, 300, log_path)
    try:
        run(["cmake", "--build", str(bdir), "-j4", "--target", *TARGETS],
            ROOT, 850, log_path)
    except BenchError:
        tail = log_path.read_text(errors="replace").splitlines()[-30:]
        raise BenchError("build failed:\n" + "\n".join(tail))
    return {
        "retina": bdir / "retina" / "tools" / "retina",
        "retina_serve": bdir / "retina" / "src" / "serve" / "retina_serve",
        "client": bdir / "perfbench_client",
    }


def cache_dir(bdir, bins):
    """Per-commit cache: keyed by the binaries that make and read it."""
    h = hashlib.sha256(" ".join(WORLD_ARGS).encode())
    for name in ("retina", "retina_serve", "client"):
        sha256_file(bins[name], h)
    d = bdir / "perfbench_cache" / h.hexdigest()[:20]
    d.mkdir(parents=True, exist_ok=True)
    return d


def publish(src, dst):
    """Copies a directory into the cache atomically."""
    tmp = dst.with_name(dst.name + f".tmp{os.getpid()}")
    shutil.rmtree(tmp, ignore_errors=True)
    shutil.copytree(src, tmp)
    try:
        tmp.rename(dst)
    except OSError:
        shutil.rmtree(tmp, ignore_errors=True)


def setup_world(bins, rdir, repeats):
    """Generates the world `repeats` times; returns (median s, dir, info)."""
    times, digests, info = [], [], {}
    for i in range(repeats):
        out = rdir / f"world{i}"
        wall, stdout = run([str(bins["retina"]), "generate", "--out", out.name,
                            *WORLD_ARGS], rdir, 120, rdir / "generate.log")
        times.append(wall)
        digests.append(sha256_tree(out))
        m = re.search(r"generated (\d+) tweets, (\d+) users, (\d+) headlines",
                      stdout)
        if m:
            info = {"tweets": int(m[1]), "users": int(m[2]),
                    "headlines": int(m[3])}
    return statistics.median(times), rdir / "world0", info, \
        len(set(digests)) == 1, digests[0]


def train(bins, rdir, world):
    wall, rss_kb, rc, stdout = run_rusage(
        [str(bins["retina"]), "train-retweet", "--data",
         os.path.relpath(world, rdir), "--save-model", "bundle"],
        rdir, 170, rdir / "train.out", rdir / "train.log")
    m = CLI_METRICS.search(stdout)
    ok = rc == 0 and m is not None and (rdir / "bundle" / "model.ckpt").is_file()
    metrics = [float(x) for x in m.groups()] if m else []
    return {"train_s": wall, "train_rss_mb": rss_kb / 1024.0, "ok": ok,
            "cli_metrics": metrics, "line": m[0] if m else ""}


def ensure_cache(bins, cache, rdir, world, world_digest, tr):
    """Fills the per-commit cache from this run's world and bundle, or
    checks them against it; then makes sure the reference universe exists.
    Returns the list of mismatches."""
    problems = []
    if not (cache / "world.sha256").is_file():
        publish(world, cache / "world")
        (cache / "world.sha256").write_text(world_digest)
    elif (cache / "world.sha256").read_text() != world_digest:
        problems.append("generated world differs from the cached world")
    bundle = rdir / "bundle"
    bundle_digest = sha256_file(bundle / "model.ckpt").hexdigest()
    if not (cache / "bundle.sha256").is_file():
        publish(bundle, cache / "bundle")
        (cache / "train_line.txt").write_text(tr["line"])
        (cache / "bundle.sha256").write_text(bundle_digest)
    elif (cache / "bundle.sha256").read_text() != bundle_digest:
        problems.append("trained bundle differs from the cached bundle "
                        "(training is not deterministic)")
    universe = cache / "universe.bin"
    if not universe.is_file():
        log("preparing the reference universe (once per build)")
        run([str(bins["client"]), "prepare", "--world", str(cache / "world"),
             "--bundle", str(cache / "bundle"), "--out", str(universe)],
            rdir, 300, rdir / "prepare.log")
    return problems


def serve(bins, cache, rdir, workload, seed, seconds, world, bundle,
          cold_starts):
    rates = WORKLOADS[workload]
    out = rdir / "serve.json"
    wall, _ = run(
        [str(bins["client"]), "serve", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--nominal-qps", str(rates["nominal_qps"]),
         "--overload-qps", str(rates["overload_qps"]),
         "--cold-starts", str(cold_starts),
         "--universe", str(cache / "universe.bin"),
         "--world", os.path.relpath(world, rdir),
         "--bundle", os.path.relpath(bundle, rdir),
         "--serve-bin", str(bins["retina_serve"]), "--socket", "s.sock",
         "--daemon-log", "daemon.log", "--out", out.name],
        rdir, 175, rdir / "serve.log")
    return dict(json.loads(out.read_text()), wall_s=wall)


def trace(bins, cache, rdir, workload, seed, seconds):
    out = rdir / "trace.json"
    (rdir / "tracework").mkdir(exist_ok=True)
    run([str(bins["client"]), "trace", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--nominal-qps", str(WORKLOADS[workload]["nominal_qps"]),
         "--universe", str(cache / "universe.bin"),
         "--bundle", str(cache / "bundle"), "--workdir", "tracework",
         "--out", out.name, "--spans-out", "spans.json"],
        rdir, 175, rdir / "trace.log")
    return json.loads(out.read_text())


def run_record(args, bdir, rdir, serve_result, world_info):
    cpu = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    simd = ""
    daemon_log = rdir / "daemon.log"
    if daemon_log.is_file():
        m = re.search(r"simd dispatch: (\w+)", daemon_log.read_text())
        simd = m[1] if m else ""
    cmake_cache = (bdir / "CMakeCache.txt").read_text()
    obs_disabled = re.search(r"RETINA_OBS_DISABLED:BOOL=(ON|TRUE|1)",
                             cmake_cache) is not None
    src = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "tools"):
        p = ROOT / top
        files = [p] if p.is_file() else sorted(q for q in p.rglob("*")
                                               if q.is_file())
        for f in files:
            src.update(str(f.relative_to(ROOT)).encode() + b"\0")
            sha256_file(f, src)
    return {
        "source_sha256": src.hexdigest(),
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(), "cpu_model": cpu, "simd_dispatch": simd,
        "obs_compiled_in": not obs_disabled,
        "daemon_flags": "defaults; " + " ".join(serve_result["daemon_args"]),
        "world": dict(world_info, args=" ".join(WORLD_ARGS)),
        "rates": WORKLOADS[args.workload],
        "send_lag_limit_ms": SEND_LAG_SHARE * SLO_P99_MS,
    }


def latency_ms(v):
    return RESPONSE_TIMEOUT_MS if v is None else v


def end_to_end(setup_s, tr, sv):
    nominal = sv["nominal"]
    nominal_misses = (nominal["shed"] + nominal["error"] + nominal["timeout"]
                      + nominal["mismatch"])
    failed = nominal_misses + (0 if tr["ok"] else 1)
    attempted = nominal["sent"] + 1
    # Smoothed so that a run without failures reads a small positive share
    # and a relative bound on it stays defined: (failed + 0.5)/(attempted + 1).
    fail_frac = (failed + 0.5) / (attempted + 1)
    metrics = {
        "setup_s": setup_s,
        "cold_start_s": statistics.median(sv["cold_starts_s"]),
        "serve_rss_mb": sv["serve_rss_mb"],
        "p50_ms": latency_ms(nominal["p50_ms"]),
        "slo_qps": sv["ladder"]["slo_qps"],
        "sat_ok_qps": sv["overload"]["ok_per_s"],
        "fail_frac": fail_frac,
        "train_s": tr["train_s"],
        "train_rss_mb": tr["train_rss_mb"],
        "macro_f1": tr["cli_metrics"][0] if tr["cli_metrics"] else 0.0,
    }
    return metrics, attempted, failed


def per_layer(sv, tc):
    layers = tc["layers"]
    pipe = tc["pipeline_s"]
    km = sv["kmetrics"]

    def p50(name):
        v = layers[name]["p50"]
        return v if v is not None else 0.0

    over = km["overload"]
    batches = over["serve.coalesce.batches"]
    batched = over["serve.coalesce.batched_requests"]
    responses = over["serve.responses"]
    calls = responses - batched + batches
    cands = 8 if sv["workload"] == "hot_cascade" else 32
    codec, handle = p50("serve.codec_us"), p50("serve.handle_us")
    m = {
        "p99_ms": latency_ms(sv["nominal"]["p99_ms"]),
        "serve.codec_us": codec,
        "serve.handle_us": handle,
        "serve.wire_queue_ms": latency_ms(sv["nominal"]["p50_ms"])
        - (codec + handle) / 1e3,
        "serve.coalesce_avg_batch": batched / batches if batches else 1.0,
        "serve.coalesced_frac": batched / responses if responses else 0.0,
        "serve.shed_frac": over["serve.shed"] / max(1, responses
                                                    + over["serve.shed"]),
        "serve.queue_depth_peak": km["queue_depth_peak_after_nominal"],
        "core.score_warm_us": p50("core.score_warm_us"),
        "core.score_cold_us": p50("core.score_cold_us"),
        "core.tweet_cache_hit_frac": tc["core.tweet_cache_hit_frac"] or 0.0,
        "core.user_cache_hit_frac": tc["core.user_cache_hit_frac"] or 0.0,
        "core.user_block_us": p50("core.user_block_us"),
        "core.news_window_us": p50("core.news_window_us"),
        "core.engine_self_us": p50("core.engine_self_us"),
        "core.assemble_us": p50("core.assemble_us"),
        "core.restore_s": pipe["core.restore"],
        "core.model_load_s": pipe["core.model_load"],
        "core.features_build_s": pipe["core.features_build"],
        "core.task_build_s": pipe["core.task_build"],
        "core.fit_s": pipe["core.fit"],
        "core.eval_s": pipe["core.eval"],
        "text.tfidf_us": p50("text.tfidf_us"),
        "text.doc2vec_us": p50("text.doc2vec_us"),
        "graph.bfs_us": p50("graph.bfs_us"),
        "graph.bfs_reached": p50("graph.bfs_reached"),
        "datagen.trending_us": p50("datagen.trending_us"),
        "datagen.import_s": pipe["load.import"],
        "datagen.generate_s": pipe["datagen.generate"],
        "io.ckpt_read_s": pipe["io.ckpt_read"],
        "io.bundle_save_s": pipe["io.bundle_save"],
        "nn.forward_us_per_row": p50("nn.forward_us_per_row"),
        "nn.rows_per_forward": responses * cands / calls if calls else 0.0,
        "harness.send_lag_p99_ms": sv["nominal"]["send_lag_p99_ms"],
        "harness.trace_overhead_frac": tc["harness.trace_overhead_frac"],
    }
    return m


def report(workload, sv, tc, layer_metrics, spec):
    """The traced-run table: each layer metric beside the end-to-end metric
    it is predicted to move, then the reconciliation residual."""
    lines = [f"## Traced run: {workload}", "",
             "| layer metric | value | unit | predicted to move | on |",
             "|---|---|---|---|---|"]
    for name, (moves, on) in LAYERS.items():
        lines.append(f"| {name} | {layer_metrics[name]:.6g} | "
                     f"{spec['per_layer'][name]['unit']} | {moves} | {on} |")
    client_p50 = latency_ms(sv["nominal"]["p50_ms"])
    codec = layer_metrics["serve.codec_us"] / 1e3
    handle = layer_metrics["serve.handle_us"] / 1e3
    residual = layer_metrics["serve.wire_queue_ms"]
    inside = tc["layers"]["score_nominal_us"]["p50"] / 1e3
    lines += [
        "",
        "Reconciliation (nominal phase, medians):",
        f"- client p50 {client_p50:.4f} ms = codec {codec:.4f} + handle "
        f"{handle:.4f} + residual {residual:.4f} ms "
        f"({100 * residual / client_p50:.1f}% of the client p50: sockets, "
        "admission wait, dispatch)",
        f"- handle {handle:.4f} ms vs ScoringEngine::ScoreTweetInto "
        f"{inside:.4f} ms on the same requests: residual "
        f"{handle - inside:.4f} ms (request validation and copies)",
        f"- harness.trace_overhead_frac "
        f"{layer_metrics['harness.trace_overhead_frac']:.4f} "
        f"(spanned {tc['replay_spanned_s']:.3f} s vs bare "
        f"{tc['replay_bare_s']:.3f} s over {tc['replayed_requests']} "
        "requests)",
        "- cold-path layers (core.score_cold_us, core.engine_self_us, "
        "core.user_block_us, text.*, graph.*, datagen.trending_us): " +
        ("nominal requests that missed a cache" if tc["cold_from_nominal"]
         else "no nominal request missed a cache, so they are timed on "
         "nominal requests scored by a fresh engine with empty caches"),
        f"- sample counts: " + ", ".join(
            f"{k} n={v['n']}" for k, v in tc["layers"].items()),
    ]
    return "\n".join(lines) + "\n"


def check_readme(spec):
    """README.md's metric tables must give each metric of BENCHMARK.json
    with its unit (and, end to end, its direction), and each layer metric
    with LAYERS' prediction. Returns the disagreements."""
    rows = {}
    for line in (BENCH_DIR / "README.md").read_text().splitlines():
        cells = [c.strip().replace("`", "") for c in line.strip("| ")
                 .split(" | ")]
        if line.startswith("| `") and len(cells) >= 4:
            rows[cells[0]] = cells
    problems = []
    for name, m in spec["end_to_end"].items():
        if rows.get(name, [None] * 3)[1:3] != [m["unit"], m["better"]]:
            problems.append(f"README.md: end-to-end row of {name}")
    for name, m in spec["per_layer"].items():
        cells = rows.get(name, [None] * 5)
        if [cells[1], cells[3], cells[4]] != [m["unit"], *LAYERS[name]]:
            problems.append(f"README.md: layer row of {name}")
    return problems


def check_metrics_of_failed_phase():
    """A nominal phase whose quantiles are misses (null) still yields every
    metric: the latency reads as the response timeout. Returns problems."""
    counts = {"serve.coalesce.batches": 0,
              "serve.coalesce.batched_requests": 0,
              "serve.responses": 10, "serve.shed": 990}
    sv = {"workload": "long_tail", "cold_starts_s": [9.0, 9.5],
          "serve_rss_mb": 250,
          "nominal": {"sent": 1000, "shed": 0, "error": 0, "timeout": 990,
                      "mismatch": 0, "p50_ms": None, "p99_ms": None,
                      "send_lag_p99_ms": 0.5},
          "ladder": {"slo_qps": 0.0}, "overload": {"ok_per_s": 4.0},
          "kmetrics": {"overload": counts,
                       "queue_depth_peak_after_nominal": 1024}}
    tr = {"ok": True, "train_s": 20.0, "train_rss_mb": 500.0,
          "cli_metrics": [0.76]}
    layer_names = ["serve.codec_us", "serve.handle_us", "score_nominal_us",
                   "core.score_warm_us", "core.score_cold_us",
                   "core.user_block_us", "core.news_window_us",
                   "core.engine_self_us", "core.assemble_us",
                   "text.tfidf_us", "text.doc2vec_us", "graph.bfs_us",
                   "graph.bfs_reached", "datagen.trending_us",
                   "nn.forward_us_per_row"]
    tc = {"layers": {k: {"p50": 5.0, "n": 3} for k in layer_names},
          "pipeline_s": {k: 1.0 for k in (
              "core.restore", "core.model_load", "core.features_build",
              "core.task_build", "core.fit", "core.eval", "load.import",
              "datagen.generate", "io.ckpt_read", "io.bundle_save")},
          "core.tweet_cache_hit_frac": 0.1, "core.user_cache_hit_frac": 0.6,
          "harness.trace_overhead_frac": 0.01, "replay_spanned_s": 1.0,
          "replay_bare_s": 0.99, "replayed_requests": 3,
          "cold_from_nominal": True}
    problems = []
    metrics, attempted, failed = end_to_end(1.0, tr, sv)
    if metrics["p50_ms"] != RESPONSE_TIMEOUT_MS or failed != 990 or \
            metrics["cold_start_s"] != 9.25:
        problems.append(f"end_to_end of a failed phase: {metrics}")
    layers = per_layer(sv, tc)
    if layers["p99_ms"] != RESPONSE_TIMEOUT_MS:
        problems.append(f"per_layer of a failed phase: {layers}")
    report("long_tail", sv, tc, layers, load_spec())
    if set(layers) != set(LAYERS):
        problems.append("per_layer does not give every layer metric")
    return problems


def self_test(bdir):
    problems = check_readme(load_spec()) + check_metrics_of_failed_phase()
    for p in problems:
        log(f"self-test: {p}")
    build(bdir)
    run(["cmake", "--build", str(bdir), "-j4", "--target",
         "perfbench_stats_test"], ROOT, 600)
    res = subprocess.run([str(bdir / "perfbench_stats_test")])
    return res.returncode or (1 if problems else 0)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=12.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="build and run the statistics self-tests")
    args = ap.parse_args()
    bdir = build_dir()
    if args.self_test:
        return self_test(bdir)
    if args.workload is None:
        ap.error("--workload is required")

    spec = load_spec()
    bins = build(bdir)
    cache = cache_dir(bdir, bins)
    runs = bdir / "perfbench_runs"
    rdir = runs / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    shutil.rmtree(rdir, ignore_errors=True)
    rdir.mkdir(parents=True)
    try:
        problems = []
        world_info = {}
        if args.trace == 0 or not (cache / "universe.bin").is_file():
            # The untimed traced run reuses this build's cached world and
            # bundle, and makes them first if no run has yet.
            repeats = SETUP_REPEATS if args.trace == 0 else 1
            setup_s, world, world_info, same, digest = setup_world(
                bins, rdir, repeats)
            if not same:
                problems.append("repeated generate runs differ")
            tr = train(bins, rdir, world)
            if not tr["ok"]:
                raise BenchError("train-retweet failed or printed no metrics")
            problems += ensure_cache(bins, cache, rdir, world, digest, tr)
            bundle = rdir / "bundle"
        if args.trace == 1:
            world, bundle = cache / "world", cache / "bundle"

        sv = None
        for attempt in range(2):
            sv = serve(bins, cache, rdir, args.workload, args.seed,
                       args.seconds, world, bundle,
                       COLD_STARTS if args.trace == 0 else 1)
            lag = sv["nominal"]["send_lag_p99_ms"]
            if lag <= SEND_LAG_SHARE * SLO_P99_MS:
                break
            log(f"generator ran {lag:.2f} ms late at p99 (limit "
                f"{SEND_LAG_SHARE * SLO_P99_MS} ms); attempt {attempt + 1}")
        if not world_info:
            world_info = {"tweets": sv["num_tweets"], "users": sv["num_users"]}
        record = run_record(args, bdir, rdir, sv, world_info)
        valid = sv["nominal"]["send_lag_p99_ms"] <= SEND_LAG_SHARE * SLO_P99_MS
        record["valid"] = valid
        check = sv["check"]
        if check["mismatched_responses"]:
            problems.append(f"{check['mismatched_responses']} responses "
                            "differ from the in-process reference scores")
        if check["connection_errors"] or not sv["daemon_clean_exit"]:
            problems.append("daemon connection error or unclean exit")
        if sv["warmup"]["misses"]:
            problems.append("warm-up requests failed")
        record["problems"] = problems
        record["checked"] = {"responses": check["responses"],
                             "scores": check["scores"]}
        record["nominal"] = {k: sv["nominal"][k] for k in
                             ("sent", "p50_ms", "p99_ms",
                              "p99_reportable", "send_lag_p99_ms")}
        record["ladder"] = [[round(st["rate"], 1), st["slo_pass"]]
                            for st in sv["ladder"]["steps"]]
        record["serve_wall_s"] = sv["wall_s"]
        record["cold_starts_s"] = sv["cold_starts_s"]

        if args.trace == 0:
            metrics, attempted, failed = end_to_end(setup_s, tr, sv)
            record["train_cli_line"] = tr["line"]
            kind = "end_to_end"
        else:
            tc = trace(bins, cache, rdir, args.workload, args.seed,
                       args.seconds)
            if not tc["replay_consistent"] or not tc["shadow_cache_consistent"]:
                problems.append("traced replay disagrees with the engine")
            traced_bundle = rdir / "tracework" / "bundle" / "model.ckpt"
            if sha256_file(traced_bundle).hexdigest() != \
                    (cache / "bundle.sha256").read_text():
                problems.append("the traced train pipeline does not "
                                "reproduce train-retweet's bundle")
            metrics = per_layer(sv, tc)
            attempted = sv["nominal"]["sent"]
            failed = (sv["nominal"]["shed"] + sv["nominal"]["error"]
                      + sv["nominal"]["timeout"] + sv["nominal"]["mismatch"])
            kind = "per_layer"
            text = report(args.workload, sv, tc, metrics, spec)
            (runs / f"report-{args.workload}-s{args.seed}.md").write_text(text)
            shutil.copy(rdir / "spans.json",
                        runs / f"spans-{args.workload}-s{args.seed}.json")
            record["traced_macro_f1"] = tc["traced_macro_f1"]
            record["train_cli_line"] = (cache / "train_line.txt").read_text()
            print(text)
        (runs / f"record-{args.workload}-s{args.seed}-t{args.trace}.json") \
            .write_text(json.dumps(record, indent=1) + "\n")
        print("record: " + json.dumps(record, sort_keys=True))
        if not valid:
            log("run invalid: the generator could not keep its schedule")
            return 3
        result = {
            "correct": not problems,
            "attempted": int(attempted),
            "failed": int(failed),
            "metrics": {k: {"value": float(v), "unit": spec[kind][k]["unit"]}
                        for k, v in metrics.items()},
        }
        print(json.dumps(result), flush=True)
        return 0
    finally:
        shutil.rmtree(rdir, ignore_errors=True)


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as e:
        log(str(e))
        sys.exit(1)
