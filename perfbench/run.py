"""tqnet benchmark: end-to-end metrics, output checks and a per-layer trace.

    python3 perfbench/run.py                        # every workload, one process each
    python3 perfbench/run.py --workload etth1_fit_forecast --seed 3 --seconds 50 --trace 0

Run it from the root of a checkout; it imports tqnet from ``src/`` there
and nowhere else.  A single-workload run prints its metrics (name, value,
unit, sample count), the output checks, the environment and the arithmetic
fingerprint, then, as its last line, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end ones of BENCHMARK.json, with ``--trace 1`` the
per-layer ones.  The exit code is non-zero when an output check fails.
Each run appends a full record to ``.perfbench/runs.jsonl``.  See README.md
for the definitions.
"""

import time

T_START = time.perf_counter()  # set-up time is measured from here

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from contextlib import contextmanager  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench"
WORKLOAD_NAMES = ("etth1_fit_forecast", "grid_ablate")
# set-up is timed in this many extra fresh processes; setup_s is the median
SETUP_PROBES = 4
# BENCHMARK.json end_to_end
END_TO_END = ("setup_s", "run_s", "step_ms_p95", "peak_rss_mb")
# batched-GEMM floor of the ETT-shape step, from the ROADMAP baseline
ROADMAP_GEMM_FLOOR_MS_PER_SAMPLE = 0.70
TRACE_COVERAGE_MIN = 0.90


def pin_blas_threads():
    """One BLAS thread (set before numpy loads).

    On a 2-vCPU VM a second thread left the ETT-shape pass time unchanged
    and doubled its CPU time, spinning; a run that occupies both CPUs is
    slowed by anything else the host runs on either of them.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def import_tqnet():
    src = ROOT / "src"
    if not (src / "tqnet" / "__init__.py").is_file():
        raise SystemExit(f"error: no tqnet package under {src}; run from a checkout")
    sys.path.insert(0, str(src))
    import tqnet
    from tqnet import analysis, checkpoint, cli, data, kernels, model, tensor, training  # noqa: F401

    if Path(tqnet.__file__).resolve().parent != (src / "tqnet").resolve():
        raise SystemExit(f"error: imported tqnet from {tqnet.__file__}, not {src}")
    return tqnet


# ---------------------------------------------------------------------------
# environment record
# ---------------------------------------------------------------------------

def git_sha():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def blas_info():
    """(library, threads) of the BLAS numpy loaded; None where unknown."""
    import ctypes

    import numpy as np

    try:
        cfg = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        name = f"{cfg['name']} {cfg.get('version', '')}".strip()
    except (KeyError, TypeError, ValueError):
        name = None
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh
                           if "blas" in line.rsplit("/", 1)[-1].lower()})
    except OSError:
        libs = []
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                return name, int(fn())
    return name, None


def environment(tq, seed):
    import numpy as np
    import scipy

    blas, threads = blas_info()
    return {
        "git_sha": git_sha(),
        "kernel_backend": tq.kernels.ACTIVE_BACKEND,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": threads,
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# one workload
# ---------------------------------------------------------------------------

@contextmanager
def workdir(name):
    path = OUT_DIR / f"work-{name}-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def count_ops(passes, outs, failure):
    """(attempted, failed): optimizer steps, scored windows and CLI calls."""
    attempted = failed = 0
    for stats, out in zip(passes, outs):
        attempted += stats.steps + stats.eval_windows + len(out.get("predict_ms", ()))
        failed += stats.nonfinite_steps + stats.nonfinite_eval_windows
        failed += out.get("nonfinite_preds", 0)
        if "cli_rc" in out:
            attempted += 1
            failed += out["cli_rc"] != 0
    if failure is not None:  # the operation in flight raised
        attempted += 1
        failed += 1
    return attempted, failed


def end_to_end(wl, passes, outs, setup_samples, peak_rss_mb, attempted, failed):
    """Every end-to-end metric of the workload: name -> (value, unit, n)."""
    med = statistics.median
    m = {
        "setup_s": (med(setup_samples), "s", len(setup_samples)),
        "run_s": (med(p.wall_s for p in passes), "s", len(passes)),
    }
    rates = [p.eval_windows / sum(s for _, s in p.eval_calls) for p in passes]
    m["eval_windows_per_s"] = (med(rates), "windows/s", len(rates))
    rates = [p.train_samples / (sum(p.step_ms) / 1e3) for p in passes]
    m["train_samples_per_s"] = (med(rates), "windows/s", len(rates))
    latencies = {"step": [ms for p in passes for ms in p.step_ms],
                 "predict": [ms for o in outs for ms in o.get("predict_ms", ())]}
    for op, lat in latencies.items():
        if not lat:
            continue
        cuts = statistics.quantiles(lat, n=100, method="inclusive")
        for q in (50, 90, 95, 99):
            if q < 99 or len(lat) >= 1000:  # a percentile needs ten samples beyond it
                m[f"{op}_ms_p{q}"] = (cuts[q - 1], "ms", len(lat))
    m.update(wl.quality(passes, outs))
    m["peak_rss_mb"] = (peak_rss_mb, "MB", 1)
    m["failed_ops_ratio"] = (failed / attempted, "share", attempted)
    return m


def fingerprint(passes, outs):
    """Loss curves at full precision and parameter digests of the first pass."""
    fp = {"fits": [
        {"train_curve": f.train_curve, "val_curve": f.val_curve,
         "param_sha256": f.param_sha256}
        for f in passes[0].fits
    ]}
    if "preds_sha256" in outs[0]:
        fp["predictions_sha256"] = outs[0]["preds_sha256"]
    return fp


def setup_probe(name, seed):
    """Set-up time of a fresh process, as that process measured it."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
           "--seed", str(seed), "--setup-probe"]
    r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    if r.returncode != 0:
        raise RuntimeError(f"set-up probe exited {r.returncode}: {r.stderr.strip()}")
    return float(r.stdout.strip().splitlines()[-1])


def run_workload(args):
    tq = import_tqnet()
    from instrument import PassStats, Probe, Tracer, per_layer
    from workloads import WORKLOADS

    cls = WORKLOADS[args.workload]
    tracer = Tracer(tq) if args.trace else None
    with workdir(args.workload) as wd:
        if tracer is not None:
            tracer.install()
        try:
            wl = cls(tq, args.seed, wd)
        finally:
            if tracer is not None:
                tracer.uninstall()
        setup_samples = [time.perf_counter() - T_START]
        if args.setup_probe:
            print(repr(setup_samples[0]))
            return 0
        setup_agg = tracer.reset() if tracer is not None else None

        probe = Probe(tq)
        passes, outs, failure = [], [], None
        t_begin = time.perf_counter()
        try:
            while True:
                # a traced run alternates untraced and traced passes
                traced = tracer is not None and len(passes) % 2 == 1
                stats = PassStats(traced=traced)
                if traced:
                    tracer.install()
                probe.install(stats)
                out = {}
                t0 = time.perf_counter()
                try:
                    out = wl.run_pass()
                finally:
                    stats.wall_s = time.perf_counter() - t0
                    probe.uninstall()
                    if traced:
                        tracer.uninstall()
                    passes.append(stats)
                    outs.append(out)
                done = time.perf_counter() - t_begin >= args.seconds
                if done and (tracer is None or len(passes) >= 2):
                    break
        except Exception:  # reported as a failed operation, run marked incorrect
            failure = traceback.format_exc()
            print(failure, file=sys.stderr)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        checks = wl.checks(passes, outs) if failure is None else []
        attempted, failed = count_ops(passes, outs, failure)
        env = environment(tq, args.seed)
        record = {"workload": args.workload, "seconds": args.seconds,
                  "trace": args.trace, "passes": len(passes),
                  "pass_wall_s": [p.wall_s for p in passes], "environment": env,
                  "attempted": attempted, "failed": failed, "failure": failure}
        if failure is None:
            record["fingerprint"] = fingerprint(passes, outs)

        table, gated = {}, {}
        if failure is None and tracer is None:
            for _ in range(SETUP_PROBES):
                setup_samples.append(setup_probe(args.workload, args.seed))
            table = end_to_end(wl, passes, outs, setup_samples, peak_rss_mb,
                               attempted, failed)
            gated = {k: table[k] for k in END_TO_END}
        elif failure is None:
            traced = [p for p in passes if p.traced]
            plain = [p for p in passes if not p.traced]
            cli_ms = [o["cli_ms"] for p, o in zip(passes, outs) if p.traced and "cli_ms" in o]
            extra = {
                "checkpoint_bytes": getattr(wl, "checkpoint_bytes", 0),
                "cli_evaluate_ms": statistics.median(cli_ms) if cli_ms else 0.0,
                "trace_overhead": statistics.median(p.wall_s for p in traced)
                / statistics.median(p.wall_s for p in plain) - 1.0,
            }
            layers = per_layer(setup_agg, tracer.agg, traced, extra)
            table = gated = {k: (v, u, len(traced)) for k, (v, u) in layers.items()}
            cov = layers["trace.coverage"][0]
            checks.append({"name": "trace_coverage", "ok": cov >= TRACE_COVERAGE_MIN,
                           "detail": f"{cov:.4f} of step wall time in spans "
                                     f"(need >= {TRACE_COVERAGE_MIN})"})
            record["spans"] = {
                f"{name}{' [step]' if in_step else ''}":
                    {"count": c, "total_ms": tot * 1e3, "self_ms": own * 1e3}
                for (name, in_step), (c, tot, own) in sorted(tracer.agg["spans"].items())
            }

    correct = failure is None and bool(checks) and all(c["ok"] for c in checks)
    record.update(metrics={k: {"value": v, "unit": u, "n": n} for k, (v, u, n) in table.items()},
                  checks=checks, correct=correct)
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / "runs.jsonl", "a") as fh:
        fh.write(json.dumps(record) + "\n")

    print(f"== {args.workload}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {args.trace}  passes {len(passes)}")
    print("environment " + json.dumps(env))
    print(f"{'metric':44s} {'value':>16s} {'unit':10s} {'n':>7s}")
    for k, (v, u, n) in table.items():
        print(f"{k:44s} {v:16.6g} {u:10s} {n:7d}")
    floor = ROADMAP_GEMM_FLOOR_MS_PER_SAMPLE
    if args.workload == "etth1_fit_forecast" and "train_samples_per_s" in table:
        ms = 1e3 / table["train_samples_per_s"][0]
        print(f"{args.workload}: {ms:.3f} ms per training sample, {ms / floor:.2f}x "
              f"the ROADMAP batched-GEMM floor of {floor} ms")
    if args.workload == "etth1_fit_forecast" and "model.gemm_gflop_per_sample" in table:
        gflop, rate = table["model.gemm_gflop_per_sample"][0], table["model.gemm_gflops"][0]
        print(f"{args.workload}: {gflop:.4f} GFLOP of GEMM per sample (computed from shapes); "
              f"the {floor} ms floor needs {gflop / floor * 1e3:.1f} GFLOP/s, "
              f"linear and matmul ran at {rate:.1f} GFLOP/s")
    for c in checks:
        print(f"check {c['name']:32s} {'PASS' if c['ok'] else 'FAIL'}  {c['detail']}")
    if "fingerprint" in record:
        print("fingerprint " + json.dumps(record["fingerprint"]))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in gated.items()},
    }))
    return 0 if correct else 1


# ---------------------------------------------------------------------------
# every workload
# ---------------------------------------------------------------------------

def run_all(args):
    """Each workload in its own process; exits 1 if any of them failed."""
    results, rc = {}, 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        sys.stdout.write(r.stdout)
        sys.stderr.write(r.stderr)
        try:
            res = json.loads(r.stdout.strip().splitlines()[-1])
        except (ValueError, IndexError):
            res = None
        if r.returncode != 0 or res is None or not res.get("correct"):
            rc = 1
        results[name] = {"exit": r.returncode, "result": res}
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / "report.json").write_text(json.dumps(results, indent=2) + "\n")
    print("== summary")
    for name, r in results.items():
        res = r["result"] or {}
        status = "ok" if r["exit"] == 0 and res.get("correct") else "FAILED"
        print(f"{name:16s} {status:7s} attempted {res.get('attempted')} "
              f"failed {res.get('failed')}")
    return rc


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", default="all", choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, default=0, choices=(0, 1))
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    pin_blas_threads()
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
