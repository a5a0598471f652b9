"""Benchmark of the cho pipeline: end-to-end metrics and a traced per-layer split.

    python3 perfbench/run.py --workload optimize-1d --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Run from anywhere inside a checkout; the program is imported from its
``src`` directory.  Each workload runs in fresh child processes:

* set-up probes, each a new interpreter that imports ``cho`` and builds
  the workload's objects once (``setup_s`` is their median);
* one worker that runs rounds of passes for about ``--seconds`` seconds
  (``wall_s`` is the median time of one round, ``peak_rss_mb`` the
  worker's peak RSS).  A round runs each of the workload's operations
  once; its median time is the sum of the operations' median times.

``wall_s`` and ``setup_s`` are rescaled to a fixed host speed with the
reference kernel sampled during each timed call (see ``reference.py``);
the measured seconds are printed and recorded next to them.

With ``--trace 1`` the seconds are split between an untraced worker and
a traced one, and the per-layer metrics of the traced rounds are
reported with the tracing overhead (traced minus untraced measured
round time).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
0 when every operation passed its correctness gates, 1 when one did not
and 2 when the benchmark could not run at all.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")
RESULTS = os.path.join(ROOT, ".perfbench_results")
SETUP_PROBES = 7
SETUP_TIMEOUT_S = 60
PASSES_MARGIN_S = 120   # past --seconds: warm-up, the last round, writing results

sys.path.insert(0, HERE)
from reference import REFERENCE_S  # noqa: E402
from tracer import VERIFY_GROUPS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    **{f"sparse.{m}": u for m, u in (
        ("bmat_s", "s"), ("bmat_calls", "count"), ("factor_s", "s"),
        ("factor_calls", "count"), ("trisolve_s", "s"), ("trisolve_calls", "count"),
        ("factor_dofs", "count"), ("factor_nnz", "count"))},
    **{f"forward.{m}": u for m, u in (
        ("solve_s", "s"), ("solve_calls", "count"), ("self_s", "s"),
        ("steps", "count"), ("newton_iters", "count"), ("newton_per_step", "1"))},
    "sensitivity.solve_s": "s", "sensitivity.solve_calls": "count",
    "sensitivity.self_s": "s",
    "adjoint.solve_s": "s", "adjoint.solve_calls": "count", "adjoint.self_s": "s",
    "adjoint.gradient_s": "s",
    "control.optimize_s": "s", "control.iterations": "count",
    "control.linesearch_solves": "count", "control.accept_ratio": "1",
    "control.algebra_s": "s", "control.final_J": "1",
    "potentials.eval_s": "s", "potentials.eval_calls": "count",
    "potentials.yosida_s": "s", "potentials.yosida_calls": "count",
    "spaces.assemble_s": "s", "spaces.assemble_calls": "count",
    "mesh.build_s": "s", "mesh.build_calls": "count", "config.build_s": "s",
    "output.write_s": "s", "output.files": "count", "output.bytes": "B",
    "cli.main_s": "s",
    **dict.fromkeys(VERIFY_GROUPS, "s"),
    "verify.checks_passed": "count",
    "process.cpu_s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
}
# Per-layer metrics read from a workload's checked outputs, not from spans.
FACT_METRICS = ("control.final_J", "output.files", "output.bytes", "verify.checks_passed")


def _child_env():
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # One caller, no extra threads: native libraries stay single-threaded.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def _worker(args, workdir, *extra, timeout=SETUP_TIMEOUT_S):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), *extra,
           "--workload", args.workload, "--seed", str(args.seed), "--workdir", workdir]
    if args.smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, cwd=workdir, env=_child_env(), capture_output=True,
                          text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(extra[:1])} worker exited {proc.returncode}:\n"
                           + proc.stderr[-2000:])
    return proc.stdout


def _passes(args, workdir, seconds, trace):
    result = os.path.join(workdir, f"passes-{int(trace)}.json")
    extra = ["passes", "--seconds", str(seconds), "--result", result]
    if trace:
        os.makedirs(RESULTS, exist_ok=True)
        extra += ["--trace", "--spans",
                  os.path.join(RESULTS, f"spans_{args.workload}_seed{args.seed}.npz")]
    _worker(args, workdir, *extra, timeout=seconds + PASSES_MARGIN_S)
    with open(result, encoding="utf-8") as fh:
        return json.load(fh)


def _quartile_spread(values):
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def _environment(args, walls):
    import numpy
    import scipy

    cpu_model, llc = "unknown", "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu_model = next(line.split(":", 1)[1].strip() for line in fh
                             if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    cache = "/sys/devices/system/cpu/cpu0/cache"
    if os.path.isdir(cache):
        levels = sorted(d for d in os.listdir(cache) if d.startswith("index"))
        if levels:
            with open(os.path.join(cache, levels[-1], "size"), encoding="utf-8") as fh:
                llc = fh.read().strip()
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                capture_output=True, timeout=10).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        commit = ""
    return {
        "nproc": os.cpu_count(), "cpu_model": cpu_model, "llc": llc,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "commit": commit or "unknown",
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": int(args.trace), "rounds": len(walls),
        "round_wall_s": walls, "round_spread": _quartile_spread(walls),
    }


def _round_wall(rounds, seconds=lambda p: p["wall_s"]):
    """Median time of one round: the sum over operations of their medians."""
    by_op = {}
    for rnd in rounds:
        for p in rnd["passes"]:
            by_op.setdefault(p["op"], []).append(seconds(p))
    return sum(statistics.median(v) for v in by_op.values())


def _rescaled(timed, key="wall_s"):
    """A pass's or set-up's seconds at the reference host speed."""
    return timed[key] * REFERENCE_S / timed["kernel_s"]


def _per_layer(rounds, plain_wall):
    """Per-layer metrics of the traced rounds: medians over rounds."""
    layers = {k: statistics.median(r["layers"][k] for r in rounds)
              for k in rounds[0]["layers"]}
    facts = rounds[0]["facts"]
    metrics = {}
    for name in PER_LAYER:
        if name in layers:
            metrics[name] = layers[name]
        elif name in FACT_METRICS:
            # Checked facts only some workloads produce; 0 where not.
            metrics[name] = facts.get(name, 0)
    metrics["process.cpu_s"] = _round_wall(rounds, lambda p: p["cpu_s"])
    metrics["trace.overhead_s"] = _round_wall(rounds) - plain_wall
    missing = sorted(set(PER_LAYER) - set(metrics))
    if missing:
        raise RuntimeError("traced run produced no " + ", ".join(missing))
    return metrics


def run_workload(args):
    os.makedirs(WORK_ROOT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT)
    try:
        WORKLOADS[args.workload](args.seed, workdir, smoke=args.smoke).write_inputs()
        probes = [json.loads(_worker(args, workdir, "setup").strip().splitlines()[-1])
                  for _ in range(SETUP_PROBES)]
        if args.trace:
            plain = _passes(args, workdir, args.seconds / 2, trace=False)
            traced = _passes(args, workdir, args.seconds / 2, trace=True)
            runs = [plain, traced]
        else:
            plain = _passes(args, workdir, args.seconds, trace=False)
            runs = [plain]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    passes = [p for run in runs for rnd in run["rounds"] for p in rnd["passes"]]
    attempted = sum(p["attempted"] for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    wall = _round_wall(plain["rounds"])
    if args.trace:
        metrics = _per_layer(traced["rounds"], wall)
        units = PER_LAYER
    else:
        metrics = {
            "wall_s": _round_wall(plain["rounds"], _rescaled),
            "setup_s": statistics.median(_rescaled(p, "setup_s") for p in probes),
            "peak_rss_mb": plain["peak_rss_mb"],
        }
        units = END_TO_END

    walls = [sum(p["wall_s"] for p in rnd["passes"]) for rnd in plain["rounds"]]
    env = _environment(args, walls)
    kernel_s = statistics.median(p["kernel_s"] for rnd in plain["rounds"]
                                 for p in rnd["passes"])
    env.update(measured_wall_s=wall, measured_setup_s=statistics.median(
        p["setup_s"] for p in probes), kernel_s=kernel_s)
    record = {"environment": env, "setup": probes, "passes": passes,
              "metrics": metrics, "failures": failures}
    os.makedirs(RESULTS, exist_ok=True)
    path = os.path.join(RESULTS, f"BENCH_{args.workload}_seed{args.seed}_trace{int(args.trace)}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    print(json.dumps({"environment": env}))
    for failure in failures:
        print(f"FAILED {args.workload}: {failure}")
    print(f"{args.workload}: fail_ratio {len(failures) / attempted:.4g} (1) "
          f"= {len(failures)}/{attempted} operations")
    print(f"{args.workload}: measured wall {wall:.6g} (s), set-up "
          f"{env['measured_setup_s']:.6g} (s); reference kernel {kernel_s:.6g} (s), "
          f"rescaled to {REFERENCE_S} (s)")
    for name, value in metrics.items():
        print(f"{args.workload}: {name} {value:.6g} ({units[name]})")
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }


def run_all(args):
    """Every workload, each in fresh workers of its own, then one summary."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    rows = []
    for name in WORKLOADS:
        result = run_workload(argparse.Namespace(**{**vars(args), "workload": name}))
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            summary["metrics"][f"{name}.{metric}"] = entry
        rows.append((name, result))
    if not args.trace:
        print(f"\n{'workload':<24}{'wall_s (s)':>12}{'setup_s (s)':>13}"
              f"{'peak_rss_mb (MB)':>18}{'fail_ratio (1)':>16}")
        for name, result in rows:
            m = result["metrics"]
            print(f"{name:<24}{m['wall_s']['value']:>12.4f}{m['setup_s']['value']:>13.4f}"
                  f"{m['peak_rss_mb']['value']:>18.1f}"
                  f"{result['failed'] / result['attempted']:>16.4g}")
    return summary


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "cho", "__init__.py")):
        print(f"no cho sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    try:
        result = run_all(args) if args.workload == "all" else run_workload(args)
    except (RuntimeError, subprocess.TimeoutExpired, OSError, ValueError) as err:
        print(f"benchmark could not run: {err}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
