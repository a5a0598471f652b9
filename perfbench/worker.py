"""Child process of the benchmark: one set-up probe or one series of passes.

    python3 worker.py setup  --workload W --seed S --workdir D [--smoke]
    python3 worker.py passes --workload W --seed S --workdir D --seconds X
                             --result FILE [--trace] [--spans FILE] [--smoke]

``setup`` prints the seconds from interpreter start-up to a built
workload: importing ``cho`` plus one ``Workload.build``.  ``passes`` runs
rounds (one pass of each of the workload's operations) for about
``--seconds`` seconds and writes every pass, the process's peak RSS and,
with ``--trace``, the per-layer metrics of each round to ``--result``.
Run by ``run.py``, which generates the inputs first.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402  (everything below counts towards set-up)
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402


def _setup(wl):
    from reference import HostSpeed, kernel

    t = time.perf_counter()
    kernel()  # the first call warms the kernel; it is not set-up
    warm = time.perf_counter() - t
    with HostSpeed() as hs:
        import cho  # noqa: F401

        wl.build()
        setup = time.perf_counter() - T0 - warm
    print(json.dumps({"setup_s": setup - hs.spent, "kernel_s": hs.kernel_s}))


def _passes(wl, args):
    import reference

    # The kernel would run inside traced spans; traced rounds go without.
    wl.host_speed = not args.trace
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    from workloads import Gradient2D

    # Warm-up: a tiny gradient pass exercises every solver path once, so
    # that lazy imports and first-call costs stay out of the timed passes.
    warm = Gradient2D(wl.seed, wl.workdir, smoke=True)
    warm.derivatives(warm.build())
    objects = wl.build()
    reference.kernel()

    rounds = []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        if tracer is not None:
            tracer.reset()
        passes = [wl.run_pass(objects, op) for op in wl.ops]
        facts = {}
        for res in passes:
            for key, value in res.facts.items():
                facts[key] = facts.get(key, 0) + value
        record = {
            "passes": [{"op": r.op, "wall_s": r.wall_s, "cpu_s": r.cpu_s,
                        "kernel_s": r.kernel_s, "attempted": r.attempted,
                        "failures": r.failures}
                       for r in passes],
            "facts": facts,
            "seconds": time.perf_counter() - began,
        }
        if tracer is not None:
            record["layers"] = tracer.metrics()
            if not rounds:
                first_spans = tracer.spans()
        rounds.append(record)
        typical = statistics.median(r["seconds"] for r in rounds)
        if time.perf_counter() - start + typical > args.seconds:
            break
    if tracer is not None and args.spans:
        import numpy as np

        np.savez_compressed(args.spans, **first_spans)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump({
            "rounds": rounds,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }, fh)


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("setup", "passes"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--result")
    parser.add_argument("--spans")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload](args.seed, args.workdir, smoke=args.smoke)
    if args.mode == "setup":
        _setup(wl)
    else:
        _passes(wl, args)


if __name__ == "__main__":
    sys.exit(main())
