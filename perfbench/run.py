"""Run one benchmark workload and print its metrics as the last stdout line.

    python3 perfbench/run.py --workload line24-eff --seed 1 --seconds 16 --trace 0

Run from the repository root.  ``--trace 0`` prints every end-to-end metric,
``--trace 1`` every per-layer metric (and writes the spans under
``.bench_build/trace/``).  The SABRE kernel backend is pinned with
``--kernels``; the native extension is built from source on first use.
Untraced runs pin the timed work to one core and report its times
speed-normalised by a sampler on that core (``perfbench/speed.py``).
See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = ".bench_build"
WORKLOADS = ("line24-eff", "suite-full", "serve-hot", "serve-cold")


def _log(message: str) -> None:
    print(f"[perfbench] {message}", file=sys.stderr, flush=True)


def ensure_native() -> None:
    """Build ``repro.kernels._sabre_native`` in place when it does not import."""
    probe = [sys.executable, "-c", "from repro.kernels import _native_module; _native_module()"]
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    if subprocess.run(probe, env=env, cwd=ROOT, capture_output=True).returncode == 0:
        return
    _log("building the native SABRE kernel")
    subprocess.run(
        [sys.executable, "setup.py", "-q", "build_ext", "--inplace",
         "--build-temp", os.path.join(BUILD, "native", "tmp"),
         "--build-lib", os.path.join(BUILD, "native", "lib")],
        cwd=ROOT, check=True, stdout=sys.stderr,
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=16.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--kernels", choices=("native", "py"), default="native",
                        help="SABRE scoring backend (REPRO_KERNELS), pinned per benchmark")
    parser.add_argument("--hot-rate", type=float, default=8.0,
                        help="serve-hot open-loop rate, jobs/s")
    parser.add_argument("--cold-rate", type=float, default=8.0,
                        help="serve-cold open-loop rate, jobs/s")
    parser.add_argument("--setup-probe", metavar="WORKLOAD", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        _log(f"no repro sources under {ROOT}/src; run from a repository checkout")
        return 2
    os.environ["REPRO_KERNELS"] = args.kernels
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src"), ROOT] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    )
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    os.chdir(ROOT)
    from perfbench import compile_bench, metrics, speed

    if args.setup_probe:
        compile_bench.setup_probe(args.setup_probe)
        print("ready", flush=True)
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.kernels == "native":
        ensure_native()

    from repro.kernels import backend_info

    backend = backend_info()
    if backend["backend"] != args.kernels:
        _log(f"kernel backend {backend['backend']!r} is not the pinned {args.kernels!r}")
        return 3

    started = time.perf_counter()
    # Everything timed (for serve workloads: client, daemon and workers) runs
    # on the one core that the speed sampler watches.
    cpu = speed.work_cpu()
    os.sched_setaffinity(0, {cpu})
    if args.workload.startswith("serve"):
        from perfbench import serve_bench

        rate = args.hot_rate if args.workload == "serve-hot" else args.cold_rate
        if args.trace:
            values, info = serve_bench.run(args.workload, args.seed, args.seconds, rate, cpu,
                                           trace=True)
        else:
            with speed.Sampler(cpu) as sampler:
                values, info = serve_bench.run(args.workload, args.seed, args.seconds, rate, cpu,
                                               sampler=sampler)
    elif args.trace:
        from perfbench.tracing import Recorder

        recorder = Recorder()
        values, info = compile_bench.run_traced(args.workload, args.seed, recorder)
        recorder.write_chrome(os.path.join(BUILD, "trace", f"{args.workload}-s{args.seed}.json"))
    else:
        with speed.Sampler(cpu) as sampler:
            values, info = compile_bench.run(args.workload, args.seed, args.seconds, sampler)
    if not args.trace:
        values["ok_frac"] = (info["attempted"] - info["failed"]) / info["attempted"]

    for error in info["errors"][:20]:
        _log(f"FAILED {error}")
    units = metrics.PER_LAYER if args.trace else metrics.END_TO_END
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "host": os.uname().nodename,
        "cpus": os.cpu_count(), "kernels": backend, "wall_s": time.perf_counter() - started,
        **{k: v for k, v in info.items() if k not in ("errors", "attempted", "failed", "wrong")},
    }, default=str))
    print(json.dumps(metrics.result(
        info["wrong"] == 0, info["attempted"], info["failed"], values, units
    )))
    return 0


if __name__ == "__main__":
    sys.exit(main())
