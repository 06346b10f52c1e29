"""Launch a ``repro serve`` daemon for the serve workloads.

    python3 perfbench/daemon.py --address .bench_build/serve.sock --workers 2 [--cpu N] [--trace PATH]

With ``--cpu`` the daemon, and the workers it forks, run on that core only.
With ``--trace`` the intake wrappers are installed before the
``CompileServer`` is built, and the spans are written to ``PATH`` when the
daemon is shut down.  Prints ``ready`` once the socket accepts connections.
"""

from __future__ import annotations

import argparse
import os
import signal
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--address", required=True)
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--cpu", type=int)
    parser.add_argument("--trace")
    args = parser.parse_args()
    if args.cpu is not None:
        os.sched_setaffinity(0, {args.cpu})
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

    from repro.service.server import CompileServer, ServeConfig

    recorder = None
    if args.trace:
        from perfbench.tracing import Recorder, install_intake_wrappers

        recorder = Recorder()
        install_intake_wrappers(recorder)
    server = CompileServer(ServeConfig(address=args.address, workers=args.workers))
    signal.signal(signal.SIGTERM, lambda *_: server.close())
    server.start()
    print("ready", flush=True)
    try:
        server.wait()
    finally:
        server.close()
        if recorder is not None:
            recorder.write_chrome(args.trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
