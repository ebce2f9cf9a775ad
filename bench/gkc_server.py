"""Launch `knowplug serve --port 0` in its own process, optionally traced.

    python3 bench/gkc_server.py --snapshot-dir DIR [--trace-out FILE]

The server prints `serving on HOST:PORT` once it listens. On SIGINT the
serve command stops the server and returns; with --trace-out the spans
recorded by the wrapped server-side functions are then written to FILE.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--snapshot-dir", required=True)
    ap.add_argument("--trace-out")
    args = ap.parse_args()
    from knowplug import cli
    tracer = None
    if args.trace_out:
        from tracer import SERVER_TARGETS, Tracer
        tracer = Tracer().install(SERVER_TARGETS)
    rc = cli.main(["serve", "--port", "0", "--snapshot-dir", args.snapshot_dir])
    if tracer is not None:
        tracer.dump(args.trace_out + ".tmp")
        os.replace(args.trace_out + ".tmp", args.trace_out)
    return rc


if __name__ == "__main__":
    sys.exit(main())
