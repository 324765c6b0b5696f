"""Run ``repro.tools.server_main`` with the server-side span wrappers.

Usage::

    python3 perfbench/launcher.py --spans-out FILE -- [server_main args]

Installs the wrappers of ``layers.SERVER_TARGETS``, serves until SIGINT
exactly as ``python -m repro.tools.server_main`` would, then writes the
recorded spans to ``FILE``.  The program itself is unchanged.
"""

from __future__ import annotations

import argparse
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import layers  # noqa: E402
from spans import SpanRecorder  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="launcher")
    parser.add_argument("--spans-out", required=True)
    parser.add_argument("server_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    server_args = args.server_args
    if server_args[:1] == ["--"]:
        server_args = server_args[1:]

    from repro.tools import server_main

    recorder = SpanRecorder()
    layers.install(recorder, layers.SERVER_TARGETS)
    try:
        code = server_main.serve(server_main.build_parser().parse_args(server_args))
    finally:
        recorder.uninstall()
        recorder.dump(args.spans_out, "server")
    return code


if __name__ == "__main__":
    sys.exit(main())
