"""Start the ``repro-cla`` CLI, optionally with span wrappers installed.

    python3 perfbench/bootstrap.py [--spans FILE] <repro-cla arguments>

The edit_serve workload launches its daemon through this script in both
the untraced and the traced run, so the two have the same process
layout.  With ``--spans`` the wrappers from :mod:`perfbench.layers` are
installed before the CLI starts and the spans are written to FILE at
exit (forked workers spill to ``FILE.<pid>.jsonl``).
"""

from __future__ import annotations

import atexit
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main(argv: list[str]) -> int:
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    spans = None
    if argv[:1] == ["--spans"]:
        spans, argv = argv[1], argv[2:]
    from repro.driver.cli import main as cli_main

    if spans is not None:
        from perfbench.layers import TARGETS
        from perfbench.spans import SpanRecorder, install

        recorder = SpanRecorder(spans)
        _undo, missing = install(recorder, TARGETS)
        if missing:
            print(f"perfbench: unseen entry points: {', '.join(missing)}",
                  file=sys.stderr)
        atexit.register(recorder.write, spans)
    return cli_main(argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
