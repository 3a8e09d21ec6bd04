"""Traced daemon launcher: install the layer spans, then run the daemon.

    python perfbench/launcher.py SPANS_OUT [daemon args...]

Equivalent to ``python -m repro.serve [daemon args...]`` except that the
benchmark's span wrappers (``spans.install_serving``) are installed
before the daemon's ``main`` runs; the spans are written to
``SPANS_OUT`` when the daemon exits after its SIGTERM drain.
"""

from __future__ import annotations

import sys

import common
import spans


def main(argv) -> int:
    out, daemon_args = argv[0], argv[1:]
    common.use_program()
    log = spans.SpanLog()
    spans.install_serving(log)
    from repro.serve.__main__ import main as serve_main

    try:
        return serve_main(daemon_args)
    finally:
        log.dump(out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
