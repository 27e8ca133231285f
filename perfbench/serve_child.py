"""Run ``repro serve`` with the benchmark's span wrappers installed.

Usage: ``python serve_child.py SPANS_PATH serve [flags...]``.  The
wrappers and the collector callback are installed in this process, then
the same ``repro`` CLI entry point runs unchanged.  The spans are written
to *SPANS_PATH* when the server exits (SIGINT drains it first).
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import repro.cli  # noqa: E402
import repro.serving  # noqa: E402,F401  (imported so its modules get wrapped)
import tracing  # noqa: E402


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = tracing.Tracer()
    tracing.install(tracer)
    tracer.track_gc()
    try:
        return repro.cli.main(argv)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())
