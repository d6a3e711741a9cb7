"""Traced stand-in for `python -m fockpair.cli`, used by cli-cold's traced run.

Usage: cli_child.py SPANS_OUT ARGV...

Times the package import, installs the span wrappers, calls
`fockpair.cli.main(ARGV)`, writes the spans to SPANS_OUT and exits with the
CLI's exit code.
"""

import sys
import time

from tracing import Tracer, install


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter()
    import fockpair.cli

    import_s = time.perf_counter() - t0
    tracer = Tracer()
    install(tracer)
    try:
        return fockpair.cli.main(argv)
    finally:
        tracer.dump(out_path, {"import_s": import_s})


if __name__ == "__main__":
    sys.exit(main())
