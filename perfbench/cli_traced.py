"""Run the jordanlab CLI once with span tracing, then dump the spans.

Usage: python3 perfbench/cli_traced.py SPANS_OUT <jordanlab CLI arguments>

The import of `jordanlab.cli` is recorded as the span "cli.import"; the
exit code is the CLI's own.
"""

import sys

from tracer import Tracer


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    with tracer.span("cli.import"):
        import jordanlab.cli as cli
    tracer.install()
    tracer.op = "cli"
    try:
        rc = cli.main(argv)
    except SystemExit as ex:
        rc = ex.code
    finally:
        sys.stdout.flush()
        tracer.dump(out)
    return rc


if __name__ == "__main__":
    sys.exit(main())
