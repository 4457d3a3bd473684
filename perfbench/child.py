"""Start one `sumhess` process in a benchmark mode, the way the console
script does (`sumhess.cli.main` on the given arguments).

    python3 perfbench/child.py setup -- <sumhess arguments>
        Stops the process as the subcommand starts its work (the sweep,
        the continuation solve or the first refinement study), after
        imports, argument and config parsing and building the problem.
        Prints `SETUP_AT <CLOCK_MONOTONIC seconds>` and exits 0; exits 3
        when the subcommand never started its work.

    python3 perfbench/child.py trace <path> -- <sumhess arguments>
        Installs the tracer, runs the subcommand under a `cli.main` span,
        writes the spans and counts to <path>.json / <path>.bin and exits
        with the subcommand's exit code.

Needs `src` on PYTHONPATH.
"""

from __future__ import annotations

import os
import sys
import time

SETUP_REACHED = 0
SETUP_MISSED = 3


def _setup(argv: list[str]) -> int:
    from sumhess import cli

    def stop(*args, **kwargs):
        print(f"SETUP_AT {time.clock_gettime(time.CLOCK_MONOTONIC)!r}", flush=True)
        os._exit(SETUP_REACHED)

    cli.run_inequality_suite = cli.continuation_solve = cli.refinement_study = stop
    rc = cli.main(argv)
    print(f"subcommand returned {rc} without starting its work", file=sys.stderr)
    return SETUP_MISSED


def _trace(path: str, argv: list[str]) -> int:
    import tracer
    from sumhess import cli

    t = tracer.Tracer()
    tracer.install(t)
    rc = t.span("cli.main", cli.main)(argv)
    t.dump(path)
    return rc


def main(args: list[str]) -> int:
    sep = args.index("--")
    mode, rest, argv = args[0], args[1:sep], args[sep + 1 :]
    if mode == "setup":
        return _setup(argv)
    if mode == "trace":
        return _trace(rest[0], argv)
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
