import os
import sys

from .cli import main


def run() -> None:
    """Run main(), flush stdout and stderr, and os._exit(status): teardown frees only what the OS
    frees. SystemExit (--help, usage errors) and uncaught exceptions take the interpreter's exit."""
    status = main()
    for stream in filter(None, (sys.stdout, sys.stderr)):  # either is None if its fd was closed
        stream.flush()
    os._exit(status)


if __name__ == "__main__":
    run()
