import os
import sys

from .cli import main


def run() -> None:
    """Run main(), flush stdout and os._exit(status): teardown frees only what the OS frees.
    SystemExit (--help, usage errors) and uncaught exceptions take the interpreter's exit."""
    status = main()
    if sys.stdout is not None:  # stderr is line-buffered: it holds only a line it failed to write
        sys.stdout.flush()
    os._exit(status)


if __name__ == "__main__":
    run()
