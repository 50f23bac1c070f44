"""`python -m overcong` and the installed `overcong` script."""

import gc

from .cli import main


def run() -> int:
    """Run the command line once, as the process's whole life."""
    # Everything imported so far (numpy's objects most of all) lives until
    # exit, so move it out of the collector's reach: no collection while
    # the command runs, nor the ones at interpreter shutdown, walks it
    # again.  Not in cli.main, which tests call many times in one process,
    # nor at package import, which API users do.
    gc.freeze()
    return main()


if __name__ == "__main__":
    raise SystemExit(run())
