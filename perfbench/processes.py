"""Stop every process a benchmark process started, and wait for each.

Closing a :class:`repro.runtime.Runtime` joins its pool workers, but the
``multiprocessing`` resource tracker the pool starts stays up until its
parent exits, and is then left to whoever adopts it.  :func:`stop_children`
stops it (and any pool worker an error path left behind) and reaps it, so a
benchmark run ends with no process of its own still alive.

Run as a script, this module is the ``repro serve`` subprocess of the
``serve_mixed`` workload: it runs the CLI with the given arguments and then
stops its own children in the same way.
"""

from __future__ import annotations

import multiprocessing
import sys


def stop_children(grace_s: float = 10.0) -> None:
    for child in multiprocessing.active_children():
        child.terminate()
        child.join(grace_s)
        if child.is_alive():
            child.kill()
            child.join()
    from multiprocessing import resource_tracker

    # Closes the tracker's pipe, on which it exits, and waits for it.
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def serve(argv) -> int:
    from repro.cli import main

    try:
        return main(["serve"] + list(argv))
    finally:
        stop_children()


if __name__ == "__main__":
    sys.exit(serve(sys.argv[1:]))
