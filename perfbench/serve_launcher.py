"""Start the program's ``repro serve`` daemon for the serve-store workload.

Usage: ``python3 serve_launcher.py REPORT [--trace] -- SERVE_ARGS...``,
with the repository's ``src`` on ``PYTHONPATH``.

The daemon runs in this process, so its peak RSS is this process's.
``--trace`` installs the same per-layer wrappers as the in-process
workloads before the daemon starts.  When the daemon has drained and
returned, REPORT receives the peak RSS, whether the native BDD kernel
was loaded and, when traced, the per-layer totals.
"""

from __future__ import annotations

import json
import resource
import sys


def main(argv):
    report_path = argv[1]
    serve_args = argv[argv.index("--") + 1:]
    import repro.__main__ as cli
    import repro.serve.server  # noqa: F401  (bind its imports before wrapping)
    from repro.bdd.tables import kernel_available
    kernel = kernel_available()
    layers = None
    if "--trace" in argv[:argv.index("--")]:
        from layers import Layers
        layers = Layers()
        layers.install()
    try:
        code = cli.main(["serve"] + serve_args)
    finally:
        report = {
            "kernel_available": kernel,
            "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            "layers": layers.snapshot() if layers is not None else None,
        }
        with open(report_path, "w") as handle:
            json.dump(report, handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv))
