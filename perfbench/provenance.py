"""Print, as one JSON object, what a benchmark run ran on.

Run in the same environment as the measured commands: it also imports
a2gsounder, so the bytecode cache is warm before the first timed command.
"""

import json
import os
import platform
import re
import sys

import numpy

import a2gsounder

# thread settings of BLAS/OpenMP runtimes, reported exactly as found
THREAD_VARIABLES = re.compile(r"^(OMP|OPENBLAS|MKL|BLIS|GOTO|VECLIB|NUMEXPR)_")


def blas_version():
    try:
        config = numpy.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        return "unknown"


def provenance():
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_version(),
        "a2gsounder": a2gsounder.__version__,
        "A2GS_THREADS": os.environ.get("A2GS_THREADS"),
        "thread_env": {k: v for k, v in sorted(os.environ.items())
                       if THREAD_VARIABLES.match(k)},
    }


if __name__ == "__main__":
    json.dump(provenance(), sys.stdout, sort_keys=True)
    sys.stdout.write("\n")
