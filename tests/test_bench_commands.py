"""The benchmark runs the command line with fixed argument lists.

``perfbench/run.py`` holds every command line a workload runs:
``MEAS_SYNTH``, ``MEAS_ANALYZE`` and each workload's ``commands``. A CLI
change that drops or renames an option those lists use breaks every
bench run; this test parses each of them with the CLI's own parser, so
such a change fails here first.
"""

import importlib.util
from pathlib import Path

import pytest

from a2gsounder.cli import build_parser

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def bench():
    """perfbench/run.py as a module; it imports its neighbours by bare name."""
    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(str(PERFBENCH))
        spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    return module


def test_every_bench_command_line_parses(bench):
    lines = [argv for _, argv in (*bench.MEAS_SYNTH, *bench.MEAS_ANALYZE,
                                  *(c for w in bench.WORKLOADS.values() for c in w.commands))]
    assert {argv[0] for argv in lines} >= {"synth", "b2b", "analyze", "report", "stability"}
    parser = build_parser()
    for argv in lines:
        args = parser.parse_args(argv)
        assert args.command == argv[0], argv
