"""The benchmark's span tracer names functions of this package by string.

``perfbench/spans.py`` wraps every name in its ``TRACED`` table with a
bare ``getattr`` when a run is traced, so renaming or deleting one of
them breaks every traced run. This test reads the table from that file
and checks each name against the package.
"""

import dataclasses
import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def traced_table():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.TRACED


def test_every_traced_name_resolves():
    missing = []
    for module_name, functions in traced_table().items():
        module = importlib.import_module(f"a2gsounder.{module_name}")
        for function in functions:
            owner = module
            for part in function.split("."):  # "Class.method" or "function"
                owner = getattr(owner, part, None)
            if not callable(owner):
                missing.append(f"{module_name}.{function}")
    assert not missing, f"traced names missing from a2gsounder: {missing}"


def test_capture_record_has_the_field_the_tracer_reads():
    # spans._extra reads args[0].h_f of cir_from_tf and
    # correlation_and_eigen, whose first argument is a CaptureRecord
    from a2gsounder.capture_sim import CaptureRecord

    assert "h_f" in {f.name for f in dataclasses.fields(CaptureRecord)}
    assert "args[0].h_f" in SPANS.read_text()


def test_traced_commands_are_dispatched():
    from a2gsounder import cli

    commands = [name for name in traced_table()["cli"] if name.startswith("cmd_")]
    assert commands
    dispatched = set(cli._COMMANDS.values())
    assert [name for name in commands if getattr(cli, name) not in dispatched] == []
