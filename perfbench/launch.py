"""Run one ``a2gs`` command in this process, as the installed script would.

usage: python3 launch.py READY_FILE SPANS_FILE|- a2gs-arguments...

Writes ``time.monotonic()`` to READY_FILE as soon as ``a2gsounder`` is
imported; the parent subtracts its own clock reading taken just before
it started this process, which gives the command's set-up time. With a
SPANS_FILE, the package's public functions are traced (see spans.py)
and the spans are written there at exit.
"""

import sys
import time

import a2gsounder.cli

ready = time.monotonic()


def main(argv):
    ready_file, spans_file, args = argv[0], argv[1], argv[2:]
    with open(ready_file, "w") as fh:
        fh.write(repr(ready))
    if spans_file != "-":
        import spans
        spans.install(spans_file)
    return a2gsounder.cli.main(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
