"""Run one ``tubekit`` CLI command with the benchmark's tracer installed.

Usage: python3 bench/traced_cli.py TRACE_OUT -- <tubekit arguments>

Writes the spans and counters of the command to TRACE_OUT as JSON and
exits with the command's exit code. ``tubekit`` is imported from the
``src`` directory next to ``bench``.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from tracer import Trace  # noqa: E402


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    import tubekit.cli

    trace = Trace()
    trace.install()
    code = tubekit.cli.main(argv[2:])
    trace.dump(argv[0])
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
