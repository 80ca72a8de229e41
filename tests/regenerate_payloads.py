"""Rewrite the committed payload corpus from the current program.

Each entry of ``tests/data/payloads/manifest.json`` names a command line;
its document ``<name>.json`` holds the exit code and the whole payload that
``rescaling.cli.main`` prints for it.  ``tests/test_payloads.py`` compares
every run against these files with ``==``.  Regenerating is a deliberate
act: run it by hand, from the repository root, as

    PYTHONPATH=src python tests/regenerate_payloads.py

and list each payload that changed, with the reason, in CHANGES.md.
"""

import contextlib
import io
import json
from pathlib import Path

from rescaling import cli

CORPUS = Path(__file__).resolve().parent / "data" / "payloads"


def manifest():
    """name -> {"argv": [...], "known_defect": text or None}."""
    return json.loads((CORPUS / "manifest.json").read_text())


def run_command(argv):
    """(exit code, payload) of one in-process run of the CLI."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    return code, json.loads(out.getvalue())


def main():
    for name, entry in manifest().items():
        code, payload = run_command(entry["argv"])
        doc = {"exit_code": code, "payload": payload}
        (CORPUS / f"{name}.json").write_text(json.dumps(doc, indent=1) + "\n")
        print(f"{name}: exit {code}")


if __name__ == "__main__":
    main()
