"""Rewrite the golden outputs that ``tests/test_golden.py`` compares against.

    PYTHONPATH=src python tests/golden/regenerate.py

Each config ``<name>.json`` beside this script is run into a temporary
directory, the way the test runs it, and its ``<name>/`` directory is
replaced only when the test's comparison fails. So outputs that still
match, up to the test's tolerances, are left as committed. Run this only
when a change moves an output on purpose, and record which files moved,
and by how much.
"""
import os
import shutil
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from test_golden import COMMANDS, GOLDEN, compare_with_golden, produce  # noqa: E402

if __name__ == "__main__":
    for name in COMMANDS:
        with tempfile.TemporaryDirectory() as scratch:
            os.chdir(scratch)  # so config.resolved.json records a relative output_dir
            produce(name, Path(name))
            try:
                compare_with_golden(name, Path(name))
            except AssertionError:
                shutil.rmtree(GOLDEN / name, ignore_errors=True)
                shutil.move(name, GOLDEN / name)
                print(f"rewrote {name}/")
            os.chdir(GOLDEN)  # out of the directory about to be removed
