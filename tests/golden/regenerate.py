"""Rewrite the golden outputs that ``tests/test_golden.py`` compares against.

    PYTHONPATH=src python tests/golden/regenerate.py

Each ``<name>/`` directory beside this script is emptied and written again
from its config ``<name>.json``, the way the test writes it. Run this only
when a change moves an output on purpose, and record which files moved,
and by how much.
"""
import os
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from test_golden import COMMANDS, GOLDEN, produce  # noqa: E402

if __name__ == "__main__":
    os.chdir(GOLDEN)  # so each config.resolved.json records a relative output_dir
    for name in COMMANDS:
        shutil.rmtree(name, ignore_errors=True)
        produce(name, Path(name))
