"""Regenerate the CLI golden files.

Run from the repository root::

    python tests/gen_goldens.py            # rewrite every golden file
    python tests/gen_goldens.py --check    # write nothing; diff and exit 1 on drift

Outputs are deterministic for a fixed environment; regenerate after any
intentional change to CLI formatting and review the diff.  ``--check`` prints
a unified diff for each golden whose output drifted and a one-line summary,
and exits 1 when any did.
"""

from __future__ import annotations

import argparse
import contextlib
import difflib
import io
import pathlib
import sys

from polylens.cli import main

GOLDEN_DIR = pathlib.Path(__file__).parent / "goldens"

COMMANDS = {
    "analyze_text.txt": ["analyze", "--expr", "1/w + w", "--n", "1", "--lambda", "1"],
    "analyze_json.txt": [
        "analyze", "--expr", "1/w + w", "--n", "1", "--lambda", "1", "--json",
    ],
    "analyze_doubling.txt": [
        "analyze", "--expr", "1/w + w + 1/(3 - w^32)", "--n", "1", "--lambda", "1",
    ],
    "sweep.csv": [
        "sweep", "--expr", "1/w + w", "--n", "1",
        "--lambda-min", "0.25", "--lambda-max", "4", "--steps", "33",
    ],
    "measure_quarter.txt": ["measure", "--interval", "0:pi/2"],
    "measure_full.txt": ["measure", "--interval", "-pi:pi"],
    "measure_product.txt": [
        "measure", "--dims", "2", "--interval", "0:pi/2", "--interval", "0:pi",
    ],
    "transform.txt": [
        "transform", "--expr", "1/u1", "--morph", "2*w1", "--n", "1",
        "--lambda", "0.5",
    ],
    "transform_quadratic.txt": [
        "transform", "--expr", "1/u + u", "--morph", "w + 0.25*w^2", "--n", "1",
    ],
    "verify_all.txt": ["verify", "--suite", "all", "--seed", "7"],
}


def run_command(argv: list[str]) -> tuple[int, str]:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = main(argv)
    return code, buffer.getvalue()


def _outputs():
    for name, argv in COMMANDS.items():
        code, text = run_command(argv)
        if code != 0:
            raise SystemExit(f"{name}: exit code {code}")
        yield name, text


def regenerate() -> None:
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, text in _outputs():
        (GOLDEN_DIR / name).write_text(text)
        print(f"wrote {name} ({len(text)} bytes)")


def check() -> int:
    """Print a unified diff per drifted golden; 1 if any drifted, else 0."""
    drifted = []
    for name, text in _outputs():
        path = GOLDEN_DIR / name
        old = path.read_text() if path.exists() else ""
        if old != text:
            drifted.append(name)
            sys.stdout.writelines(difflib.unified_diff(
                old.splitlines(keepends=True), text.splitlines(keepends=True),
                f"goldens/{name}", f"goldens/{name} (now)",
            ))
    print(f"{len(drifted)} of {len(COMMANDS)} goldens drifted"
          + (f": {', '.join(drifted)}" if drifted else ""))
    return 1 if drifted else 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Regenerate or check the CLI golden files.")
    parser.add_argument("--check", action="store_true",
                        help="write nothing; print a diff per drifted golden, exit 1 on drift")
    if parser.parse_args().check:
        sys.exit(check())
    regenerate()
