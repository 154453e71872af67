"""Byte identity: the sha256 of every preset, analytic CLI default, ``verify`` and
``montecarlo`` CSV output, against ``output_digests.txt``.

The digests hold on the host that wrote them, with its libm and numpy 2.4.6; another
libm or numpy may move the last bit of a cell.  A change that moves an output on
purpose rewrites the file with

    PYTHONPATH=src python tests/test_output_digests.py

and names the moved outputs in CHANGES.md.  JSON output is left to the writer-versus-
``json.dumps`` tests in ``tests/test_tables.py``.

On a mismatch the test names each moved output and its first differing line, against
the output of the source committed at git HEAD, which it runs in a scratch directory.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import os
import subprocess
import sys
import tarfile
from pathlib import Path

from thermomachine import PRESETS, cli

ROOT = Path(__file__).resolve().parents[1]
DIGESTS = Path(__file__).with_name("output_digests.txt")

OUTPUTS = [
    *(["preset", name] for name in sorted(PRESETS)),
    *([command] for command in ("steady", "transient", "cost", "heat", "noisy")),
    ["verify"],
    ["montecarlo"],
    ["montecarlo", "--set", "model=transient", "--set", "k_measure=50"],
]


def render(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == cli.EXIT_OK, argv
    return out.getvalue()


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def committed_output(argv: list[str], tmp: Path) -> str:
    """The CSV that the source committed at HEAD writes for ``argv``."""
    if not (tmp / "src").exists():
        archive = subprocess.run(
            ["git", "archive", "HEAD", "src"], cwd=ROOT, capture_output=True, check=True
        )
        tarfile.open(fileobj=io.BytesIO(archive.stdout)).extractall(tmp, filter="data")
    env = os.environ | {"PYTHONPATH": str(tmp / "src")}
    run = subprocess.run(
        [sys.executable, "-m", "thermomachine.cli", *argv],
        env=env, capture_output=True, text=True, check=True,
    )
    return run.stdout


def first_difference(name: str, text: str, want: str, tmp: Path) -> str:
    try:
        old = committed_output(name.split(), tmp)
    except (OSError, subprocess.CalledProcessError) as exc:
        return f"{name}: moved (no committed source to compare with: {exc})"
    if sha256(old) != want:
        return (
            f"{name}: moved, and HEAD's source gives another digest too"
            " (a stale digest file, or another libm or numpy)"
        )
    pairs = itertools.zip_longest(old.splitlines(True), text.splitlines(True))
    line, (was, now) = next((i, p) for i, p in enumerate(pairs, 1) if p[0] != p[1])
    return f"{name}: first differing line {line}\n  was {was!r}\n  now {now!r}"


def test_every_csv_output_keeps_its_digest(tmp_path):
    want = dict(line.split("  ", 1)[::-1] for line in DIGESTS.read_text().splitlines())
    assert list(want) == [" ".join(argv) for argv in OUTPUTS]
    texts = {" ".join(argv): render(argv) for argv in OUTPUTS}
    moved = [name for name, text in texts.items() if sha256(text) != want[name]]
    assert not moved, "\n".join(
        first_difference(name, texts[name], want[name], tmp_path) for name in moved
    )


if __name__ == "__main__":
    DIGESTS.write_text(
        "".join(f"{sha256(render(argv))}  {' '.join(argv)}\n" for argv in OUTPUTS)
    )
