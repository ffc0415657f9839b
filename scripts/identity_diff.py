#!/usr/bin/env python3
"""Compare the identity outputs of this checkout with those of a revision.

    python3 scripts/identity_diff.py <rev>

It `git archive`s <rev> into a temporary directory, runs
`scripts/identity_outputs.py` from that copy and from this checkout (the
working tree, uncommitted edits included), each into a temporary directory
of its own, and prints `diff -r` of the two. Exit code 0 when they are the
same, 1 when they differ, 2 when a step fails. It writes nothing inside the
repository, not even bytecode. Takes about two minutes on two cores.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    if len(sys.argv) != 2:
        sys.exit("usage: python3 scripts/identity_diff.py <rev>")
    rev = sys.argv[1]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    with tempfile.TemporaryDirectory(prefix="identity-diff-") as tmp:
        copy = Path(tmp) / "checkout"
        copy.mkdir()
        try:
            archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev], check=True, capture_output=True).stdout
            subprocess.run(["tar", "-x", "-C", str(copy)], input=archive, check=True)
            for checkout, out in ((copy, "rev"), (ROOT, "this")):
                print(f"identity outputs of {rev if out == 'rev' else 'this checkout'} ...", flush=True)
                script = checkout / "scripts" / "identity_outputs.py"
                subprocess.run([sys.executable, str(script), str(Path(tmp) / out)], check=True, env=env)
        except subprocess.CalledProcessError as exc:
            stderr = exc.stderr.decode(errors="replace").strip() if exc.stderr else ""
            print(f"identity_diff: {' '.join(map(str, exc.cmd))} exited {exc.returncode}: {stderr}", file=sys.stderr)
            return 2
        print(f"diff -r {rev} this checkout:", flush=True)
        code = subprocess.run(["diff", "-r", "rev", "this"], cwd=tmp).returncode
        print("identical" if code == 0 else "outputs differ" if code == 1 else "diff failed", flush=True)
        return code


if __name__ == "__main__":
    sys.exit(main())
