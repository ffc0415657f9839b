"""Damaged artifacts never end in a traceback.

Every truncation or single-byte change of a small feature file or of a
2-epoch checkpoint is fed to `inspect` and `eval`, run in-process. Each run
must exit 0 or 2, and a truncated file must always exit 2 with a message.
"""

import contextlib
import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semihoc.cli import main

FUZZ = settings(max_examples=30, deadline=None, database=None)
OFFSETS = st.integers(min_value=0, max_value=2**31)
MASKS = st.integers(min_value=1, max_value=255)


def run_quiet(*argv) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    return code, err.getvalue()


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    assert run_quiet(
        "gen", "--out", root / "data", "--seed", 3, "--branching", 2, "--depth", 2, "--dim", 4,
        "--train-per-leaf", 4, "--test-per-leaf", 2, "--labels-per-class", 2,
    )[0] == 0
    assert run_quiet(
        "train", "--features", root / "data" / "features.bin", "--hierarchy", root / "data" / "hierarchy.txt",
        "--out", root / "run", "--epochs", 2, "--labeled-batch-size", 4, "--unlabeled-ratio", 2,
        "--hidden-dim", 8, "--tau", 0.6, "--seed", 0, "--quiet",
    )[0] == 0
    return root


def commands(files, features, checkpoint):
    inputs = ["--features", features, "--hierarchy", files / "data" / "hierarchy.txt"]
    yield ["inspect", *inputs, "--checkpoint", checkpoint]
    yield ["eval", "--checkpoint", checkpoint, *inputs, "--out", files / "ev", "--split", "all", "--force"]


def damaged(files, name: str, offset: int, mask: int | None) -> tuple:
    """The features and checkpoint paths with `name` replaced by a copy
    truncated at `offset`, or with that byte xor-ed with `mask`."""
    paths = {"features": files / "data" / "features.bin", "checkpoint": files / "run" / "ckpt_epoch0002.bin"}
    data = bytearray(paths[name].read_bytes())
    offset %= len(data)
    if mask is None:
        del data[offset:]
    else:
        data[offset] ^= mask
    paths[name] = files / f"damaged-{name}.bin"
    paths[name].write_bytes(data)
    return paths["features"], paths["checkpoint"]


@pytest.mark.parametrize("name", ["features", "checkpoint"])
class TestDamagedArtifacts:
    @FUZZ
    @given(offset=OFFSETS)
    def test_truncation_exits_two_with_message(self, files, name, offset):
        for argv in commands(files, *damaged(files, name, offset, None)):
            code, err = run_quiet(*argv)
            label = "feature file" if name == "features" else "checkpoint"
            assert code == 2 and f"error: {label}:" in err, (argv[0], err)

    @FUZZ
    @given(offset=OFFSETS, mask=MASKS)
    def test_changed_byte_exits_zero_or_two(self, files, name, offset, mask):
        for argv in commands(files, *damaged(files, name, offset, mask)):
            code, err = run_quiet(*argv)
            assert code in (0, 2), (argv[0], err)
            assert code == 0 or err.startswith("error: ")
