"""Damaged artifacts never end in a traceback.

Every truncation or single-byte change of a small feature file, of a 2-epoch
checkpoint, of the hierarchy file or of an `eval` prediction dump is fed to
`inspect`, `eval --checkpoint` and `eval --predictions`, run in-process. Each
run must exit 0 or 2, and a truncated feature file or checkpoint must always
exit 2 with a message.
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
    assert run_quiet(
        "eval", "--checkpoint", root / "run" / "ckpt_epoch0002.bin", "--features", root / "data" / "features.bin",
        "--hierarchy", root / "data" / "hierarchy.txt", "--out", root / "dump", "--split", "all",
    )[0] == 0
    return root


def damaged(files, name: str, offset: int, mask: int | None) -> dict:
    """The input paths by name, with `name` replaced by a copy truncated at
    `offset`, or with that byte xor-ed with `mask`."""
    paths = {
        "features": files / "data" / "features.bin",
        "checkpoint": files / "run" / "ckpt_epoch0002.bin",
        "hierarchy": files / "data" / "hierarchy.txt",
        "predictions": files / "dump" / "predictions.txt",
    }
    data = bytearray(paths[name].read_bytes())
    offset %= len(data)
    if mask is None:
        del data[offset:]
    else:
        data[offset] ^= mask
    paths[name] = files / f"damaged-{paths[name].name}"
    paths[name].write_bytes(data)
    return paths


def commands(files, name: str, offset: int, mask: int | None):
    """Every command that reads the damaged input `name`."""
    paths = damaged(files, name, offset, mask)
    inputs = ["--features", paths["features"], "--hierarchy", paths["hierarchy"]]
    out = ["--out", files / "ev", "--split", "all", "--force"]
    if name != "predictions":
        yield ["inspect", *inputs, "--checkpoint", paths["checkpoint"]]
        yield ["eval", "--checkpoint", paths["checkpoint"], *inputs, *out]
    if name != "checkpoint":
        yield ["eval", "--predictions", paths["predictions"], *inputs, *out]


class TestDamagedArtifacts:
    @pytest.mark.parametrize("name", ["features", "checkpoint"])
    @FUZZ
    @given(offset=OFFSETS)
    def test_truncation_exits_two_with_message(self, files, name, offset):
        for argv in commands(files, name, offset, None):
            code, err = run_quiet(*argv)
            label = "feature file" if name == "features" else "checkpoint"
            assert code == 2 and f"error: {label}:" in err, (argv[0], err)

    # a text file cut at a line break can still be valid
    @pytest.mark.parametrize("name", ["hierarchy", "predictions"])
    @FUZZ
    @given(offset=OFFSETS)
    def test_truncated_text_exits_zero_or_two(self, files, name, offset):
        for argv in commands(files, name, offset, None):
            code, err = run_quiet(*argv)
            assert code in (0, 2), (argv[0], err)
            assert code == 0 or err.startswith("error: ")

    @pytest.mark.parametrize("name", ["features", "checkpoint", "hierarchy", "predictions"])
    @FUZZ
    @given(offset=OFFSETS, mask=MASKS)
    def test_changed_byte_exits_zero_or_two(self, files, name, offset, mask):
        for argv in commands(files, name, offset, mask):
            code, err = run_quiet(*argv)
            assert code in (0, 2), (argv[0], err)
            assert code == 0 or err.startswith("error: ")
