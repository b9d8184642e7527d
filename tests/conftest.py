import json
import os
import struct
import subprocess
import sys
import zlib
from pathlib import Path

import pytest

import fewintent
from fewintent.corpus import Dataset, IntentLabel, LabeledUtterance

# The directory that holds the fewintent package this test process imported:
# `src` in a checkout, site-packages in an installed copy.
PACKAGE_ROOT = str(Path(fewintent.__file__).resolve().parents[1])


def make_dataset(n_intents=4, per_intent=2, name="toy"):
    """Deterministic toy dataset: intent i utterances mention token w{i}."""
    labels = tuple(IntentLabel(i, f"intent_{i}", f"intent {i}") for i in range(n_intents))
    examples = tuple(
        LabeledUtterance(f"do w{i} thing number {j}", i, domain=f"dom{i % 2}")
        for i in range(n_intents)
        for j in range(per_intent)
    )
    return Dataset(labels, examples, name=name)


def restamp_vocab_blob(path, blob):
    """Replace a checkpoint's vocabulary blob and re-stamp its CRC.

    The result passes the checksum, so only the blob itself is malformed.
    Offsets follow the layout documented above `save_checkpoint`.
    """
    raw = Path(path).read_bytes()
    (depth,) = struct.unpack_from("<I", raw, 16)  # after the magic, version and flags
    len_at = 24 + 4 * (depth + 1)  # after the vocab size and the layer dims
    (old_len,) = struct.unpack_from("<I", raw, len_at)
    body = raw[:len_at] + struct.pack("<I", len(blob)) + blob + raw[len_at + 4 + old_len : -4]
    Path(path).write_bytes(body + struct.pack("<I", zlib.crc32(body)))


def write_checkpoint(path, tokens, dims, attention=False):
    """A checkpoint written field by field, with layer widths `dims` and a
    zero payload of the size they give, after the layout documented above
    `save_checkpoint`; it writes what `save_checkpoint` refuses to."""
    vocab_size = len(tokens) + 4  # the reserved tokens come first
    count = vocab_size * dims[0] + sum(a * b + b for a, b in zip(dims, dims[1:]))
    count += 3 * dims[0] ** 2 if attention else 0
    blob = json.dumps(list(tokens)).encode("utf-8")
    body = b"".join([
        b"FEWINTC\x01",
        struct.pack("<IIII", 1, int(attention), len(dims) - 1, vocab_size),
        struct.pack(f"<{len(dims)}I", *dims),
        struct.pack("<I", len(blob)),
        blob,
        bytes(8 * count),
    ])
    Path(path).write_bytes(body + struct.pack("<I", zlib.crc32(body)))


def child_env(env=None):
    """This process's environment with `env` merged in, for a child that
    imports the package copy imported here.

    The child's PYTHONPATH starts with the absolute PACKAGE_ROOT, so a relative
    entry such as `PYTHONPATH=src` cannot leave it importing nothing (or another
    copy) once it starts in a different working directory.
    """
    env = {**os.environ, **(env or {})}
    env["PYTHONPATH"] = os.pathsep.join(
        [PACKAGE_ROOT, *filter(None, env.get("PYTHONPATH", "").split(os.pathsep))]
    )
    return env


def run_python(args, cwd, env=None, stdin=None):
    """Run `python *args` in `cwd` with `child_env(env)`. `stdin` is the
    child's standard input; given as bytes, its output is bytes too."""
    return subprocess.run(
        [sys.executable, *args], cwd=cwd, capture_output=True, env=child_env(env), input=stdin,
        text=not isinstance(stdin, bytes),
    )


def run_cli(args, cwd, stdin=None):
    """Run `python -m fewintent` in `cwd`; see `run_python`."""
    return run_python(["-m", "fewintent", *args], cwd, stdin=stdin)


@pytest.fixture
def toy_dataset():
    return make_dataset()
