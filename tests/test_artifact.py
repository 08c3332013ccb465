"""Malformed embedding and model files: every one loads or is a format error."""

import json
import math
import struct
from pathlib import Path

import numpy as np

from essayscore.corpus import Vocabulary
from essayscore.errors import ModelFormatError
from essayscore.lstm import SeqHyper, SeqModel, load_model, save_model
from essayscore.sswe import (SSWEHyper, SSWEParams, load_embeddings,
                             save_embeddings)

from conftest import run_limited

CHASH = "c0ffee"
U32_VALUES = (0, 1, 4, 2 ** 31, 2 ** 32 - 1)
F64_VALUES = (math.nan, math.inf, -1.0, 1.0, 1e308)
FLIP_MASKS = (0x01, 0x80, 0xFF)


def _embedding_file(path: Path):
    """A seeded ``.sswe``; returns its header length and its u32 fields."""
    vocab = Vocabulary(["alpha", "beta", "naïve"])
    hyper = SSWEHyper(embed_dim=3, hidden_dim=4, window_size=3)
    params = SSWEParams.init(len(vocab), hyper, np.random.default_rng(7))
    save_embeddings(path, params, vocab, config_hash=CHASH)
    # the five header words, each token's length prefix, the hash length
    u32 = [4 + 4 * k for k in range(5)]
    at = 24
    for token in vocab.id_to_token:
        u32.append(at)
        at += 4 + len(token.encode("utf-8"))
    u32.append(path.stat().st_size - 4 - len(CHASH))
    return 24, u32, []


def _model_file(path: Path):
    """A seeded ``.sats``; returns its header length, u32 and f64 fields."""
    rng = np.random.default_rng(7)
    hyper = SeqHyper(lstm_dim=3, layers=2, bidirectional=True,
                     peepholes="full", dropout=0.25)
    model = SeqModel.init(np.asfortranarray(rng.uniform(size=(4, 11))),
                          hyper, rng)
    save_model(path, model, config_hash=CHASH)
    u32 = [4 + 4 * k for k in range(7)]
    u32.append(path.stat().st_size - 4 - len(CHASH))
    return 40, u32, [32]


FORMATS = {
    "sswe": (_embedding_file, load_embeddings, save_embeddings),
    "sats": (_model_file, load_model, save_model),
}


def _cases(raw: bytes, header_len: int, u32: list, f64: list):
    """(label, bytes): truncations, byte flips and forged fields."""
    yield "pristine", raw
    yield "trailing", raw + b"\x00"
    cuts = set(range(64)) | set(range(64, len(raw), 29)) \
        | set(range(len(raw) - 8, len(raw)))
    for cut in sorted(cuts):
        yield f"cut {cut}", raw[:cut]
    flipped = set(range(header_len))
    for off in u32:
        flipped.update(range(off, off + 4))
    for pos in sorted(flipped):
        for mask in FLIP_MASKS:
            out = bytearray(raw)
            out[pos] ^= mask
            yield f"flip {pos}^{mask:#x}", bytes(out)
    for off in u32:
        for value in U32_VALUES:
            out = bytearray(raw)
            struct.pack_into("<I", out, off, value)
            yield f"u32 {off}={value}", bytes(out)
    for off in f64:
        for value in F64_VALUES:
            out = bytearray(raw)
            struct.pack_into("<d", out, off, value)
            yield f"f64 {off}={value}", bytes(out)


def fuzz_child(argv):
    """Run every case of both formats; print each outcome as JSON.

    Runs in a child process under an address-space limit (see
    ``conftest.run_limited``), so an allocation sized from a forged
    field shows up as a ``MemoryError`` here instead of being granted.
    A case that loads must also save again.
    """
    work = Path(argv[0])
    outcomes = {}
    for name, (make, load, save) in FORMATS.items():
        base = work / f"base.{name}"
        shape = make(base)
        case_path, resaved = work / f"case.{name}", work / f"again.{name}"
        outcomes[name] = got = {}
        for label, data in _cases(base.read_bytes(), *shape):
            case_path.write_bytes(data)
            try:
                save(resaved, *load(case_path))
            except ModelFormatError:
                got[label] = "format error"
            except Exception as exc:  # any other outcome is the finding
                got[label] = f"{type(exc).__name__}: {exc}"
            else:
                got[label] = "loaded"
    print(json.dumps(outcomes))
    return 0


def test_fuzzed_files_load_or_raise_format_errors(tmp_path):
    proc = run_limited("test_artifact:fuzz_child", [str(tmp_path)])
    assert proc.returncode == 0, proc.stderr
    outcomes = json.loads(proc.stdout)
    assert set(outcomes) == set(FORMATS)
    for name, got in outcomes.items():
        assert len(got) > 300, name
        other = {k: v for k, v in got.items()
                 if v not in ("loaded", "format error")}
        assert other == {}, name
        assert got.pop("pristine") == "loaded", name
        # a file missing bytes or carrying extra ones never loads
        for label, outcome in got.items():
            if label == "trailing" or label.startswith("cut "):
                assert outcome == "format error", (name, label)
