"""Seeded mutations of each kind of file the command line reads.

Each test mutates one valid input a few dozen ways, from a fixed seed,
and runs the command that reads it on every mutant. Every run must end
in a documented exit code (0 success, 1 usage or config error, 2 data
error, 3 numerical failure) and never in a traceback. The runs of a test
share one child process under the address-space limit of
``conftest.run_limited`` (one process per run would take some 0.17 s of
start-up each), so an allocation sized from a forged field fails there
instead of being granted.
"""

import json
import shutil

import numpy as np
import pytest

from essayscore import synth
from essayscore.cli import main
from essayscore.config import Config, write_config

from conftest import run_limited_cli, run_limited

N_MUTANTS = 30
EXIT_TAG = "@exit"

# values a field is replaced with: numbers at and past the edges of their
# types, non-finite and empty ones, separators of each format, a byte
# order mark, a NUL, non-ASCII text and a long run
FIELD_VALUES = ["", "0", "-1", "1.5", "1e400", "-inf", "nan", "NaN",
                "99999999999999999999", "2147483648", "-9223372036854775809",
                "0x10", "1_000", " 7 ", "true", "x", "@CAPS1", "\u00e9",
                "\ufeff1", "\x00", "\t", "\n", "\r\n", "=", "#", ",", '"',
                "[", "{", "null", "A" * 300]
# bytes a single byte is overwritten with
BYTES = [0x00, 0x09, 0x0A, 0x0D, 0x22, 0x23, 0x2C, 0x2D, 0x30, 0x39, 0x3D,
         0x40, 0x5B, 0x7B, 0x80, 0xC3, 0xFF]
SEPARATORS = b"\t\n=,:\""


def mutate(data: bytes, rng) -> bytes:
    """One to three random edits of ``data``."""
    out = bytearray(data)
    for _ in range(int(rng.integers(1, 4))):
        op = int(rng.integers(7))
        at = int(rng.integers(len(out) + 1))
        end = min(len(out), at + int(rng.integers(1, 40)))
        if op == 0 and out:
            out[min(at, len(out) - 1)] = BYTES[rng.integers(len(BYTES))]
        elif op == 1:
            del out[at:end]
        elif op == 2:
            out[at:at] = out[at:end]
        elif op == 3:
            del out[at:]
        elif op == 4:
            # a whole field, from separator to separator
            lo = max((out.rfind(bytes([c]), 0, at) for c in SEPARATORS),
                     default=-1) + 1
            hi = min([k for k in (out.find(bytes([c]), at) for c in SEPARATORS)
                      if k >= 0] or [len(out)])
            out[lo:hi] = FIELD_VALUES[rng.integers(len(FIELD_VALUES))].encode()
        elif op == 5:
            out[at:at] = FIELD_VALUES[rng.integers(len(FIELD_VALUES))].encode()
        else:
            lines = bytes(out).split(b"\n")
            j, k = rng.integers(len(lines), size=2)
            lines[j], lines[k] = lines[k], lines[j]
            out = bytearray(b"\n".join(lines))
    return bytes(out)


# JSON values a corpus cache field, or one element of it, is replaced with
JSON_VALUES = [None, True, False, 0, -1, 1.5, 1e308, 2 ** 70, -(2 ** 63) - 1,
               "", "x", "\u00e9", [], {}, [[]], [1, "a"], {"1": [0, 1]},
               "AAAA", "A" * 1000]


def mutate_cache(text: str, rng) -> str:
    """A structural edit of a corpus cache: a field replaced or removed,
    or one element of a list field replaced, removed or repeated."""
    payload = json.loads(text)
    key = sorted(payload)[rng.integers(len(payload))]
    value = JSON_VALUES[rng.integers(len(JSON_VALUES))]
    op = int(rng.integers(3))
    field = payload[key]
    if op == 0 or not isinstance(field, (list, dict)) or not field:
        if op == 1:
            del payload[key]
        else:
            payload[key] = value
    elif isinstance(field, dict):
        name = sorted(field)[rng.integers(len(field))]
        field[name] = value
    else:
        at = int(rng.integers(len(field)))
        if op == 1:
            field[at] = value
        else:
            field.insert(at, field[at] if rng.integers(2) else value)
    return json.dumps(payload)


def cli_child(argv):
    """Run the CLI on each argv of the JSON list ``argv[0]`` in turn,
    printing each exit code after ``EXIT_TAG`` as it comes."""
    for k, args in enumerate(json.loads(argv[0])):
        code = main(args)
        print(f"{EXIT_TAG} {k} {code}", flush=True)
    return 0


def run_each(argvs) -> list[int]:
    """The exit code of each run; a traceback fails the test, naming the
    run it ended."""
    proc = run_limited("test_cli_fuzz:cli_child", [json.dumps(argvs)])
    codes = [int(line.split()[2]) for line in proc.stdout.splitlines()
             if line.startswith(EXIT_TAG + " ")]
    assert "Traceback" not in proc.stderr, \
        (argvs[len(codes)] if len(codes) < len(argvs) else None,
         proc.stderr[-3000:])
    assert proc.returncode == 0, proc.stderr[-3000:]
    assert len(codes) == len(argvs)
    assert set(codes) <= {0, 1, 2, 3}, codes
    return codes


@pytest.fixture(scope="module")
def ingested(tmp_path_factory):
    """A small corpus, ingested: its TSV, range table, config file and
    splits directory (cache and manifests)."""
    root = tmp_path_factory.mktemp("fuzz")
    tsv = root / "essays.tsv"
    synth.write_tsv(tsv, "overfit16", 0)
    ranges = root / "ranges.tsv"
    ranges.write_text("# set\tmin\tmax\n1\t0\t10\n2\t1\t4\n", encoding="utf-8")
    cfg = Config(data_path=str(tsv), splits_dir=str(root / "splits"),
                 models_dir=str(root / "models"),
                 reports_dir=str(root / "reports"), min_count=1,
                 embed_dim=4, hidden_dim=3, window_size=3, n_corruptions=2,
                 embed_epochs=1, lstm_dim=2, epochs=1)
    config = root / "run.cfg"
    write_config(config, cfg, header="fuzz base")
    proc = run_limited_cli(["--config", str(config), "ingest"])
    assert proc.returncode == 0, proc.stderr
    return root, tsv, ranges, config


def mutants(path, seed, mutator=mutate):
    rng = np.random.default_rng(seed)
    data = path.read_bytes()
    for _ in range(N_MUTANTS):
        yield mutator(data, rng)


class TestMutatedInputs:
    def test_essay_tsv(self, ingested, tmp_path):
        _, essays, _, config = ingested
        argvs = []
        for k, data in enumerate(mutants(essays, 101)):
            tsv = tmp_path / f"essays{k}.tsv"
            tsv.write_bytes(data)
            argvs.append(["--config", str(config), "--data-path", str(tsv),
                          "--splits-dir", str(tmp_path / f"splits{k}"),
                          "ingest"])
        codes = run_each(argvs)
        assert 0 in codes and 2 in codes

    def test_range_table(self, ingested, tmp_path):
        _, _, ranges, config = ingested
        argvs = []
        for k, data in enumerate(mutants(ranges, 102)):
            table = tmp_path / f"ranges{k}.tsv"
            table.write_bytes(data)
            argvs.append(["--config", str(config), "--range-table",
                          str(table), "--splits-dir",
                          str(tmp_path / f"splits{k}"), "ingest"])
        codes = run_each(argvs)
        assert 0 in codes and 2 in codes

    def test_config_file(self, ingested, tmp_path):
        # every other run trains embeddings, whose arrays the size keys
        # shape; the flags keep the paths written under this test's
        # directory and the epochs at one
        root, _, _, config = ingested
        argvs = []
        for k, data in enumerate(mutants(config, 103)):
            cfg = tmp_path / f"run{k}.cfg"
            cfg.write_bytes(data)
            splits = tmp_path / f"splits{k}"
            if k % 2:
                shutil.copytree(root / "splits", splits)
            argvs.append(["--config", str(cfg), "--range-table", "",
                          "--splits-dir", str(splits), "--models-dir",
                          str(tmp_path / f"models{k}"), "--reports-dir",
                          str(tmp_path / f"reports{k}"), "--embed-epochs",
                          "1", ("ingest", "train-embeddings")[k % 2]])
        codes = run_each(argvs)
        assert 0 in codes and 1 in codes

    def test_split_manifest(self, ingested, tmp_path):
        # ingest reads existing manifests back, train-embeddings reads
        # the training one
        root, _, _, config = ingested
        argvs = []
        rng = np.random.default_rng(104)
        for k in range(N_MUTANTS):
            splits = tmp_path / f"splits{k}"
            shutil.copytree(root / "splits", splits)
            name = ("train.ids", "val.ids", "test.ids")[rng.integers(3)]
            (splits / name).write_bytes(mutate((splits / name).read_bytes(),
                                               rng))
            command = ("ingest", "train-embeddings")[k % 2]
            argvs.append(["--config", str(config), "--splits-dir",
                          str(splits), "--models-dir",
                          str(tmp_path / f"models{k}"), command])
        codes = run_each(argvs)
        assert 0 in codes and 2 in codes

    def test_corpus_cache(self, ingested, tmp_path):
        # every other mutant edits the JSON fields, the rest the bytes
        root, _, _, config = ingested

        def mutator(data, rng):
            if rng.integers(2):
                return mutate(data, rng)
            return mutate_cache(data.decode(), rng).encode()

        argvs = []
        for k, data in enumerate(mutants(root / "splits" / "corpus.json",
                                         105, mutator)):
            splits = tmp_path / f"splits{k}"
            shutil.copytree(root / "splits", splits)
            (splits / "corpus.json").write_bytes(data)
            argvs.append(["--config", str(config), "--splits-dir",
                          str(splits), "--models-dir",
                          str(tmp_path / f"models{k}"), "train-embeddings"])
        codes = run_each(argvs)
        assert 2 in codes
