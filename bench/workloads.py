"""The three benchmark workloads: set-up, one timed op, and its checks.

Each workload drives the program only through its CLI stages
(``essayscore.cli.main``) and its public library functions, looked up on
their modules at call time so that the tracer's wrappers see them.

- ``embed``: the ``train-embeddings`` stage at the paper's sizes. The
  SSWE hot path does almost all of the work here and none in the other
  two workloads.
- ``train``: ``train-scorer --embeddings learned`` then ``evaluate
  --split test`` with the paper's best architecture. This is the write
  path: BPTT, the embedding-gradient scatter and RMSprop over ``M``.
- ``serve``: one closed-loop client scoring held-out essays one at a
  time, explaining every fourth with a saliency map. This is the
  read-only path at batch size 1.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import math
import os
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import asap_corpus
import calibration
from essayscore import cli, corpus as corpusmod, lstm as lstmmod
from essayscore import saliency as salmod, sswe as sswemod

QWK_FLOOR = 0.1        # pooled test QWK; an untrained scorer reads about 0
RTOL = 1e-9            # serve outputs against their one-essay references
GRAD_STEP = 1e-5       # central-difference step of the gradient check
GRAD_RTOL, GRAD_ATOL = 1e-6, 1e-9   # its tolerance
SPAN_LEN = 256         # essays longer than this are explained span by span
EXPLAIN_EVERY = 4      # a quarter of the requests are also explained


@dataclass(frozen=True)
class Size:
    n_per_set: int
    embed_dim: int
    hidden_dim: int
    n_corruptions: int
    lstm_dim: int
    # essays per set in the (train, val, test) manifests; the rest of the
    # corpus still feeds the vocabulary
    embed_split: dict[int, tuple[int, int, int]]
    train_split: tuple[int, int, int]
    serve_split: tuple[int, int, int]


SIZES = {
    # The paper's network sizes on a 96-essay corpus with a vocabulary of
    # about 10k words, so M has a realistic width. The embed train split
    # is two short essays (about 260 windows, about a second a stage) and
    # the train split 24 essays of mixed length (one batch), so one run
    # holds 20 or more ops and their fast end repeats on a shared machine.
    "full": Size(n_per_set=12, embed_dim=200, hidden_dim=100,
                 n_corruptions=200, lstm_dim=10,
                 embed_split={3: (1, 0, 0), 4: (1, 0, 0)},
                 train_split=(3, 1, 2), serve_split=(4, 1, 2)),
    # For the smoke test only: every path runs, in seconds.
    "tiny": Size(n_per_set=7, embed_dim=12, hidden_dim=6, n_corruptions=6,
                 lstm_dim=3, embed_split={4: (1, 0, 0)},
                 train_split=(5, 1, 1), serve_split=(3, 1, 1)),
}


CONFIG_NAME = "bench.cfg"


class StageFailed(Exception):
    """A CLI stage exited non-zero."""


@dataclass
class OpResult:
    """One timed op: its parts' wall times and what went wrong, if anything.

    ``start`` is when the op began and ``scale`` the calibration factor
    of its interval (see ``calibration.py``); the run sets both.
    """

    seconds: float = 0.0
    start: float = 0.0
    scale: float = 1.0
    items: float = 0.0
    parts: dict[str, float] = field(default_factory=dict)
    attempted: int = 1
    errors: dict[str, str] = field(default_factory=dict)
    key: object = None        # the essay a serve request was about
    payload: object = None


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _cli(work: Path, *args: str) -> None:
    """Run one CLI stage in ``work``, where the config's relative paths point.

    Relative paths keep the config hash, which every artifact embeds, the
    same in every checkout and run, so reruns can be compared byte for byte.
    """
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(work)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(["--config", CONFIG_NAME, *args])
    finally:
        os.chdir(cwd)
    if rc != 0:
        raise StageFailed(f"{' '.join(args)} exited {rc}: "
                          f"{err.getvalue().strip()[-300:]}")


def _finite_csv_rows(path, columns) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    rows = list(csv.DictReader(lines))
    for row in rows:
        for col in columns:
            if not math.isfinite(float(row[col])):
                raise ValueError(f"{path.name}: non-finite {col} {row[col]}")
    return rows


def _same_bytes_after_resave(path: Path, load, save):
    """Load an artifact, save it again, demand identical bytes; return it."""
    loaded = load(path)
    copy = path.with_name(path.name + ".resaved")
    save(copy, *loaded)
    same = copy.read_bytes() == path.read_bytes()
    copy.unlink()
    if not same:
        raise ValueError(f"{path.name} does not round-trip bit for bit")
    return loaded


def _check_gradients(model, tokens, seed: int) -> None:
    """Compare ``bptt`` with central differences of ``forward_essay``.

    The loss is (y - 2)^2, so its gradient does not vanish. For every
    parameter array, ``M`` included, the slope that ``bptt`` gives along
    a seeded random unit direction must match the central difference of
    the loss. This fails for a wrong gradient in any part of the stack,
    which no score check can see after a single update.
    """
    gold = 2.0
    y, cache = lstmmod.forward_essay(model, tokens)
    grads, d_inputs = lstmmod.bptt(model, cache, gold)
    names = [name for name, _ in model.named_arrays() if name != "M"]
    if sorted(grads) != sorted(names):
        raise ValueError(f"bptt gives gradients for {sorted(grads)}, "
                         f"the model has {sorted(names)}")
    grads["M"] = np.zeros_like(model.M)
    np.add.at(grads["M"].T, list(tokens), d_inputs)
    rng = np.random.default_rng(seed)
    for name in names + ["M"]:
        target = model.get_array(name)
        saved = target.copy()
        direction = rng.standard_normal(target.shape)
        direction /= np.linalg.norm(direction)
        slope = float(np.sum(grads[name] * direction))
        losses = []
        for step in (GRAD_STEP, -GRAD_STEP):
            target[...] = saved + step * direction
            y, _ = lstmmod.forward_essay(model, tokens)
            losses.append((y - gold) ** 2)
        target[...] = saved
        numeric = (losses[0] - losses[1]) / (2.0 * GRAD_STEP)
        if not math.isclose(slope, numeric, rel_tol=GRAD_RTOL,
                            abs_tol=GRAD_ATOL):
            raise ValueError(f"bptt slope {slope!r} for {name} differs from "
                             f"the central difference {numeric!r}")


class Workload:
    """Shared set-up: an ASAP-shaped TSV, a config file and ``ingest``."""

    name = ""
    unit_ops = 1           # ops in one unit of work, timed as a whole
    # the calibration reference shaped like the workload's hot loop
    reference = staticmethod(calibration.lstm_steps)

    def __init__(self, seed: int, size: Size):
        self.seed = seed
        self.size = size
        self.work: Path | None = None
        self.first_digests: dict[str, str] | None = None

    # --- set-up ----------------------------------------------------------

    def setup(self, work: Path, span) -> None:
        """Everything a user does before the first op; timed as setup_s."""
        self.work = work
        work.mkdir(parents=True)
        rows = asap_corpus.generate(self.seed, self.size.n_per_set)
        asap_corpus.write_tsv(work / "essays.tsv", rows)
        with open(work / "ranges.tsv", "w", encoding="utf-8") as fh:
            for s, (lo, hi, _) in asap_corpus.SETS.items():
                fh.write(f"{s}\t{lo}\t{hi}\n")
        settings = {
            "data_path": "essays.tsv",
            "range_table": "ranges.tsv",
            "splits_dir": "splits",
            "models_dir": "models",
            "reports_dir": "reports",
            "heatmaps_dir": "heatmaps",
            "seed": 0,
            "min_count": 1,
            "embed_dim": self.size.embed_dim,
            "lstm_dim": self.size.lstm_dim,
            **self.settings(),
        }
        (work / CONFIG_NAME).write_text(
            "".join(f"{k} = {v}\n" for k, v in settings.items()),
            encoding="utf-8")
        self._write_manifests(rows)
        with span("cli.ingest"):
            _cli(self.work, "ingest")

    def settings(self) -> dict:
        """The workload's own config keys."""
        return {}

    def split_counts(self) -> dict[int, tuple[int, int, int]]:
        """Essays per set in the (train, val, test) manifests."""
        raise NotImplementedError

    def _write_manifests(self, rows) -> None:
        # ingest reuses manifests that already exist
        counts = self.split_counts()
        by_set: dict[int, list[int]] = {}
        for essay_id, s, _, _ in rows:
            by_set.setdefault(s, []).append(essay_id)
        manifests: dict[str, list[int]] = {"train": [], "val": [], "test": []}
        for s, ids in by_set.items():
            start = 0
            for name, n in zip(manifests, counts.get(s, (0, 0, 0))):
                manifests[name] += ids[start:start + n]
                start += n
        splits = self.work / "splits"
        splits.mkdir()
        for name, ids in manifests.items():
            corpusmod.write_manifest(splits / f"{name}.ids", ids)

    def prepare(self) -> None:
        """Untimed work after set-up: load what the checks compare against."""
        self.corpus, _ = corpusmod.load_corpus_cache(
            self.work / "splits" / "corpus.json")

    def split(self, name: str):
        ids = corpusmod.read_manifest(self.work / "splits" / f"{name}.ids")
        return self.corpus.subset(ids)

    # --- ops ---------------------------------------------------------------

    def _stage(self, res: OpResult, part: str, span, *args) -> bool:
        t0 = time.perf_counter()
        try:
            with span(f"cli.{part}"):
                _cli(self.work, *args)
            ok = True
        except Exception as exc:  # a failed op is counted, not fatal
            res.errors[part] = f"{type(exc).__name__}: {exc}"
            ok = False
        res.parts[part] = time.perf_counter() - t0
        res.seconds += res.parts[part]
        return ok

    def artifacts(self) -> list[Path]:
        splits = self.work / "splits"
        return [self.work / "essays.tsv", splits / "corpus.json",
                splits / "train.ids", splits / "val.ids", splits / "test.ids"]

    def check_determinism(self, res: OpResult) -> None:
        digests = {p.name: sha256_file(p) for p in self.artifacts()}
        if self.first_digests is None:
            self.first_digests = digests
        elif digests != self.first_digests:
            changed = sorted(k for k in digests
                             if digests[k] != self.first_digests.get(k))
            res.errors["rerun"] = f"artifacts differ from the first op: {changed}"

    def digests(self) -> dict[str, str]:
        return dict(self.first_digests or {})

    def op_ms(self, results, calibrated: bool = True) -> float:
        """Median over ops of the op's calibrated wall time."""
        return median([1e3 * r.seconds * _scale(r, calibrated)
                       for r in results])

    def items_per_s(self, results, calibrated: bool = True) -> float:
        """Median over ops of work items per calibrated second of the stage."""
        rates = [r.items / (self.work_seconds(r) * _scale(r, calibrated))
                 for r in results if r.items and self.work_seconds(r) > 0]
        return median(rates)


class EmbedWorkload(Workload):
    name = "embed"
    EPOCHS = 1
    reference = staticmethod(calibration.window_step)

    def settings(self):
        # a non-zero learning rate, so that the update path runs
        return {"hidden_dim": self.size.hidden_dim, "window_size": 9,
                "n_corruptions": self.size.n_corruptions, "alpha": 0.1,
                "learning_rate": 0.01, "embed_epochs": self.EPOCHS}

    def split_counts(self):
        return self.size.embed_split

    def prepare(self):
        super().prepare()
        self.windows = sum(len(e.tokens) for e in self.split("train")) \
            * self.EPOCHS

    def run_op(self, k, span) -> OpResult:
        res = OpResult(items=self.windows)
        self._stage(res, "train-embeddings", span, "train-embeddings")
        return res

    def check_op(self, res: OpResult) -> None:
        if res.errors:
            return
        try:
            rows = _finite_csv_rows(
                self.work / "reports" / "embed_history.csv",
                ("loss_overall", "loss_context", "loss_score"))
            if len(rows) != self.EPOCHS:
                raise ValueError(f"{len(rows)} epochs in the loss history")
            _same_bytes_after_resave(
                self.work / "models" / "embeddings.sswe",
                sswemod.load_embeddings, sswemod.save_embeddings)
        except Exception as exc:  # a failed check, counted
            res.errors["train-embeddings"] = f"{type(exc).__name__}: {exc}"
            return
        self.check_determinism(res)

    def artifacts(self):
        return super().artifacts() + [
            self.work / "models" / "embeddings.sswe",
            self.work / "reports" / "embed_history.csv"]

    @staticmethod
    def work_seconds(res: OpResult) -> float:
        return res.parts.get("train-embeddings", math.nan)

    def named_metrics(self, results) -> dict:
        stage = [r.parts["train-embeddings"] for r in results
                 if r.parts.get("train-embeddings")]
        rates = [self.windows / s for s in stage]
        return {"train_embeddings_s": (median(stage), "s"),
                "embed_windows_per_s": (median(rates), "1/s")}


class TrainWorkload(Workload):
    name = "train"

    def settings(self):
        return {"layers": 2, "bidirectional": True, "peepholes": "full",
                "dropout": 0.5, "batch_size": 32, "epochs": 1, "patience": 1,
                # high enough that one RMSprop step beats chance on QWK
                "learning_rate": 0.05}

    def split_counts(self):
        return {s: self.size.train_split for s in asap_corpus.SETS}

    def prepare(self):
        super().prepare()
        self.train_tokens = sum(len(e.tokens) for e in self.split("train"))
        # the gradient check runs on the shortest held-out essay
        self.grad_tokens = min((e.tokens for e in self.split("test")), key=len)

    def run_op(self, k, span) -> OpResult:
        res = OpResult(attempted=2)
        if self._stage(res, "train-scorer", span,
                       "train-scorer", "--embeddings", "learned"):
            self._stage(res, "evaluate", span, "evaluate", "--split", "test")
        else:
            res.errors["evaluate"] = "not run: train-scorer failed"
        return res

    def check_op(self, res: OpResult) -> None:
        reports = self.work / "reports"
        if "train-scorer" not in res.errors:
            try:
                rows = _finite_csv_rows(reports / "scorer_history.csv",
                                        ("train_mse", "val_rmse"))
                res.items = self.train_tokens * len(rows)
                model, _ = _same_bytes_after_resave(
                    self.work / "models" / "model.sats",
                    lstmmod.load_model, lstmmod.save_model)
                if self.first_digests is None:  # later models are equal
                    _check_gradients(model, self.grad_tokens, self.seed)
            except Exception as exc:  # a failed check, counted
                res.errors["train-scorer"] = f"{type(exc).__name__}: {exc}"
        if "evaluate" not in res.errors:
            try:
                (row,) = _finite_csv_rows(
                    reports / "metrics_test.csv",
                    ("spearman", "pearson", "rmse", "qwk"))
                res.payload = float(row["qwk"])
                if not res.payload > QWK_FLOOR:
                    raise ValueError(f"test QWK {row['qwk']} <= {QWK_FLOOR}")
            except Exception as exc:  # a failed check, counted
                res.errors["evaluate"] = f"{type(exc).__name__}: {exc}"
        if not res.errors:
            self.check_determinism(res)

    def artifacts(self):
        reports = self.work / "reports"
        return super().artifacts() + [
            self.work / "models" / "model.sats",
            reports / "scorer_history.csv", reports / "metrics_test.csv",
            reports / "metrics_test.txt"]

    @staticmethod
    def work_seconds(res: OpResult) -> float:
        return res.parts.get("train-scorer", math.nan)

    def named_metrics(self, results) -> dict:
        ok = [r for r in results if "train-scorer" in r.parts]
        train = [r.parts["train-scorer"] for r in ok]
        rates = [r.items / r.parts["train-scorer"] for r in ok]
        evals = [r.parts["evaluate"] for r in results if "evaluate" in r.parts]
        qwk = [r.payload for r in results if isinstance(r.payload, float)]
        return {"train_scorer_s": (median(train), "s"),
                "train_tokens_per_s": (median(rates), "1/s"),
                "evaluate_s": (median(evals), "s"),
                "test_qwk": (qwk[0] if qwk else math.nan, "1")}


class ServeWorkload(Workload):
    name = "serve"

    def settings(self):
        # the default architecture (1 layer, unidirectional), trained briefly
        return {"epochs": 1, "patience": 1, "learning_rate": 0.01}

    def split_counts(self):
        return {s: self.size.serve_split for s in asap_corpus.SETS}

    def setup(self, work, span):
        super().setup(work, span)
        with span("cli.train-scorer"):
            _cli(self.work, "train-scorer", "--embeddings", "learned")
        self.model, self.chash = lstmmod.load_model(
            work / "models" / "model.sats")

    def prepare(self):
        super().prepare()
        held_out = self.split("test")
        by_set: dict[int, list] = {}
        for e in held_out:
            by_set.setdefault(e.set_id, []).append(e)
        self.by_set = by_set
        self.pool = held_out
        self.unit_ops = EXPLAIN_EVERY * len(held_out)
        self.order_rng = np.random.default_rng(self.seed)
        self.refs = {e.essay_id: self._reference(e) for e in held_out}
        self.html = self.work / "heatmaps" / "request.html"
        self.html.parent.mkdir(exist_ok=True)

    def _reference(self, essay):
        """One-essay forward pass and input gradients, computed untraced."""
        r = self.corpus.ranges[essay.set_id]
        y, _ = lstmmod.forward_essay(self.model, essay.tokens)
        pred = r.clamp(r.unscale(min(max(y, 0.0), 1.0)))
        span = SPAN_LEN if len(essay.tokens) > SPAN_LEN else len(essay.tokens)
        mag_max, mag_min = [], []
        for start in range(0, len(essay.tokens), span):
            chunk = essay.tokens[start:start + span]
            for pseudo, out in ((1.0, mag_max), (0.0, mag_min)):
                g = salmod.input_gradients(self.model, chunk, pseudo)
                out.append(np.linalg.norm(g, axis=1))
        return pred, np.concatenate(mag_max), np.concatenate(mag_min)

    def _cycle(self) -> list:
        """A seeded order through all eight sets: each round visits every
        set once in a fresh order, each set's essays in a fresh order."""
        per_set = {s: self.order_rng.permutation(len(es))
                   for s, es in sorted(self.by_set.items())}
        order = []
        for k in range(max(len(v) for v in per_set.values())):
            for s in self.order_rng.permutation(sorted(per_set)):
                if k < len(per_set[int(s)]):
                    order.append(self.by_set[int(s)][per_set[int(s)][k]])
        return order

    def _pass(self) -> list:
        """EXPLAIN_EVERY cycles; each essay is explained in one of them.

        Every pass holds the same requests, so pass times are comparable.
        """
        n = len(self.pool)
        slot = np.arange(n) % EXPLAIN_EVERY
        self.order_rng.shuffle(slot)
        which = {e.essay_id: int(c) for e, c in zip(self.pool, slot)}
        return [(e, which[e.essay_id] == c)
                for c in range(EXPLAIN_EVERY) for e in self._cycle()]

    def run_op(self, k, span) -> OpResult:
        if k % self.unit_ops == 0:
            self.requests = self._pass()
        essay, explain = self.requests[k % self.unit_ops]
        r = self.corpus.ranges[essay.set_id]
        res = OpResult(items=1, key=essay.essay_id)
        qmap = ansi = None
        t0 = time.perf_counter()
        with span("serve.score"):
            pred = lstmmod.predict(self.model, [essay], self.corpus.ranges)
        t1 = time.perf_counter()
        res.parts["score"] = t1 - t0
        if explain:
            with span("serve.explain"):
                if len(essay.tokens) > SPAN_LEN:
                    qmap = salmod.quality_map_spans(
                        self.model, essay, self.corpus.vocab, SPAN_LEN,
                        score_range=r, y_max=1.0, y_min=0.0)
                else:
                    qmap = salmod.quality_map(
                        self.model, essay, self.corpus.vocab,
                        score_range=r, y_max=1.0, y_min=0.0)
                salmod.render_html(qmap, self.html, config_hash=self.chash)
                ansi = salmod.render_ansi(qmap)
            res.parts["explain"] = time.perf_counter() - t1
            html_bytes = self.html.stat().st_size
        res.seconds = sum(res.parts.values())
        res.payload = (essay, pred, qmap, ansi, html_bytes if explain else 0)
        return res

    def check_op(self, res: OpResult) -> None:
        if res.errors:
            return
        essay, pred, qmap, ansi, html_bytes = res.payload
        res.payload = None
        ref_pred, ref_max, ref_min = self.refs[essay.essay_id]
        r = self.corpus.ranges[essay.set_id]
        p = float(np.asarray(pred).reshape(-1)[0]) if np.size(pred) == 1 \
            else math.nan
        if not (math.isfinite(p) and r.lo <= p <= r.hi
                and math.isclose(p, ref_pred, rel_tol=RTOL, abs_tol=0.0)):
            res.errors["score"] = (f"essay {essay.essay_id}: prediction {pred!r}"
                                   f", reference {ref_pred!r}")
        if qmap is None:
            return
        n = len(essay.tokens)
        mags = np.array([(e.mag_max, e.mag_min, e.quality)
                         for e in qmap.entries]).reshape(-1, 3)
        problems = []
        if mags.shape[0] != n:
            problems.append(f"{mags.shape[0]} map entries for {n} tokens")
        elif not np.all(np.isfinite(mags)):
            problems.append("non-finite map entry")
        elif not (np.allclose(mags[:, 0], ref_max, rtol=RTOL, atol=0.0)
                  and np.allclose(mags[:, 1], ref_min, rtol=RTOL, atol=0.0)):
            problems.append("magnitudes differ from input_gradients")
        if qmap.tokens() != self.corpus.vocab.decode(essay.tokens):
            problems.append("map tokens differ from the essay")
        if ansi is None or ansi.count("\x1b[0m") != n or html_bytes == 0:
            problems.append("rendering incomplete")
        if problems:
            res.errors["explain"] = f"essay {essay.essay_id}: {problems[0]}"

    def artifacts(self):
        return super().artifacts() + [self.work / "models" / "model.sats"]

    def digests(self) -> dict[str, str]:
        out = {p.name: sha256_file(p) for p in self.artifacts()}
        h = hashlib.sha256()
        for essay_id in sorted(self.refs):
            pred, mag_max, mag_min = self.refs[essay_id]
            h.update(np.float64(pred).tobytes())
            h.update(mag_max.tobytes())
            h.update(mag_min.tobytes())
        out["reference_outputs"] = h.hexdigest()
        return out

    def named_metrics(self, results) -> dict:
        total = sum(r.seconds for r in results)
        score = [1e3 * r.parts["score"] for r in results if "score" in r.parts]
        explain = [1e3 * r.parts["explain"] for r in results
                   if "explain" in r.parts]
        out = {"serve_essays_per_s": (len(results) / total, "1/s"),
               "score_ms_p50": (median(score), "ms"),
               "explain_ms_p50": (median(explain), "ms")}
        for label, sample in (("score", score), ("explain", explain)):
            value, pct = tail(sample)
            out[f"{label}_ms_tail"] = (value, "ms")
            out[f"{label}_ms_tail_percentile"] = (pct, "%")
            out[f"{label}_samples"] = (len(sample), "count")
        return out

    def op_ms(self, results, calibrated: bool = True) -> float:
        """Median over held-out essays of each essay's median calibrated
        score latency.

        Essay lengths run from 60 to 720 tokens, so request latencies
        form one cluster per essay and a plain percentile can sit on the
        edge between two clusters, where a shift of one request moves it.
        The median over essays of a per-essay statistic does not.
        """
        by_essay: dict[object, list[float]] = {}
        for r in results:
            if "score" in r.parts:
                by_essay.setdefault(r.key, []).append(
                    1e3 * r.parts["score"] * _scale(r, calibrated))
        return median([median(v) for v in by_essay.values()])

    def items_per_s(self, results, calibrated: bool = True) -> float:
        """Median over passes of requests per calibrated second.

        A pass (one unit of work) scores every held-out essay
        EXPLAIN_EVERY times and explains it once, so every pass holds
        the same requests.
        """
        n = self.unit_ops
        rates = []
        for k in range(0, len(results) - n + 1, n):
            busy = sum(r.seconds * _scale(r, calibrated)
                       for r in results[k:k + n])
            rates.append(n / busy)
        return median(rates)


WORKLOADS = {w.name: w for w in (EmbedWorkload, TrainWorkload, ServeWorkload)}


def _scale(res: OpResult, calibrated: bool) -> float:
    return res.scale if calibrated else 1.0


def median(values) -> float:
    return float(np.median(values)) if len(values) else math.nan


def tail(values) -> tuple[float, float]:
    """The highest percentile with at least 10 samples beyond it.

    That is the 11th-largest value, at percentile 100 * (1 - 10/n). A
    sample of 20 or fewer has no such percentile at or above the median;
    its maximum stands in and the percentile reads 100.
    """
    n = len(values)
    if n == 0:
        return math.nan, math.nan
    ordered = sorted(values)
    if n <= 20:
        return float(ordered[-1]), 100.0
    return float(ordered[n - 11]), 100.0 * (1.0 - 10.0 / n)


def clean(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
