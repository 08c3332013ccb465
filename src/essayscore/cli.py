"""Command-line pipeline driver.

Subcommands cover the whole workflow: ``ingest`` splits and caches a
corpus, ``train-embeddings`` and ``train-scorer`` fit the two stages,
``evaluate`` reports metrics, ``visualize`` renders token heatmaps,
``search`` runs seeded random hyperparameter search, and ``synth``
generates the synthetic fixtures. Every flag mirrors a config key;
``--config`` (or the ESSAYSCORE_CONFIG environment variable) names a
``key = value`` file applied underneath the flags.

Exit codes: 0 success, 1 usage or config error, 2 data error,
3 numerical failure. A run that asks for more memory than there is, as
sizes a config sets too large do, is a config error.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import os
import sys

import numpy as np

from . import config as cfgmod
from . import corpus as corpusmod
from . import lstm as lstmmod
from . import metrics as metricsmod
from . import saliency as salmod
from . import sswe as sswemod
from . import synth as synthmod
from .errors import ConfigError, DataError, NumericalError

ENV_CONFIG = "ESSAYSCORE_CONFIG"

CACHE_NAME = "corpus.json"  # binary; the benchmark reads it by this name
MANIFEST_NAMES = {"train": "train.ids", "val": "val.ids", "test": "test.ids"}
EMBEDDINGS_NAME = "embeddings.sswe"
MODEL_NAME = "model.sats"
# an error line longer than this is cut, and its length shown
ERROR_LINE_CHARS = 300


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


class _Pending:
    """Temp files moved into place together when the ``with`` block ends.

    A command that fails mid-way, even while moving, leaves neither a
    partial primary artifact nor ``.tmp`` debris behind. A final path
    asked for again keeps its one temp file and its one move. Asking for
    a path creates its directory.
    """

    def __init__(self, chash: str = ""):
        self.chash = chash  # the config hash stamped on reports
        self.moves: dict[str, str] = {}  # final path -> temp path

    def path_for(self, final) -> str:
        os.makedirs(os.path.dirname(os.path.abspath(final)), exist_ok=True)
        return self.moves.setdefault(str(final), str(final) + ".tmp")

    def write_text(self, final, text: str):
        with open(self.path_for(final), "w", encoding="utf-8", newline="") as fh:
            fh.write(text)

    def write_report(self, final, lines):
        """``lines`` under a ``# config <hash>`` line, one per line."""
        self.write_text(final, "\n".join([f"# config {self.chash}", *lines])
                        + "\n")

    def __enter__(self):
        return self

    def __exit__(self, exc_type, *exc):
        try:
            if exc_type is None:
                for final, tmp in self.moves.items():
                    os.replace(tmp, final)
        finally:
            for tmp in self.moves.values():
                if os.path.exists(tmp):
                    os.remove(tmp)


def _resolve_config(args) -> cfgmod.Config:
    cfg = cfgmod.Config()
    path = args.config or os.environ.get(ENV_CONFIG)
    if path:
        cfg = cfgmod.load_config(path, base=cfg)
    for key in cfgmod._FIELDS:
        value = getattr(args, key, None)
        if value is not None:
            setattr(cfg, key, cfgmod._coerce(key, value))
    cfg.validate()
    return cfg


def _split_essays(corpus, name, path):
    """The essays of a split manifest; an id the corpus lacks is a
    :class:`DataError` naming the manifest."""
    ids = corpusmod.read_manifest(path)
    try:
        return corpus.subset(ids)
    except DataError as exc:
        raise DataError(f"{name} manifest {path}: {exc}") from None


def _stage(args, *split_names):
    """A stage's config, its hash, the cached corpus and the named splits.

    In raw-score mode each split essay's target is its raw score instead
    of the scaled one. A missing cache or manifest, or a manifest that
    lists no essays, is a :class:`DataError`.
    """
    cfg = _resolve_config(args)
    path = os.path.join(cfg.splits_dir, CACHE_NAME)
    if not os.path.exists(path):
        raise DataError(f"no corpus cache at {path}; run `ingest` first")
    corpus, _ = corpusmod.load_corpus_cache(path)
    splits = []
    for name in split_names:
        path = os.path.join(cfg.splits_dir, MANIFEST_NAMES[name])
        if not os.path.exists(path):
            raise DataError(f"no {name} manifest at {path}; run `ingest` first")
        essays = _split_essays(corpus, name, path)
        if not essays:
            raise DataError(f"{name} manifest {path} lists no essays")
        if not cfg.normalize_scores:
            essays = [dataclasses.replace(e, scaled_score=e.raw_score)
                      for e in essays]
        splits.append(essays)
    return cfg, cfgmod.config_hash(cfg), corpus, splits


def _pseudo_bounds(cfg, score_range):
    if cfg.normalize_scores:
        return 1.0, 0.0
    return score_range.hi, score_range.lo


# --- subcommands --------------------------------------------------------

def cmd_ingest(args) -> int:
    cfg = _resolve_config(args)
    chash = cfgmod.config_hash(cfg)
    ranges = corpusmod.read_range_table(cfg.range_table) if cfg.range_table \
        else None
    corpus, row_errors = corpusmod.load_corpus(
        cfg.data_path, min_count=cfg.min_count, ranges=ranges)
    for err in row_errors:
        print(f"warning: line {err.line}: {err.message}", file=sys.stderr)
    if not corpus.essays:
        raise DataError(f"no usable essays in {cfg.data_path}")

    manifest_paths = {name: os.path.join(cfg.splits_dir, fname)
                      for name, fname in MANIFEST_NAMES.items()}
    with _Pending() as pending:
        if all(os.path.exists(p) for p in manifest_paths.values()):
            print("reusing existing split manifests")
            sizes = {name: len(_split_essays(corpus, name, p))
                     for name, p in manifest_paths.items()}
        else:
            train, val, test = corpusmod.split_corpus(corpus.essays, cfg)
            for name, essays in (("train", train), ("val", val), ("test", test)):
                corpusmod.write_manifest(pending.path_for(manifest_paths[name]),
                                         [e.essay_id for e in essays], chash)
            sizes = {"train": len(train), "val": len(val), "test": len(test)}
        corpusmod.save_corpus_cache(
            pending.path_for(os.path.join(cfg.splits_dir, CACHE_NAME)),
            corpus, chash)
    print(f"ingested {len(corpus.essays)} essays "
          f"({len(corpus.vocab)} vocabulary entries); splits: "
          f"{sizes['train']}/{sizes['val']}/{sizes['test']}")
    return 0


def cmd_train_embeddings(args) -> int:
    cfg, chash, corpus, (train,) = _stage(args, "train")
    params, history = sswemod.train_sswe(train, corpus.vocab, cfg)

    with _Pending(chash) as pending:
        sswemod.save_embeddings(
            pending.path_for(os.path.join(cfg.models_dir, EMBEDDINGS_NAME)),
            params, corpus.vocab, chash)
        pending.write_report(
            os.path.join(cfg.reports_dir, "embed_history.csv"),
            ["epoch,loss_overall,loss_context,loss_score"]
            + [f"{h.epoch},{h.loss_overall!r},{h.loss_context!r},"
               f"{h.loss_score!r}" for h in history])
    last = history[-1] if history else None
    tail = (f"; final loss {last.loss_overall:.6f}" if last else "")
    # one window per token
    n_windows = sum(len(e.tokens) for e in train)
    print(f"trained embeddings on {n_windows} windows"
          f" over {len(train)} essays{tail}")
    return 0


def _init_scorer(cfg, corpus, embeddings_arg: str):
    """Model around pretrained embeddings, or fresh ones for "learned"."""
    rng = np.random.default_rng(cfg.seed)
    if embeddings_arg == "learned":
        # word-major like a loaded embedding matrix: training reads and
        # steps whole columns
        M = sswemod.uniform_columns(rng, lstmmod.INIT_SCALE, cfg.embed_dim,
                                    len(corpus.vocab))
    else:
        params, vocab, _ = sswemod.load_embeddings(embeddings_arg)
        if len(vocab) != len(corpus.vocab):
            raise DataError(
                f"embedding vocabulary has {len(vocab)} entries but the "
                f"corpus has {len(corpus.vocab)}; retrain embeddings on "
                f"this corpus")
        for i, (tok, want) in enumerate(zip(vocab.id_to_token,
                                            corpus.vocab.id_to_token)):
            if tok != want:
                raise DataError(
                    f"embedding vocabulary has {tok!r} at id {i} where the "
                    f"corpus has {want!r}; retrain embeddings on this corpus")
        if params.embed_dim != cfg.embed_dim:
            raise DataError(
                f"embeddings have dimension {params.embed_dim} but the "
                f"config's embed_dim is {cfg.embed_dim}")
        M = params.M
    return lstmmod.SeqModel.init(M, cfg, rng)


def cmd_train_scorer(args) -> int:
    cfg, chash, corpus, (train, val) = _stage(args, "train", "val")
    embeddings_arg = args.embeddings or os.path.join(cfg.models_dir,
                                                     EMBEDDINGS_NAME)
    model = _init_scorer(cfg, corpus, embeddings_arg)
    best, history = lstmmod.train_scorer(model, train, val, corpus.ranges, cfg)

    with _Pending(chash) as pending:
        lstmmod.save_model(
            pending.path_for(os.path.join(cfg.models_dir, MODEL_NAME)),
            best, chash)
        pending.write_report(
            os.path.join(cfg.reports_dir, "scorer_history.csv"),
            ["epoch,train_mse,val_rmse"]
            + [f"{h.epoch},{h.train_mse!r},{h.val_rmse!r}" for h in history])
    if history:
        best_rmse = min(h.val_rmse for h in history)
        print(f"trained scorer for {len(history)} epochs; "
              f"best validation RMSE {best_rmse:.4f}")
    else:
        print("saved untrained scorer (epochs = 0)")
    return 0


def _load_scorer(cfg, corpus, model_arg):
    """The scorer at ``model_arg`` (default: the models dir), sized for corpus."""
    model, _ = lstmmod.load_model(
        model_arg or os.path.join(cfg.models_dir, MODEL_NAME))
    if model.vocab_size != len(corpus.vocab):
        raise DataError(f"model vocabulary has {model.vocab_size} entries "
                        f"but the corpus has {len(corpus.vocab)}")
    return model


def cmd_evaluate(args) -> int:
    names = tuple(MANIFEST_NAMES) if args.split == "all" else (args.split,)
    cfg, chash, corpus, splits = _stage(args, *names)
    for name, essays in zip(names, splits):
        # the correlations are undefined when the gold scores never vary
        if len({e.raw_score for e in essays}) < 2:
            path = os.path.join(cfg.splits_dir, MANIFEST_NAMES[name])
            raise DataError(f"{name} split ({path}) has one distinct gold "
                            f"score, {essays[0].raw_score!r}; the metrics "
                            f"need at least two")
    model = _load_scorer(cfg, corpus, args.model)
    model_name = os.path.basename(args.model or MODEL_NAME)

    with _Pending(chash) as pending:
        for name, essays in zip(names, splits):
            # A split over several essay sets still yields one report
            # row; kappa is computed on the union of their score grids.
            sets = {e.set_id for e in essays}
            score_range = corpusmod.ScoreRange(
                min(corpus.ranges[s].lo for s in sets),
                max(corpus.ranges[s].hi for s in sets))
            pred = lstmmod.predict(model, essays, corpus.ranges,
                                   normalized=cfg.normalize_scores)
            gold = [e.raw_score for e in essays]
            rep = metricsmod.report(pred, gold, score_range)
            if np.isnan(rep.pearson_r):
                print(f"note: {name} split: the predictions are constant, "
                      "so Spearman and Pearson are undefined",
                      file=sys.stderr)
            pending.write_report(
                os.path.join(cfg.reports_dir, f"metrics_{name}.csv"),
                [metricsmod.CSV_HEADER, rep.csv_row(model_name)])
            pending.write_report(
                os.path.join(cfg.reports_dir, f"metrics_{name}.txt"),
                [f"{name} split, model {model_name}", rep.pretty()])
            print(f"[{name}]")
            print(rep.pretty())
    return 0


def cmd_visualize(args) -> int:
    try:
        ids = [int(tok) for tok in args.ids.split(",") if tok.strip()]
    except ValueError:
        raise ConfigError(f"--ids expects comma-separated integers, "
                          f"got {args.ids!r}") from None
    if not ids:
        raise ConfigError("--ids named no essays")
    if args.span_len < 1:
        raise ConfigError(f"--span-len must be >= 1, got {args.span_len}")
    cfg, chash, corpus, _ = _stage(args)
    model = _load_scorer(cfg, corpus, args.model)

    index_rows = ["essay_id,predicted,mean_q"]
    with _Pending(chash) as pending:
        for eid in ids:
            try:
                essay = corpus.by_id(eid)
            except KeyError:
                raise DataError(f"essay id {eid} not in corpus") from None
            score_range = corpus.ranges[essay.set_id]
            y_max, y_min = _pseudo_bounds(cfg, score_range)
            span_len = args.span_len if args.mode == "span" \
                else len(essay.tokens)
            qmap = salmod.quality_map_spans(
                model, essay, corpus.vocab, span_len,
                score_range=score_range, y_max=y_max, y_min=y_min)
            salmod.render_html(
                qmap,
                pending.path_for(os.path.join(cfg.heatmaps_dir,
                                              f"essay_{eid}.html")),
                config_hash=chash)
            print(salmod.render_ansi(qmap, monochrome=args.monochrome))
            index_rows.append(f"{eid},{qmap.predicted!r},{qmap.mean_quality!r}")
        pending.write_report(os.path.join(cfg.heatmaps_dir, "index.csv"),
                             index_rows)
    return 0


def _run_trial(cfg, corpus, train, val) -> float:
    params, _ = sswemod.train_sswe(train, corpus.vocab, cfg)
    rng = np.random.default_rng(cfg.seed)
    model = lstmmod.SeqModel.init(params.M, cfg, rng)
    _, history = lstmmod.train_scorer(model, train, val, corpus.ranges, cfg)
    if not history:
        raise ConfigError("search needs a nonzero epoch budget")
    return min(h.val_rmse for h in history)


def cmd_search(args) -> int:
    try:
        choices = tuple(float(a) for a in args.alpha_choices.split(",")) \
            if args.alpha_choices else ()
    except ValueError:
        raise ConfigError(f"--alpha-choices expects comma-separated numbers, "
                          f"got {args.alpha_choices!r}") from None
    space = cfgmod.SearchSpace(trials=args.trials, seed=args.search_seed,
                               alpha_choices=choices)
    space.validate()
    cfg, chash, corpus, (train, val) = _stage(args, "train", "val")

    rng = np.random.default_rng(space.seed)
    rows = ["trial,alpha,learning_rate,embed_dim,hidden_dim,window_size,"
            "n_corruptions,lstm_dim,dropout,seed,val_rmse"]
    best_cfg = None
    best_rmse = np.inf
    for trial in range(space.trials):
        tcfg = space.draw(rng, cfg)
        val_rmse = _run_trial(tcfg, corpus, train, val)
        rows.append(f"{trial},{tcfg.alpha!r},{tcfg.learning_rate!r},"
                    f"{tcfg.embed_dim},{tcfg.hidden_dim},{tcfg.window_size},"
                    f"{tcfg.n_corruptions},{tcfg.lstm_dim},{tcfg.dropout!r},"
                    f"{tcfg.seed},{val_rmse!r}")
        print(f"trial {trial}: alpha={tcfg.alpha:.3f} "
              f"eta={tcfg.learning_rate:.2e} -> val RMSE {val_rmse:.4f}")
        if val_rmse < best_rmse:
            best_rmse = val_rmse
            best_cfg = tcfg

    with _Pending(chash) as pending:
        pending.write_report(os.path.join(cfg.reports_dir, "search_trials.csv"),
                             rows)
        cfgmod.write_config(
            pending.path_for(os.path.join(cfg.reports_dir, "best_config.cfg")),
            best_cfg, header=f"config {chash}")
    print(f"best validation RMSE {best_rmse:.4f}")
    return 0


def cmd_synth(args) -> int:
    if args.seed < 0:
        raise ConfigError(f"--seed must be >= 0, got {args.seed}")
    with _Pending() as pending:
        pending.write_text(args.out, synthmod.generate(args.profile,
                                                       args.seed))
    print(f"wrote {args.profile} corpus to {args.out}")
    return 0


# --- parser -------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="essayscore",
                     description="Essay scoring pipeline with score-specific "
                                 "word embeddings and LSTM regression.")
    parser.add_argument("--config", default=None,
                        help=f"config file path (default: ${ENV_CONFIG})")
    for key in sorted(cfgmod._FIELDS):
        parser.add_argument(f"--{key.replace('_', '-')}", dest=key,
                            default=None, metavar="V",
                            help=f"override config key {key}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="split a TSV corpus and cache it")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("train-embeddings",
                       help="fit score-specific word embeddings")
    p.set_defaults(func=cmd_train_embeddings)

    p = sub.add_parser("train-scorer", help="fit the LSTM scorer")
    p.add_argument("--embeddings", default=None,
                   help="embedding file, or 'learned' to train from scratch")
    p.set_defaults(func=cmd_train_scorer)

    p = sub.add_parser("evaluate", help="score a split and report metrics")
    p.add_argument("--model", default=None, help="model file")
    p.add_argument("--split", default="test",
                   choices=("train", "val", "test", "all"))
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("visualize", help="render token-quality heatmaps")
    p.add_argument("--model", default=None, help="model file")
    p.add_argument("--ids", required=True,
                   help="comma-separated essay ids")
    p.add_argument("--mode", default="essay", choices=("essay", "span"))
    p.add_argument("--span-len", type=int, default=8,
                   help="span length for span mode")
    p.add_argument("--monochrome", action="store_true",
                   help="plain text with [bin] suffixes instead of color")
    p.set_defaults(func=cmd_visualize)

    p = sub.add_parser("search", help="random hyperparameter search")
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--search-seed", type=int, default=0)
    p.add_argument("--alpha-choices", default=None,
                   help="comma-separated alpha values to restrict the draw")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("synth", help="generate a synthetic fixture corpus")
    p.add_argument("--profile", required=True,
                   choices=sorted(synthmod.PROFILES))
    p.add_argument("--seed", type=int, default=0,
                   help="generator seed (default 0)")
    p.add_argument("--out", required=True, help="output TSV path")
    p.set_defaults(func=cmd_synth)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # built once per process: a build is some 60 add_argument and
    # add_parser calls, each asking for the terminal size, and parse_args
    # keeps what it parses in a new namespace, never in the parser
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        return args.func(args)
    except ConfigError as exc:
        line, code = f"error: {exc}", 1
    except MemoryError as exc:
        line, code = (f"error: out of memory ({exc}); are the configured "
                      f"sizes too large?", 1)
    except NumericalError as exc:
        line, code = f"numerical failure: {exc}", 3
    except (DataError, OSError) as exc:
        line, code = f"error: {exc}", 2
    # a message may echo an input whole: a value, a path, a file's line
    if len(line) > ERROR_LINE_CHARS:
        line = f"{line[:ERROR_LINE_CHARS]}... ({len(line)} characters)"
    print(line, file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
