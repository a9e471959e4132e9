"""Command-line entry point: prepare, train, extract-topics, evaluate, coherence.

Every run writes a resolved-config snapshot into its output directory;
rerunning from that snapshot reproduces the outputs bit for bit.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import logging
import shutil
import sys
from contextlib import contextmanager
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from . import corpus as corpus_mod
from . import encoder as encoder_mod
from . import evaluate as evaluate_mod
from . import mutual as mutual_mod
from . import ntm as ntm_mod
from .checkpoint import load_checkpoint, save_checkpoint
from .config import RunConfig, load_config_file, write_snapshot
from .corpus import Vocabulary
from .nn import SeededRng
from .topics import write_topic_report

logger = logging.getLogger(__name__)

# The prepared files a checkpoint's parameters index into; every command
# checks them against the manifest, and `train` records their checksums so
# `extract-topics` can refuse other vocabularies.
_VOCAB_FILES = ("vocab.tsv", "encoder_vocab.tsv")


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _resolve_config(args) -> RunConfig:
    """The `--config` file (or the defaults) with every given flag set on top."""
    cfg = load_config_file(args.config) if args.config else RunConfig()
    for f in fields(RunConfig):
        value = getattr(args, f.name, None)  # use_topics has no flag of its own
        if value is not None:
            setattr(cfg, f.name, value)
    if args.no_topics:
        cfg.use_topics = False
    if not cfg.data:
        raise ValueError("--data (or a config data= entry) is required")
    cfg.validate()
    return cfg


def _prepare_dir(cfg: RunConfig) -> Path:
    return Path(cfg.out_dir) / "prepared"


def cmd_prepare(args) -> int:
    cfg = _resolve_config(args)
    out = _prepare_dir(cfg)
    out.mkdir(parents=True, exist_ok=True)

    records = corpus_mod.load_tsv(cfg.data)
    if not records:
        print(f"prepare: no usable records in {cfg.data}", file=sys.stderr)
        return 1
    examples = corpus_mod.examples_from_records(records)
    vocab = corpus_mod.build_vocabulary(records, cfg.vocab_max_size)
    enc_vocab = encoder_mod.build_encoder_vocab(
        records, cfg.enc_vocab_max_size, ntm_vocab=vocab
    )

    vocab.to_tsv(out / "vocab.tsv")
    enc_vocab.to_tsv(out / "encoder_vocab.tsv")
    corpus_mod.write_examples_jsonl(
        out / "examples.jsonl", zip((r.split_tag for r in records), examples)
    )
    write_snapshot(cfg, out / "config.resolved")

    manifest = {
        "corpus_sha256": _sha256(Path(cfg.data)),
        "examples": len(examples),
        "label_counts": corpus_mod.label_counts(records),
        "target_counts": dict(sorted(corpus_mod.target_counts(records).items())),
        "vocab_size": vocab.size,
        "encoder_vocab_size": enc_vocab.size,
        "checksums": {
            name: _sha256(out / name)
            for name in (*_VOCAB_FILES, "examples.jsonl")
        },
    }
    (out / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"prepared {len(examples)} examples -> {out}")
    return 0


def _load_prepared(cfg: RunConfig):
    """Records, both vocabularies and their checksums, which must match the manifest's."""
    out = _prepare_dir(cfg)
    path = out / "manifest.json"
    if not path.exists():
        raise FileNotFoundError(f"no prepared data under {out}; run `prepare` first")
    records = corpus_mod.load_tsv(cfg.data)
    try:
        manifest = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as err:  # not UTF-8 or not JSON
        raise ValueError(f"{path} is not JSON ({err}); re-run prepare") from None
    if not isinstance(manifest, dict):
        raise ValueError(f"{path} is not a JSON object; re-run prepare")
    checksums = manifest.get("checksums", {})
    if not isinstance(checksums, dict):
        raise ValueError(f"{path} holds checksums that are not a JSON object; re-run prepare")
    if manifest.get("corpus_sha256") != _sha256(Path(cfg.data)):
        raise ValueError(
            f"prepared data under {out} was built from another corpus; re-run prepare"
        )
    vocab_sha = {name: _sha256(out / name) for name in _VOCAB_FILES}
    for name, sha in vocab_sha.items():
        if checksums.get(name) != sha:
            raise ValueError(f"{out / name} does not match its manifest checksum; re-run prepare")
    vocab, enc_vocab = (Vocabulary.from_tsv(out / name) for name in _VOCAB_FILES)
    return records, vocab, enc_vocab, vocab_sha


def _cross_run_name(target: str) -> str:
    return f"cross_{target.replace(' ', '_')}"


def _check_targets(vocab: Vocabulary, records, n_top_terms, max_len=None, cross=False,
                   where="") -> None:
    """Refuse settings some corpus target cannot meet: an `n_top_terms` (None:
    topics off; `where` begins its refusal) its topic rows cannot fill once its
    own words are masked, a `max_len` its non-sentence segments exceed, or
    (`cross`) a cross-target run directory that would leave `train/` or be
    another target's; the `cross_` prefix already rules out `.` and `..`."""
    runs: dict[str, str] = {}
    for target in sorted({r.target for r in records}):
        tokens = corpus_mod.tokenize(target, mode="encoder")
        ids = set(vocab.ids(tokens))
        room = vocab.size - len(ids)
        if n_top_terms is not None and n_top_terms > room:
            raise ValueError(
                f"{where}config field n_top_terms must be <= {room}, the vocabulary words "
                f"left after masking target {target!r}"
            )
        fixed = encoder_mod.non_sentence_length(len(tokens), (n_top_terms or 0) if ids else 0)
        if max_len is not None and max_len < fixed:
            raise ValueError(
                f"config field max_len must be >= {fixed}, the non-sentence tokens "
                f"of target {target!r}"
            )
        run = _cross_run_name(target)
        if cross and ("/" in run or "\\" in run):
            raise ValueError(
                f"target {target!r} cannot name a run directory: {run!r} is not one path component"
            )
        if cross and runs.setdefault(run, target) != target:
            raise ValueError(
                f"targets {runs[run]!r} and {target!r} would share the run directory train/{run}"
            )


def _init_models(cfg: RunConfig, log_freq: np.ndarray, enc_vocab_size: int, rng: SeededRng):
    """The topic model and encoder `train` starts a run from, over vocabularies of
    `len(log_freq)` and `enc_vocab_size` words, drawn from `rng`."""
    ntm_cfg = ntm_mod.NtmConfig(vocab_size=len(log_freq), num_topics=cfg.num_topics,
                                latent_dim=cfg.latent_dim, hidden_dim=cfg.ntm_hidden_dim)
    enc_cfg = encoder_mod.EncoderConfig(vocab_size=enc_vocab_size, emb_dim=cfg.emb_dim,
                                        hidden_dim=cfg.encoder_hidden_dim,
                                        output_dim=cfg.encoder_output_dim)
    return (ntm_mod.init_ntm(ntm_cfg, log_freq, rng.child(10)),
            encoder_mod.init_encoder(enc_cfg, rng.child(11)))


def _schedule(cfg: RunConfig, seed: int) -> mutual_mod.TrainSchedule:
    return mutual_mod.TrainSchedule(
        max_iterations=cfg.iterations,
        ntm_epochs=cfg.ntm_epochs,
        classifier_epochs=cfg.classifier_epochs,
        batch_size=cfg.batch_size,
        seed=seed,
        patience=cfg.patience,
        kl_warmup_epochs=cfg.kl_warmup_epochs,
    )


def load_run(path):
    """The run config a `train` checkpoint's header holds; the topic model,
    encoder and projection head (or None) `train` builds from it, holding the
    checkpoint's arrays; and the header. The arrays must be the models' own,
    name for name and shape for shape, all float64 and finite."""
    arrays, meta = load_checkpoint(path)
    if not isinstance(meta.get("config"), dict):
        raise ValueError(f"{path} stores no run config; retrain it with `train`")
    settings = {f.name for f in fields(RunConfig)}
    for name in sorted(meta["config"].keys() ^ settings):
        what = "is missing" if name in settings else "is not a run setting"
        raise ValueError(f"{path}: its header's config field {name} {what}")
    cfg = RunConfig(**meta["config"])
    try:  # whatever the flags: a malformed header is a corrupt file, like a cut-short one
        cfg.validate()
    except ValueError as err:
        raise ValueError(f"{path}: its header's {err}") from None
    sizes = []
    for name in ("ntm/log_freq", "enc/word_emb"):  # their rows are the vocabulary sizes
        if name not in arrays:
            raise ValueError(f"{path} holds no {name} array")
        if not arrays[name].ndim or not len(arrays[name]):
            raise ValueError(f"{path}: array {name!r} has no rows to give a vocabulary size")
        sizes.append(len(arrays[name]))
    rng = SeededRng(0)  # any draws: the checkpoint's arrays replace them all
    ntm, enc = _init_models(cfg, np.zeros(sizes[0]), sizes[1], rng)
    proj = (mutual_mod.init_projection(enc.cfg.output_dim, ntm.cfg.num_topics, rng)
            if cfg.gamma > 0.0 else None)
    layout = mutual_mod.run_arrays(ntm, enc, proj)
    for name in sorted(layout.keys() | arrays.keys()):
        if name not in layout:
            raise ValueError(f"{path}: array {name!r} is not one of the run's models' arrays")
        if name not in arrays:
            raise ValueError(f"{path}: array {name!r} is missing; the run's models hold one")
        have, want = arrays[name], layout[name]
        if (have.dtype, have.shape) != (want.dtype, want.shape):
            raise ValueError(f"{path}: array {name!r} is {have.dtype} of shape {have.shape}; "
                             f"the run's models hold {want.dtype} of shape {want.shape}")
        if not np.isfinite(have).all():
            raise ValueError(f"{path}: array {name!r} holds NaN or infinite values")
        np.copyto(want, have)
    return cfg, ntm, enc, proj, meta


@contextmanager
def _replaced_when_complete(out: Path):
    """Yield an empty temporary sibling of `out` that replaces `out` once the
    block completes; if the block raises, `out` is left as it was."""
    tmp = out.with_name(f".{out.name}.tmp")
    shutil.rmtree(tmp, ignore_errors=True)  # left by a run that was killed
    tmp.mkdir(parents=True)
    try:
        yield tmp
        shutil.rmtree(out, ignore_errors=True)
        tmp.rename(out)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


@dataclass
class _Protocol:
    """A protocol's (name, split, seed) rows and what training any of them
    needs; `evaluate` runs every row through `run_row`, and `train` one."""

    cfg: RunConfig
    cross: bool  # cross_target rows, else in_target folds
    runs: list
    vocab: Vocabulary
    enc_vocab: Vocabulary
    vocab_sha: dict[str, str]
    log_freq: np.ndarray

    @classmethod
    def set_up(cls, args, protocol: str, held_out: str | None = None) -> "_Protocol":
        """Resolve the config, load the prepared data and list the rows; refuse vocabulary
        sizes it was not built to, settings a target cannot meet, or a cross-target row
        (only `held_out`'s, if given) with nothing to train on or score, before any run exists."""
        cfg = _resolve_config(args)
        records, vocab, enc_vocab, vocab_sha = _load_prepared(cfg)
        prepared = load_config_file(_prepare_dir(cfg) / "config.resolved")
        for key in ("vocab_max_size", "enc_vocab_max_size"):
            if getattr(cfg, key) != getattr(prepared, key):
                raise ValueError(f"prepared data under {_prepare_dir(cfg)} was built with {key}="
                                 f"{getattr(prepared, key)}, not {getattr(cfg, key)}; re-run prepare")
        examples = corpus_mod.examples_from_records(records)
        try:
            runs = evaluate_mod.protocol_runs(protocol, records, examples, cfg.folds, cfg.seed)
        except corpus_mod.CorpusFormatError as err:
            raise ValueError(f"{cfg.data}: {err}") from None
        cross = protocol == "cross_target"
        for name, split, _ in runs if cross else ():
            if held_out in (None, name) and not (split.train and split.test):
                why = ("train on: no other target has rows tagged train" if not split.train
                       else "score: it has no rows tagged test")
                raise ValueError(f"{cfg.data}: the cross-target row of target {name!r} "
                                 f"has nothing to {why}")
        _check_targets(vocab, records, cfg.n_top_terms if cfg.use_topics else None, cfg.max_len,
                       cross=cross)
        bows = corpus_mod.vectorize_all([ex.tokens for ex in examples], vocab)
        return cls(cfg, cross, runs, vocab, enc_vocab, vocab_sha,
                   ntm_mod.compute_log_freq(bows))

    def run_row(self, name: str, split, seed: int) -> list[str]:
        """Train one row from scratch, write its run directory
        `train/<fold_i | cross_<target>>/`, and return its test predictions. The
        directory is replaced only once every file of the row is written."""
        cfg = self.cfg
        run_name = _cross_run_name(name) if self.cross else name
        out = Path(cfg.out_dir) / "train" / run_name
        with _replaced_when_complete(out) as tmp:
            write_snapshot(cfg, tmp / "config.resolved")
            ntm, enc = _init_models(cfg, self.log_freq, self.enc_vocab.size, SeededRng(seed))
            result = mutual_mod.train_alternating(
                ntm, enc,
                mutual_mod.TrainData.from_split(
                    split, self.vocab, self.enc_vocab, corpus_mod.vectorize_all
                ),
                _schedule(cfg, seed),
                gamma=cfg.gamma,
                lr_ntm=cfg.lr_ntm,
                lr_classifier=cfg.lr_classifier,
                n_top_terms=cfg.n_top_terms,
                ratio_p=cfg.ratio_p,
                use_topics=cfg.use_topics,
                max_len=cfg.max_len,
            )
            save_checkpoint(
                tmp / "checkpoint.bin",
                mutual_mod.run_arrays(result.ntm, result.enc, result.proj_params),
                meta={
                    "seed": seed,
                    "mode": "cross_target" if self.cross else "in_target_fold",
                    "run": run_name,
                    "iterations_run": result.stopped_at_iteration,
                    "selected_iteration": result.selected_iteration,
                    "step_counters": {
                        "ntm": result.ntm_steps,
                        "classifier": result.classifier_steps,
                    },
                    "config": asdict(cfg),
                    "vocab_sha256": self.vocab_sha,
                },
            )
            corpus_mod.write_examples_jsonl(
                tmp / "split.jsonl",
                ((role, ex) for role in corpus_mod.SPLIT_TAGS for ex in getattr(split, role)),
            )
            mutual_mod.history_to_csv(result.history, tmp / "history.csv")
            ntm_mod.export_topic_word_tsv(result.ntm, self.vocab, tmp / "topic_word.tsv")
            if result.topics_by_target:
                write_topic_report(tmp / "topics.tsv", sorted(result.topics_by_target.items()))
            probs = encoder_mod.predict_proba(result.enc, encoder_mod.build_inputs(
                split.test, result.topics_by_target, self.enc_vocab, cfg.max_len, cfg.use_topics
            ))
            preds = encoder_mod.labels_of(probs)
            encoder_mod.write_predictions(tmp / "predictions.tsv", split.test, preds, probs)
            golds = [ex.label for ex in split.test]
            report = evaluate_mod.metric_report(evaluate_mod.confusion(golds, preds))
            evaluate_mod.report_to_csv(tmp / "metrics.csv", [(run_name, report)])
        print(f"trained {run_name}: test macro F1 {report.macro_f1:.4f} -> {out}")
        return preds


def cmd_train(args) -> int:
    """Train, save and score the one run of the matching protocol that
    `--fold` or `--held-out` names."""
    cross = args.mode == "cross_target"
    if (args.fold if cross else args.held_out) is not None:
        other = "--fold" if cross else "--held-out"
        raise ValueError(f"{other} does not apply in {args.mode} mode")
    if cross and not args.held_out:
        raise ValueError("--held-out TARGET is required in cross_target mode")
    protocol = _Protocol.set_up(args, "cross_target" if cross else "in_target", args.held_out)
    names = [name for name, _, _ in protocol.runs]
    if cross and args.held_out not in names:
        raise ValueError(f"unknown target {args.held_out!r}; corpus has {names}")
    fold = 0 if args.fold is None else args.fold
    if not cross and not 0 <= fold < len(names):
        raise ValueError(f"--fold must be in [0, {len(names)})")
    row = protocol.runs[names.index(args.held_out) if cross else fold]
    evaluate_mod.run_protocol(protocol.run_row, [row])
    return 0


def cmd_evaluate(args) -> int:
    """Run every row of the protocol as `train` would, then write the metrics table."""
    protocol = _Protocol.set_up(args, args.protocol)
    averaged, rows = evaluate_mod.run_protocol(protocol.run_row, protocol.runs)
    out = Path(protocol.cfg.out_dir) / "eval"
    with _replaced_when_complete(out) as tmp:
        for kept in out.glob("*_metrics.csv"):  # the other protocol's table stays
            shutil.copyfile(kept, tmp / kept.name)
        write_snapshot(protocol.cfg, tmp / "config.resolved")
        evaluate_mod.report_to_csv(tmp / f"{args.protocol}_metrics.csv", rows, averaged)
    print(
        f"{args.protocol}: macro F1 {averaged.macro_f1:.4f} "
        f"over {len(rows)} runs -> {out}"
    )
    return 0


def cmd_extract_topics(args) -> int:
    cfg = _resolve_config(args)
    records, vocab, enc_vocab, vocab_sha = _load_prepared(cfg)
    run, ntm, enc, _, meta = load_run(args.checkpoint)
    if meta.get("vocab_sha256") != vocab_sha:
        raise ValueError(
            f"checkpoint {args.checkpoint} was trained on other vocabularies than "
            f"the prepared data under {_prepare_dir(cfg)}"
        )
    for key in ("n_top_terms", "ratio_p"):  # the run's settings, unless flagged
        if getattr(args, key) is None:
            setattr(cfg, key, getattr(run, key))
    header = f"{args.checkpoint}: its header's " if args.n_top_terms is None else ""
    _check_targets(vocab, records, cfg.n_top_terms, where=header)
    # extraction reads only the vocabularies, never the examples
    data = mutual_mod.TrainData(examples=[], bows=None, vocab=vocab, enc_vocab=enc_vocab)
    targets = sorted({r.target for r in records})
    topics = mutual_mod.extract_topics_for_targets(
        ntm, enc, data, targets, cfg.n_top_terms, cfg.ratio_p
    )
    out = Path(args.out or (Path(cfg.out_dir) / "topics.tsv"))
    out.parent.mkdir(parents=True, exist_ok=True)
    write_topic_report(out, sorted(topics.items()))
    print(f"extracted topics for {len(topics)} targets -> {out}")
    return 0


def cmd_coherence(args) -> int:
    cfg = _resolve_config(args)
    try:
        cutoffs = tuple(int(c) for c in args.cutoffs.split(","))
        if min(cutoffs) < 2 or len(set(cutoffs)) < len(cutoffs):
            raise ValueError
    except ValueError:
        raise ValueError(
            f"--cutoffs takes comma-separated integers >= 2, got {args.cutoffs!r}"
        ) from None
    records, _, _, _ = _load_prepared(cfg)

    weights: dict[int, list[tuple[float, str]]] = {}  # per topic, in file order
    with corpus_mod.open_utf8(args.topics) as fh:
        header = fh.readline()
        if header.strip() != "topic\tword\tweight":
            raise ValueError(f"{args.topics}: not a topic_word.tsv export")
        for lineno, line in enumerate(fh, start=2):
            line = line.rstrip("\n")
            parts = line.split("\t")
            try:
                if len(parts) != 3:
                    raise ValueError
                topic, word, weight = int(parts[0]), parts[1], float(parts[2])
                if not np.isfinite(weight):
                    raise ValueError
            except ValueError:
                raise ValueError(
                    f"{args.topics}:{lineno}: expected 'topic<TAB>word<TAB>weight' "
                    f"(an int, a word, a finite float), got {line!r}"
                ) from None
            weights.setdefault(topic, []).append((weight, word))
    if not weights:
        raise ValueError(f"{args.topics}: no topic lines")
    top_words = {}
    for topic, rows in weights.items():
        # weight descending, ties in file order: the order `topics.top_terms` gives
        # `train`'s export, which lists each topic's words by id
        try:
            top_words[topic] = evaluate_mod.scored_words(
                [w for _, w in sorted(rows, key=lambda t: -t[0])], cutoffs
            )
        except ValueError as err:
            raise ValueError(f"{args.topics}: topic {topic}: {err}") from None
    docs = [
        corpus_mod.tokenize(r.sentence, mode="ntm") for r in records
    ]
    report = evaluate_mod.coherence_report(
        top_words, docs, window=cfg.npmi_window, cutoffs=cutoffs
    )
    out = Path(args.out or (Path(cfg.out_dir) / "coherence.csv"))
    out.parent.mkdir(parents=True, exist_ok=True)
    report.to_csv(out)
    means = " ".join(f"@{c}={report.averaged[c]:.4f}" for c in cutoffs)
    print(f"NPMI {means} -> {out}")
    return 0


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    """`--config`, then one `--<key>` per RunConfig key, typed by its default."""
    p.add_argument("--config", help="key=value config file")
    for f in fields(RunConfig):
        if f.name != "use_topics":
            p.add_argument(f"--{f.name.replace('_', '-')}", type=type(f.default))
    p.add_argument(
        "--no-topics",
        dest="no_topics",
        action="store_true",
        help="disable explainable topics (the -ET ablation)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="topicarg",
        description="Topic-enhanced sentence-level argument mining",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prepare", help="build vocabularies and manifests")
    _add_config_flags(p)
    p.set_defaults(fn=cmd_prepare)

    p = sub.add_parser("train", help="run the alternating trainer on one split")
    _add_config_flags(p)
    p.add_argument("--mode", choices=("in_target_fold", "cross_target"), required=True)
    p.add_argument("--fold", type=int, help="fold index (in_target_fold; default 0)")
    p.add_argument("--held-out", dest="held_out", help="held-out target (cross_target)")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("evaluate", help="run a full evaluation protocol")
    _add_config_flags(p)
    p.add_argument("--protocol", choices=("in_target", "cross_target"), required=True)
    p.set_defaults(fn=cmd_evaluate)

    p = sub.add_parser("extract-topics", help="extract topics from a checkpoint")
    _add_config_flags(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_extract_topics)

    p = sub.add_parser("coherence", help="NPMI coherence over a topic_word.tsv export")
    _add_config_flags(p)
    p.add_argument("--topics", required=True, help="topic_word.tsv from training")
    p.add_argument("--cutoffs", default="5,10,15,20")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_coherence)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError, AssertionError, FloatingPointError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
