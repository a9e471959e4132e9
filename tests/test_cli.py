import hashlib
import json
import shutil
import tempfile
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from synthdata import stance_corpus, write_tsv
from topicarg import autodiff
from topicarg import corpus as corpus_mod
from topicarg import evaluate as evaluate_mod
from topicarg import mutual as mutual_mod
from topicarg.checkpoint import load_checkpoint, save_checkpoint
from topicarg.cli import _init_models, _Protocol, _resolve_config, build_parser, load_run, main
from topicarg.config import RunConfig, load_config_file, write_snapshot
from topicarg.nn import SeededRng
from topicarg.ntm import compute_log_freq


@pytest.fixture
def corpus_path(tmp_path):
    path = tmp_path / "corpus.tsv"
    write_tsv(stance_corpus(n_per_cell=10, seed=0), path)
    return path


def small_flags(corpus_path, out_dir, extra=()):
    return [
        "--data", str(corpus_path),
        "--out-dir", str(out_dir),
        "--vocab-max-size", "40",
        "--enc-vocab-max-size", "120",
        "--num-topics", "3",
        "--latent-dim", "6",
        "--ntm-hidden-dim", "10",
        "--emb-dim", "8",
        "--encoder-hidden-dim", "10",
        "--encoder-output-dim", "6",
        "--iterations", "2",
        "--batch-size", "8",
        "--n-top-terms", "4",
        "--lr-classifier", "1e-3",
        "--max-len", "64",
        "--folds", "5",
        "--patience", "0",
        *extra,
    ]


def prepare(corpus_path, out_dir):
    assert main(["prepare", *small_flags(corpus_path, out_dir)]) == 0


def train_fold_0(corpus_path, out_dir):
    prepare(corpus_path, out_dir)
    args = ["train", "--mode", "in_target_fold", "--fold", "0",
            *small_flags(corpus_path, out_dir)]
    assert main(args) == 0
    return out_dir / "train" / "fold_0" / "checkpoint.bin"


@pytest.fixture(scope="module")
def trained_fold_0(tmp_path_factory):
    """The corpus and fold-0 checkpoint of one small run, for tests that only read them."""
    root = tmp_path_factory.mktemp("trained")
    corpus_path = root / "corpus.tsv"
    write_tsv(stance_corpus(n_per_cell=10, seed=0), corpus_path)
    return corpus_path, train_fold_0(corpus_path, root / "run")


class TestPrepare:
    def test_writes_manifest_with_counts(self, corpus_path, tmp_path):
        out = tmp_path / "run"
        prepare(corpus_path, out)
        manifest = json.loads((out / "prepared" / "manifest.json").read_text())
        assert manifest["examples"] == 60
        assert manifest["label_counts"] == {"support": 20, "oppose": 20, "none": 20}
        assert 0 < manifest["vocab_size"] <= 40  # max_size caps, corpus is small
        jsonl = (out / "prepared" / "examples.jsonl").read_text().strip().split("\n")
        assert len(jsonl) == 60
        row = json.loads(jsonl[0])
        assert set(row) == {"target", "label", "role", "tokens"}
        assert sorted(p.name for p in (out / "prepared").iterdir()) == [
            "config.resolved", "encoder_vocab.tsv", "examples.jsonl", "manifest.json",
            "vocab.tsv",
        ]
        assert sorted(manifest["checksums"]) == [
            "encoder_vocab.tsv", "examples.jsonl", "vocab.tsv",
        ]

    def test_idempotent_reruns(self, corpus_path, tmp_path):
        out = tmp_path / "run"
        prepare(corpus_path, out)
        first = json.loads((out / "prepared" / "manifest.json").read_text())
        prepare(corpus_path, out)
        second = json.loads((out / "prepared" / "manifest.json").read_text())
        assert first["checksums"] == second["checksums"]

    def test_vocabularies_are_built_from_every_record(self, tmp_path):
        """Transductive scope: words seen only in `test` rows are in both vocabularies."""
        records = stance_corpus(n_per_cell=10, seed=0)
        only_in_test = [r for r in records if r.split_tag == "test"][:2]
        records = [
            replace(r, sentence=f"{r.sentence} quokkas wombats") if r in only_in_test else r
            for r in records
        ]
        path = tmp_path / "corpus.tsv"
        write_tsv(records, path)
        out = tmp_path / "run"
        assert main(["prepare", *small_flags(path, out)]) == 0
        for name in ("vocab.tsv", "encoder_vocab.tsv"):
            words = {line.split("\t")[0] for line in
                     (out / "prepared" / name).read_text(encoding="utf-8").splitlines()}
            assert {"quokkas", "wombats"} <= words, name

    def test_missing_column_diagnostic(self, tmp_path, capsys):
        bad = tmp_path / "bad.tsv"
        bad.write_text("topic\tsentence\tset\nguns\thello\ttrain\n")
        code = main(["prepare", "--data", str(bad), "--out-dir", str(tmp_path / "o")])
        assert code != 0
        assert "annotation" in capsys.readouterr().err

    def test_missing_data_flag(self, tmp_path, capsys):
        assert main(["prepare", "--out-dir", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == (
            "error: --data (or a config data= entry) is required\n"
        )


class TestPreparedCorpusLink:
    COMMANDS = {
        "train": ["train", "--mode", "in_target_fold", "--fold", "0"],
        "evaluate": ["evaluate", "--protocol", "in_target"],
        "extract-topics": ["extract-topics", "--checkpoint", "unused.bin"],
        "coherence": ["coherence", "--topics", "unused.tsv"],
    }

    def test_manifest_records_the_corpus_hash(self, corpus_path, tmp_path):
        out = tmp_path / "run"
        prepare(corpus_path, out)
        manifest = json.loads((out / "prepared" / "manifest.json").read_text())
        assert manifest["corpus_sha256"] == hashlib.sha256(corpus_path.read_bytes()).hexdigest()

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    @pytest.mark.parametrize("change", ["modified_tsv", "manifest_without_hash"])
    def test_another_corpus_is_refused(self, corpus_path, tmp_path, capsys, command, change):
        out = tmp_path / "run"
        prepare(corpus_path, out)
        if change == "modified_tsv":
            lines = corpus_path.read_text().split("\n")
            corpus_path.write_text("\n".join(lines[:-2]) + "\n")  # one row fewer
        else:
            path = out / "prepared" / "manifest.json"
            manifest = json.loads(path.read_text())
            del manifest["corpus_sha256"]
            path.write_text(json.dumps(manifest))
        capsys.readouterr()
        assert main([*self.COMMANDS[command], *small_flags(corpus_path, out)]) == 1
        assert capsys.readouterr().err == (
            f"error: prepared data under {out / 'prepared'} was built from another "
            "corpus; re-run prepare\n"
        )

    @pytest.mark.parametrize(
        "line",
        ["{word}\t1\t7", "{word}", "{word}\t2"],
        ids=["three_columns", "one_column", "id_out_of_order"],
    )
    def test_malformed_vocabulary_line_is_a_clean_error(
        self, corpus_path, tmp_path, capsys, line
    ):
        out = tmp_path / "run"
        prepare(corpus_path, out)
        path = out / "prepared" / "vocab.tsv"
        lines = path.read_text(encoding="utf-8").split("\n")
        word = lines[1].split("\t")[0]
        lines[1] = line.format(word=word)  # the second line, id 1
        path.write_text("\n".join(lines), encoding="utf-8")
        # the checksum is compared before the file is parsed, so the manifest must agree
        manifest_path = out / "prepared" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["checksums"]["vocab.tsv"] = hashlib.sha256(path.read_bytes()).hexdigest()
        manifest_path.write_text(json.dumps(manifest))
        capsys.readouterr()
        assert main([*self.COMMANDS["coherence"], *small_flags(corpus_path, out)]) == 1
        assert capsys.readouterr().err == (
            f"error: {path}:2: expected 'word<TAB>1', got {lines[1]!r}; re-run prepare\n"
        )

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    @pytest.mark.parametrize(
        "name, change",
        [("vocab.tsv", "swapped_words"), ("encoder_vocab.tsv", "swapped_words"),
         ("vocab.tsv", "manifest_without_checksums")],
    )
    def test_vocabulary_edited_after_prepare_is_refused(
        self, corpus_path, tmp_path, capsys, command, name, change
    ):
        out = tmp_path / "run"
        prepare(corpus_path, out)
        path = out / "prepared" / name
        if change == "swapped_words":
            lines = path.read_text(encoding="utf-8").split("\n")
            (w0, i0), (w1, i1) = (line.split("\t") for line in lines[:2])
            lines[:2] = [f"{w1}\t{i0}", f"{w0}\t{i1}"]  # still well-formed
            path.write_text("\n".join(lines), encoding="utf-8")
        else:
            manifest_path = out / "prepared" / "manifest.json"
            manifest = json.loads(manifest_path.read_text())
            del manifest["checksums"]
            manifest_path.write_text(json.dumps(manifest))
        capsys.readouterr()
        assert main([*self.COMMANDS[command], *small_flags(corpus_path, out)]) == 1
        assert capsys.readouterr().err == (
            f"error: {path} does not match its manifest checksum; re-run prepare\n"
        )

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    @pytest.mark.parametrize(
        "text, reason",
        [("[]", "is not a JSON object"),
         ('{"examples": 60\n', "is not JSON (Expecting ',' delimiter: line 2 column 1 (char 16))"),
         ('{"checksums": [1]}', "holds checksums that are not a JSON object")],
        ids=["array", "truncated", "checksums_not_an_object"],
    )
    def test_malformed_manifest_is_refused(
        self, corpus_path, tmp_path, capsys, command, text, reason
    ):
        out = tmp_path / "run"
        prepare(corpus_path, out)
        path = out / "prepared" / "manifest.json"
        path.write_text(text)
        capsys.readouterr()
        assert main([*self.COMMANDS[command], *small_flags(corpus_path, out)]) == 1
        assert capsys.readouterr().err == f"error: {path} {reason}; re-run prepare\n"

    @pytest.mark.parametrize("command", ["train", "evaluate"])
    @pytest.mark.parametrize("key, value", [("vocab_max_size", "20"), ("enc_vocab_max_size", "5")])
    def test_vocabulary_sizes_other_than_prepared_are_refused(
        self, corpus_path, tmp_path, capsys, command, key, value
    ):
        """The prepared vocabularies were built to the prepared sizes; a run
        recording other sizes would describe models it does not hold."""
        out = tmp_path / "run"
        prepare(corpus_path, out)
        prepared = load_config_file(out / "prepared" / "config.resolved")
        capsys.readouterr()
        flags = small_flags(corpus_path, out, extra=[f"--{key.replace('_', '-')}", value])
        assert main([*self.COMMANDS[command], *flags]) == 1
        assert capsys.readouterr().err == (
            f"error: prepared data under {out / 'prepared'} was built with "
            f"{key}={getattr(prepared, key)}, not {value}; re-run prepare\n"
        )
        assert not (out / "train").exists()

    @pytest.mark.parametrize("place", ["corpus", "config", "topics", "vocab"])
    def test_file_that_is_not_utf8_is_refused_by_name(self, corpus_path, tmp_path, capsys, place):
        out = tmp_path / "run"
        prepare(corpus_path, out)
        args = [*self.COMMANDS["coherence"], *small_flags(corpus_path, out)]
        if place == "corpus":
            path = corpus_path
            args = ["prepare", *small_flags(corpus_path, out)]
        elif place == "config":
            path = tmp_path / "run.cfg"
            args = [*self.COMMANDS["train"], "--config", str(path), *small_flags(corpus_path, out)]
        elif place == "topics":
            path = tmp_path / "topic_word.tsv"
            path.write_text("topic\tword\tweight\n", encoding="utf-8")
            args[args.index("unused.tsv")] = str(path)
        else:
            path = out / "prepared" / "vocab.tsv"
        path.write_bytes(path.read_bytes() + b"rocket\xff\t1\n" if path.exists() else b"seed=\xff\n")
        capsys.readouterr()
        assert main(args) == 1
        err = capsys.readouterr().err
        if place == "vocab":  # the checksum is compared before the file is parsed
            assert err == f"error: {path} does not match its manifest checksum; re-run prepare\n"
        else:
            assert err.startswith(f"error: {path} is not UTF-8 text (")
            assert "can't decode byte 0xff" in err

    @pytest.mark.parametrize("command, flag", [
        ("prepare", "--data"), ("train", "--config"), ("extract-topics", "--checkpoint"),
        ("coherence", "--topics"),
    ])
    def test_directory_as_input_file_is_refused(self, corpus_path, tmp_path, capsys, command, flag):
        out = tmp_path / "run"
        prepare(corpus_path, out)
        folder = tmp_path / "folder"
        folder.mkdir()
        args = [*self.COMMANDS.get(command, [command]), *small_flags(corpus_path, out)]
        if flag in args:
            args[args.index(flag) + 1] = str(folder)
        else:
            args += [flag, str(folder)]
        capsys.readouterr()
        assert main(args) == 1
        err = capsys.readouterr().err
        assert str(folder) in err and "Traceback" not in err

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_missing_data_is_a_clean_error(self, tmp_path, capsys, command):
        code = main([*self.COMMANDS[command], "--out-dir", str(tmp_path / "run")])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: --data (or a config data= entry) is required\n"
        )


RUN_FILES = sorted([
    "checkpoint.bin", "config.resolved", "history.csv", "metrics.csv", "predictions.tsv",
    "split.jsonl", "topic_word.tsv", "topics.tsv",
])


class TestTrain:
    def test_in_target_fold_outputs(self, corpus_path, tmp_path):
        out = tmp_path / "run"
        prepare(corpus_path, out)
        code = main(
            ["train", "--mode", "in_target_fold", "--fold", "0",
             *small_flags(corpus_path, out)]
        )
        assert code == 0
        run_dir = out / "train" / "fold_0"
        assert sorted(p.name for p in run_dir.iterdir()) == RUN_FILES
        _, meta = load_checkpoint(run_dir / "checkpoint.bin")
        assert meta["step_counters"]["ntm"] > 0
        assert meta["step_counters"]["classifier"] > 0
        # --patience 0 selects nothing: the file holds the last iteration
        assert meta["selected_iteration"] == meta["iterations_run"] == 2

    def test_fixed_seed_reproduces_history(self, corpus_path, tmp_path):
        out = tmp_path / "run"
        prepare(corpus_path, out)
        args = ["train", "--mode", "in_target_fold", "--fold", "0",
                *small_flags(corpus_path, out), "--seed", "5"]
        assert main(args) == 0
        first = (out / "train" / "fold_0" / "history.csv").read_bytes()
        assert main(args) == 0
        second = (out / "train" / "fold_0" / "history.csv").read_bytes()
        assert first == second

    def test_cross_target_excludes_held_out(self, corpus_path, tmp_path):
        out = tmp_path / "run"
        prepare(corpus_path, out)
        code = main(
            ["train", "--mode", "cross_target", "--held-out", "river dams",
             *small_flags(corpus_path, out)]
        )
        assert code == 0
        preds = (out / "train" / "cross_river_dams" / "predictions.tsv").read_text()
        body = preds.strip().split("\n")[1:]
        assert body and all(line.startswith("river dams\t") for line in body)

    def test_cross_target_extracts_the_held_out_targets_topics(self, corpus_path, tmp_path):
        out = tmp_path / "run"
        prepare(corpus_path, out)
        assert main(["train", "--mode", "cross_target", "--held-out", "river dams",
                     *small_flags(corpus_path, out)]) == 0
        rows = (out / "train" / "cross_river_dams" / "topics.tsv").read_text().split("\n")[1:-1]
        assert [row.split("\t")[0] for row in rows] == ["river dams", "space mining"]
        assert all(len(row.split("\t")[3].split(" ")) == 4 for row in rows)  # n_top_terms

    def test_gamma_zero_and_no_topics_flags(self, corpus_path, tmp_path):
        out = tmp_path / "run"
        prepare(corpus_path, out)
        code = main(
            ["train", "--mode", "in_target_fold", "--fold", "1",
             *small_flags(corpus_path, out), "--gamma", "0", "--no-topics"]
        )
        assert code == 0
        history = (out / "train" / "fold_1" / "history.csv").read_text()
        # mutual column empty in every row under -ML
        for line in history.strip().split("\n")[1:]:
            assert line.split(",")[5] == ""

    def test_unknown_held_out_fails(self, corpus_path, tmp_path, capsys):
        out = tmp_path / "run"
        prepare(corpus_path, out)
        code = main(
            ["train", "--mode", "cross_target", "--held-out", "flat earth",
             *small_flags(corpus_path, out)]
        )
        assert code == 1
        assert capsys.readouterr().err == (
            "error: unknown target 'flat earth'; corpus has ['river dams', 'space mining']\n"
        )
        assert not (out / "train").exists()

    @pytest.mark.parametrize(
        "run_args, err",
        [
            (["--mode", "in_target_fold", "--fold", "5"], "error: --fold must be in [0, 5)\n"),
            (["--mode", "in_target_fold", "--fold", "-1"], "error: --fold must be in [0, 5)\n"),
            (["--mode", "cross_target"],
             "error: --held-out TARGET is required in cross_target mode\n"),
            (["--mode", "in_target_fold", "--held-out", "space mining"],
             "error: --held-out does not apply in in_target_fold mode\n"),
            (["--mode", "cross_target", "--held-out", "space mining", "--fold", "3"],
             "error: --fold does not apply in cross_target mode\n"),
        ],
    )
    def test_run_outside_the_protocol_fails(self, corpus_path, tmp_path, capsys,
                                            run_args, err):
        out = tmp_path / "run"
        prepare(corpus_path, out)
        capsys.readouterr()
        code = main(["train", *run_args, *small_flags(corpus_path, out)])
        assert code == 1
        assert capsys.readouterr().err == err
        assert not (out / "train").exists()

    def test_non_finite_gradient_is_a_clean_error(self, corpus_path, tmp_path, capsys,
                                                  monkeypatch):
        grads_of = autodiff.grads_of

        def poisoned(leaves):
            grads = grads_of(leaves)
            name = sorted(grads)[0]
            grads[name] = np.full_like(grads[name], np.nan)
            return grads

        monkeypatch.setattr(autodiff, "grads_of", poisoned)
        out = tmp_path / "run"
        prepare(corpus_path, out)
        code = main(
            ["train", "--mode", "in_target_fold", "--fold", "0",
             *small_flags(corpus_path, out)]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err == (
            "error: ntm phase: non-finite gradient for parameter 'enc_logvar.W0' at step 1\n"
        )

    def test_non_finite_gradient_names_the_classifier_phase(self, corpus_path, tmp_path,
                                                            capsys, monkeypatch):
        grads_of = autodiff.grads_of

        def poisoned(leaves):
            grads = grads_of(leaves)
            if "word_emb" in grads:
                grads["word_emb"] = np.full_like(grads["word_emb"], np.inf)
            return grads

        monkeypatch.setattr(autodiff, "grads_of", poisoned)
        out = tmp_path / "run"
        prepare(corpus_path, out)
        code = main(
            ["train", "--mode", "in_target_fold", "--fold", "0",
             *small_flags(corpus_path, out)]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err == (
            "error: classifier phase: non-finite gradient for parameter 'word_emb' at step 1\n"
        )

    @pytest.mark.parametrize(
        "command",
        [["train", "--mode", "in_target_fold", "--fold", "0"],
         ["evaluate", "--protocol", "in_target"]],
    )
    def test_two_folds_is_a_clean_error(self, corpus_path, tmp_path, capsys, command):
        out = tmp_path / "run"
        prepare(corpus_path, out)
        code = main([*command, *small_flags(corpus_path, out), "--folds", "2"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: k must be >= 3 (a test fold, a validation fold")
        assert "Traceback" not in err

    @pytest.mark.parametrize("flag", ["--lr-ntm", "--lr-classifier"])
    @pytest.mark.parametrize("value", ["0", "-1e-3", "nan"])
    def test_non_positive_learning_rate_is_a_clean_error(
        self, corpus_path, tmp_path, capsys, flag, value
    ):
        out = tmp_path / "run"
        code = main(
            ["train", "--mode", "in_target_fold", "--fold", "0",
             *small_flags(corpus_path, out), f"{flag}={value}"]
        )
        assert code == 1
        err = capsys.readouterr().err
        name = flag[2:].replace("-", "_")
        assert err.startswith(f"error: config field {name} must be > 0")
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "flag, value",
        [("--gamma", "nan"), ("--gamma", "-0.1"), ("--patience", "-1"),
         ("--kl-warmup-epochs", "-2"), ("--seed", "-1")],
    )
    def test_negative_or_nan_setting_is_a_clean_error(
        self, corpus_path, tmp_path, capsys, flag, value
    ):
        out = tmp_path / "run"
        code = main(
            ["train", "--mode", "in_target_fold", "--fold", "0",
             *small_flags(corpus_path, out), f"{flag}={value}"]
        )
        assert code == 1
        name = flag[2:].replace("-", "_")
        assert capsys.readouterr().err == f"error: config field {name} must be >= 0\n"
        assert not (out / "train").exists()

    @pytest.mark.parametrize("flag", ["--gamma", "--lr-ntm", "--lr-classifier"])
    def test_infinite_setting_refused_before_the_run_directory(
        self, corpus_path, tmp_path, capsys, flag
    ):
        out = tmp_path / "run"
        prepare(corpus_path, out)
        capsys.readouterr()
        code = main(
            ["train", "--mode", "in_target_fold", "--fold", "0",
             *small_flags(corpus_path, out), f"{flag}=inf"]
        )
        assert code == 1
        name = flag[2:].replace("-", "_")
        assert capsys.readouterr().err == f"error: config field {name} must be finite\n"
        assert not (out / "train").exists()


def tightest_target(corpus_path, out):
    """The corpus target that masks the most NTM words, and the words it leaves."""
    vocab = corpus_mod.Vocabulary.from_tsv(out / "prepared" / "vocab.tsv")
    rooms = {
        r.target: vocab.size - len(set(vocab.ids(corpus_mod.tokenize(r.target, mode="encoder"))))
        for r in corpus_mod.load_tsv(corpus_path)
    }
    target = min(sorted(rooms), key=rooms.get)
    assert rooms[target] < vocab.size  # it masks at least one word
    return target, rooms[target]


# a header n_top_terms one past the tightest target's room, worked out per corpus
ONE_PAST_THE_ROOM = object()
# a header without n_top_terms, ratio_p and gamma
WITHOUT_N_P_AND_GAMMA = object()
# the header of a gamma-0 run, which holds no projection head, without gamma
GAMMA_0_WITHOUT_GAMMA = object()


def n_top_terms_refusal(target, room):
    return (
        f"error: config field n_top_terms must be <= {room}, the vocabulary "
        f"words left after masking target {target!r}\n"
    )


@pytest.mark.parametrize(
    "command",
    [
        ["train", "--mode", "in_target_fold", "--fold", "0"],
        ["train", "--mode", "cross_target", "--held-out", "space mining"],
        ["evaluate", "--protocol", "cross_target"],
    ],
    ids=["train-in-target", "train-cross-target", "evaluate"],
)
def test_n_top_terms_beyond_the_masked_vocabulary_is_refused(
    corpus_path, tmp_path, capsys, command
):
    out = tmp_path / "run"
    prepare(corpus_path, out)
    target, room = tightest_target(corpus_path, out)
    capsys.readouterr()
    code = main([*command, *small_flags(corpus_path, out), "--n-top-terms", str(room + 1)])
    assert code == 1
    assert capsys.readouterr().err == n_top_terms_refusal(target, room)
    assert sorted(p.name for p in out.iterdir()) == ["prepared"]
    # without topics the setting is unused, so nothing is refused
    if command[0] == "train":
        assert main([*command, *small_flags(corpus_path, out), "--n-top-terms", "500",
                     "--no-topics", "--iterations", "1"]) == 0


LONG_TARGET = "space mining on the far moon"


@pytest.mark.parametrize(
    "command",
    [
        ["train", "--mode", "cross_target", "--held-out", LONG_TARGET],
        ["train", "--mode", "in_target_fold", "--fold", "0"],
        ["evaluate", "--protocol", "cross_target"],
    ],
    ids=["train-cross-target", "train-in-target", "evaluate"],
)
def test_max_len_a_target_cannot_fit_is_refused_before_training(tmp_path, capsys, command):
    """[cls] [sep] and the 6 target tokens, plus [sep] and 4 topic terms: 13."""
    corpus_path = tmp_path / "corpus.tsv"
    write_tsv([replace(r, target=LONG_TARGET) if r.target == "space mining" else r
               for r in stance_corpus(n_per_cell=10, seed=0)], corpus_path)
    out = tmp_path / "run"
    prepare(corpus_path, out)
    capsys.readouterr()
    assert main([*command, *small_flags(corpus_path, out), "--max-len", "12"]) == 1
    assert capsys.readouterr().err == (
        f"error: config field max_len must be >= 13, the non-sentence tokens "
        f"of target {LONG_TARGET!r}\n"
    )
    assert sorted(p.name for p in out.iterdir()) == ["prepared"]
    if command[0] == "train":  # the bound is exact; without topics it is 2 + 6
        assert main([*command, *small_flags(corpus_path, out), "--max-len", "13",
                     "--iterations", "1"]) == 0
        assert main([*command, *small_flags(corpus_path, out), "--max-len", "8",
                     "--iterations", "1", "--no-topics"]) == 0


@pytest.mark.parametrize(
    "command",
    [["evaluate", "--protocol", "cross_target"],
     ["train", "--mode", "cross_target", "--held-out", "space mining"]],
    ids=["evaluate", "train"],
)
@pytest.mark.parametrize(
    "renamed, err",
    [
        ("../../escaped", "target '../../escaped' cannot name a run directory: "
                          "'cross_../../escaped' is not one path component"),
        ("dams\\..\\escaped", "target 'dams\\\\..\\\\escaped' cannot name a run directory: "
                              "'cross_dams\\\\..\\\\escaped' is not one path component"),
        ("space_mining", "targets 'space mining' and 'space_mining' would share the run "
                         "directory train/cross_space_mining"),
    ],
    ids=["slash", "backslash", "collision"],
)
def test_cross_target_run_names_that_leave_train_or_coincide_are_refused(
    tmp_path, capsys, command, renamed, err
):
    corpus_path = tmp_path / "corpus.tsv"
    write_tsv([replace(r, target=renamed) if r.target == "river dams" else r
               for r in stance_corpus(n_per_cell=10, seed=0)], corpus_path)
    out = tmp_path / "run"
    prepare(corpus_path, out)
    capsys.readouterr()
    assert main([*command, *small_flags(corpus_path, out)]) == 1
    assert capsys.readouterr().err == f"error: {err}\n"
    assert sorted(p.name for p in out.iterdir()) == ["prepared"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["corpus.tsv", "run"]
    if command[0] == "train":  # in-target rows are named fold_i, so they still train
        assert main(["train", "--mode", "in_target_fold", "--fold", "0",
                     *small_flags(corpus_path, out), "--iterations", "1"]) == 0


def no_space_mining_test_rows(records):
    """Its test rows tagged train: space mining's cross-target row has nothing to score."""
    return [replace(r, split_tag="train") if (r.target, r.split_tag) == ("space mining", "test")
            else r for r in records]


NOTHING_TO_SCORE = ("the cross-target row of target 'space mining' has nothing to score: "
                    "it has no rows tagged test")
NOTHING_TO_TRAIN_ON = ("the cross-target row of target 'space mining' has nothing to train on: "
                       "no other target has rows tagged train")
UNKNOWN_TAG = "records carry unknown split tag(s): ['dev']"


@pytest.mark.parametrize(
    "command",
    [["train", "--mode", "cross_target", "--held-out", "space mining"],
     ["evaluate", "--protocol", "cross_target"]],
    ids=["train", "evaluate"],
)
@pytest.mark.parametrize(
    "edit, err",
    [
        (no_space_mining_test_rows, NOTHING_TO_SCORE),
        (lambda records: [r for r in records if r.target == "space mining"], NOTHING_TO_TRAIN_ON),
        (lambda records: [replace(r, split_tag="dev") if r.split_tag == "val" else r
                          for r in records], UNKNOWN_TAG),
    ],
    ids=["no-test-rows", "one-target", "unknown-tag"],
)
def test_cross_target_rows_that_cannot_train_or_be_scored_are_refused_before_any_run(
    tmp_path, capsys, command, edit, err
):
    corpus_path = tmp_path / "corpus.tsv"
    write_tsv(edit(stance_corpus(n_per_cell=10, seed=0)), corpus_path)
    out = tmp_path / "run"
    prepare(corpus_path, out)
    capsys.readouterr()
    assert main([*command, *small_flags(corpus_path, out)]) == 1
    assert capsys.readouterr().err == f"error: {corpus_path}: {err}\n"
    assert sorted(p.name for p in out.iterdir()) == ["prepared"]
    if edit is no_space_mining_test_rows and command[0] == "train":  # only its own row counts
        assert main(["train", "--mode", "cross_target", "--held-out", "river dams",
                     *small_flags(corpus_path, out), "--iterations", "1"]) == 0


def test_a_failed_row_leaves_the_run_directories_as_they_were(
    corpus_path, tmp_path, capsys, monkeypatch
):
    out = tmp_path / "run"
    train_fold_0(corpus_path, out)

    def tree():
        return {str(p.relative_to(out / "train")): p.read_bytes() if p.is_file() else None
                for p in sorted((out / "train").rglob("*"))}

    before = tree()
    assert sorted(before) == ["fold_0", *(f"fold_0/{name}" for name in RUN_FILES)]

    def diverge(*args, **kwargs):
        raise FloatingPointError("classifier phase: non-finite gradient")

    with monkeypatch.context() as m:
        m.setattr(mutual_mod, "train_alternating", diverge)
        capsys.readouterr()
        # a rerun with other settings, and an evaluate whose first row is that run
        assert main(["train", "--mode", "in_target_fold", "--fold", "0",
                     *small_flags(corpus_path, out), "--seed", "9"]) == 1
        assert main(["evaluate", "--protocol", "in_target", *small_flags(corpus_path, out)]) == 1
        assert capsys.readouterr().err == (
            "error: classifier phase: non-finite gradient\n" * 2
        )
    assert tree() == before
    # a rerun that completes replaces the whole directory: no topics.tsv without topics
    assert main(["train", "--mode", "in_target_fold", "--fold", "0",
                 *small_flags(corpus_path, out), "--no-topics", "--iterations", "1"]) == 0
    assert sorted(tree()) == ["fold_0", *(f"fold_0/{n}" for n in RUN_FILES if n != "topics.tsv")]


class TestEvaluate:
    def test_full_predictor_cross_target(self, corpus_path, tmp_path):
        out = tmp_path / "run"
        prepare(corpus_path, out)
        code = main(
            ["evaluate", "--protocol", "cross_target",
             *small_flags(corpus_path, out), "--iterations", "1"]
        )
        assert code == 0
        lines = (out / "eval" / "cross_target_metrics.csv").read_text().strip().split("\n")
        assert len(lines) == 1 + 2 + 1

    def test_a_failed_evaluate_leaves_eval_as_it_was(
        self, corpus_path, tmp_path, capsys, monkeypatch
    ):
        out = tmp_path / "run"
        prepare(corpus_path, out)
        flags = [*small_flags(corpus_path, out), "--folds", "3", "--iterations", "1"]
        for protocol in ("in_target", "cross_target"):
            assert main(["evaluate", "--protocol", protocol, *flags]) == 0
        # each evaluate keeps the other protocol's table
        before = {p.name: p.read_bytes() for p in (out / "eval").iterdir()}
        assert sorted(before) == [
            "config.resolved", "cross_target_metrics.csv", "in_target_metrics.csv",
        ]

        def diverge(*args, **kwargs):
            raise FloatingPointError("classifier phase: non-finite gradient")

        monkeypatch.setattr(mutual_mod, "train_alternating", diverge)
        capsys.readouterr()
        assert main(["evaluate", "--protocol", "cross_target", *flags, "--seed", "9"]) == 1
        assert capsys.readouterr().err == "error: classifier phase: non-finite gradient\n"
        assert {p.name: p.read_bytes() for p in (out / "eval").iterdir()} == before
        assert not (out / ".eval.tmp").exists()

    @pytest.mark.parametrize(
        "protocol, run_args, run_name, row",
        [
            ("in_target", ["--mode", "in_target_fold", "--fold", "1"], "fold_1", "fold_1"),
            ("cross_target", ["--mode", "cross_target", "--held-out", "space mining"],
             "cross_space_mining", "space mining"),
        ],
    )
    def test_protocol_row_equals_single_train_run(
        self, corpus_path, tmp_path, protocol, run_args, run_name, row
    ):
        out = tmp_path / "run"
        prepare(corpus_path, out)
        flags = [*small_flags(corpus_path, out), "--folds", "3", "--iterations", "1",
                 "--seed", "3"]
        assert main(["evaluate", "--protocol", protocol, *flags]) == 0
        rows = (out / "eval" / f"{protocol}_metrics.csv").read_text().split("\n")
        runs = 3 if protocol == "in_target" else 2  # folds, or targets
        assert len(rows) == 1 + runs + 1 + 1  # header, runs, mean, final newline
        assert rows[-2].startswith("mean,")
        # evaluate leaves every row's run directory, as `train` writes it
        assert sorted(p.name for p in (out / "train").iterdir()) == (
            [f"fold_{i}" for i in range(3)] if protocol == "in_target"
            else ["cross_river_dams", "cross_space_mining"]
        )
        run_dir = out / "train" / run_name
        evaluated = {p.name: p.read_bytes() for p in run_dir.iterdir()}
        assert sorted(evaluated) == RUN_FILES
        shutil.rmtree(run_dir)
        assert main(["train", *run_args, *flags]) == 0
        assert {p.name: p.read_bytes() for p in run_dir.iterdir()} == evaluated
        trained = (run_dir / "metrics.csv").read_text().split("\n")
        assert trained[1].startswith(f"{run_name},")
        assert f"{row},{trained[1].split(',', 1)[1]}" in rows


class TestCheckpoint:
    def test_describes_its_models(self, corpus_path, tmp_path):
        out = tmp_path / "run"
        checkpoint = train_fold_0(corpus_path, out)
        cfg, ntm, enc, proj, meta = load_run(checkpoint)
        # the header holds the run's resolved config, the one its snapshot holds
        assert meta["config"] == asdict(cfg)
        assert cfg == load_config_file(checkpoint.parent / "config.resolved")
        assert cfg == _resolve_config(build_parser().parse_args(
            ["train", "--mode", "in_target_fold", *small_flags(corpus_path, out)]
        ))
        assert not {"ntm_config", "encoder_config", "n_top_terms", "ratio_p", "num_topics",
                    "vocab_size", "encoder_vocab_size"} & set(meta)
        # the model sizes come from the config and the arrays' vocabulary sizes
        sizes = [corpus_mod.Vocabulary.from_tsv(out / "prepared" / name).size
                 for name in ("vocab.tsv", "encoder_vocab.tsv")]
        assert asdict(ntm.cfg) == {
            "vocab_size": sizes[0], "num_topics": 3, "latent_dim": 6, "hidden_dim": 10,
        }
        assert asdict(enc.cfg) == {
            "vocab_size": sizes[1], "emb_dim": 8, "hidden_dim": 10, "output_dim": 6,
        }
        assert (cfg.n_top_terms, cfg.ratio_p) == (4, 0.5)
        assert proj["proj.W0"].shape == (6, 3)

    def test_arrays_match_a_run_from_vectorized_log_freq(self, corpus_path, tmp_path):
        """log_freq once came from a cached BoW file; recomputing it from the
        prepared examples must leave every checkpoint array bitwise equal."""
        out = tmp_path / "run"
        checkpoint = train_fold_0(corpus_path, out)
        args = build_parser().parse_args(
            ["train", "--mode", "in_target_fold", "--fold", "0",
             *small_flags(corpus_path, out)]
        )
        cfg = _resolve_config(args)
        cfg.out_dir = str(tmp_path / "again")
        records = corpus_mod.load_tsv(corpus_path)
        examples = corpus_mod.examples_from_records(records)
        vocab = corpus_mod.Vocabulary.from_tsv(out / "prepared" / "vocab.tsv")
        enc_vocab = corpus_mod.Vocabulary.from_tsv(out / "prepared" / "encoder_vocab.tsv")
        log_freq = compute_log_freq(
            corpus_mod.vectorize_all([ex.tokens for ex in examples], vocab)
        )
        runs = evaluate_mod.protocol_runs("in_target", records, examples, cfg.folds, cfg.seed)
        _Protocol(cfg, False, runs, vocab, enc_vocab, {}, log_freq).run_row(*runs[0])
        expected, _ = load_checkpoint(tmp_path / "again" / "train" / "fold_0" / "checkpoint.bin")
        arrays, _ = load_checkpoint(checkpoint)
        assert arrays["ntm/log_freq"].tobytes() == log_freq.tobytes()
        assert sorted(arrays) == sorted(expected)
        for name, array in arrays.items():
            assert array.dtype == expected[name].dtype, name
            assert array.tobytes() == expected[name].tobytes(), name

    def test_checkpoint_without_configs_is_refused(self, corpus_path, tmp_path, capsys):
        out = tmp_path / "run"
        checkpoint = train_fold_0(corpus_path, out)
        arrays, meta = load_checkpoint(checkpoint)
        del meta["config"]
        save_checkpoint(checkpoint, arrays, meta)
        capsys.readouterr()
        code = main(["extract-topics", "--checkpoint", str(checkpoint),
                     "--data", str(corpus_path), "--out-dir", str(out)])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: {checkpoint} stores no run config; retrain it with `train`\n"
        )

    def test_checkpoint_in_the_model_configs_format_is_refused(
        self, trained_fold_0, tmp_path, capsys
    ):
        """Headers once held the two model configs and the extraction settings
        as four keys; such a file names no run config."""
        corpus_path, trained = trained_fold_0
        arrays, meta = load_checkpoint(trained)
        cfg, ntm, enc, _, _ = load_run(trained)
        del meta["config"]
        meta.update(ntm_config=asdict(ntm.cfg), encoder_config=asdict(enc.cfg),
                    n_top_terms=cfg.n_top_terms, ratio_p=cfg.ratio_p)
        checkpoint = tmp_path / "old.bin"
        save_checkpoint(checkpoint, arrays, meta)
        capsys.readouterr()
        assert main(["extract-topics", "--checkpoint", str(checkpoint), "--data",
                     str(corpus_path), "--out-dir", str(trained.parents[2]),
                     "--out", str(tmp_path / "topics.tsv")]) == 1
        assert capsys.readouterr().err == (
            f"error: {checkpoint} stores no run config; retrain it with `train`\n"
        )
        assert not (tmp_path / "topics.tsv").exists()

    def test_truncated_checkpoint_is_refused(self, corpus_path, tmp_path, capsys):
        out = tmp_path / "run"
        data = train_fold_0(corpus_path, out).read_bytes()
        names = json.loads(data.split(b"\n", 1)[0])["names"]
        header_end = data.index(b"\n") + 1
        cuts = {  # cut point: the array it cuts short
            header_end: names[0],
            header_end + 20: names[0],  # inside the first .npy block's header
            len(data) - 1: names[-1],
        }
        for size, name in cuts.items():
            checkpoint = tmp_path / "cut.bin"
            checkpoint.write_bytes(data[:size])
            capsys.readouterr()
            assert main(["extract-topics", "--checkpoint", str(checkpoint),
                         *small_flags(corpus_path, out)]) == 1, size
            assert capsys.readouterr().err == (
                f"error: {checkpoint}: array {name!r} is cut short or malformed\n"
            )

    @pytest.mark.parametrize(
        "header, reason",
        [
            ("[1]", " is not a topicarg-checkpoint-v1 file"),
            ("not json", " is not a topicarg-checkpoint-v1 file"),
            ('{"magic": "topicarg-checkpoint-v1"}',
             ": its header needs a meta object and a names list of strings"),
            ('{"magic": "topicarg-checkpoint-v1", "meta": {}, "names": [1]}',
             ": its header needs a meta object and a names list of strings"),
            (json.dumps({"magic": "topicarg-checkpoint-v1", "meta": {"config": asdict(RunConfig())},
                         "names": []}),
             " holds no ntm/log_freq array"),
        ],
        ids=["array", "not_json", "no_names", "name_not_a_string", "no_log_freq"],
    )
    def test_malformed_header_is_refused(self, corpus_path, tmp_path, capsys, header, reason):
        out = tmp_path / "run"
        prepare(corpus_path, out)
        checkpoint = tmp_path / "bad.bin"
        checkpoint.write_text(header + "\n")
        capsys.readouterr()
        assert main(["extract-topics", "--checkpoint", str(checkpoint),
                     *small_flags(corpus_path, out)]) == 1
        assert capsys.readouterr().err == f"error: {checkpoint}{reason}\n"

    @pytest.mark.parametrize("case", [
        "array_outside_the_groups", "unknown_config_key", "no_encoder_config", "no_topic_word",
        "word_emb_3_columns", "body_W0_2_rows", "int_topic_word", "extra_enc_array",
        "no_proj_at_gamma", "proj_at_gamma_0", "log_freq_without_rows", "nan_topic_word_row",
        "nan_word_emb", "one_nan_weight", "inf_body_W0", "minus_inf_log_freq",
    ])
    def test_arrays_and_configs_no_model_takes_are_refused(
        self, trained_fold_0, tmp_path, capsys, case
    ):
        """A checkpoint's arrays must be those of the models its header's run
        builds: name for name, shape for shape, all float64 and finite."""
        corpus_path, trained = trained_fold_0
        arrays, meta = load_checkpoint(trained)

        def other(name, array):
            return (f": array {name!r} is {array.dtype} of shape {array.shape}; the run's "
                    f"models hold float64 of shape {arrays[name].shape}")

        if case == "array_outside_the_groups":
            arrays["log_freq"] = arrays["ntm/log_freq"]
            reason = ": array 'log_freq' is not one of the run's models' arrays"
        elif case == "unknown_config_key":
            meta["config"].update(topics=3)
            reason = ": its header's config field topics is not a run setting"
        elif case == "no_encoder_config":  # without the encoder's vocabulary size
            del arrays["enc/word_emb"]
            reason = " holds no enc/word_emb array"
        elif case == "no_topic_word":
            del arrays["ntm/topic_word"]
            reason = ": array 'ntm/topic_word' is missing; the run's models hold one"
        elif case == "word_emb_3_columns":
            cut = arrays["enc/word_emb"][:, :3]
            reason = other("enc/word_emb", cut)
            arrays["enc/word_emb"] = cut
        elif case == "body_W0_2_rows":
            cut = arrays["enc/body.W0"][:2]
            reason = other("enc/body.W0", cut)
            arrays["enc/body.W0"] = cut
        elif case == "int_topic_word":
            cast = arrays["ntm/topic_word"].astype(np.int64)
            reason = other("ntm/topic_word", cast)
            arrays["ntm/topic_word"] = cast
        elif case == "extra_enc_array":
            arrays["enc/x"] = np.zeros(3)
            reason = ": array 'enc/x' is not one of the run's models' arrays"
        elif case == "no_proj_at_gamma":
            assert meta["config"]["gamma"] > 0
            arrays = {name: a for name, a in arrays.items() if not name.startswith("proj/")}
            reason = ": array 'proj/proj.W0' is missing; the run's models hold one"
        elif case == "proj_at_gamma_0":  # with gamma 0 the run has no projection head
            meta["config"]["gamma"] = 0.0
            reason = ": array 'proj/proj.W0' is not one of the run's models' arrays"
        elif case == "log_freq_without_rows":
            arrays["ntm/log_freq"] = arrays["ntm/log_freq"][:0]
            reason = ": array 'ntm/log_freq' has no rows to give a vocabulary size"
        else:  # NaN or an infinity where the models hold finite weights
            name, index, value = {
                "nan_topic_word_row": ("ntm/topic_word", np.s_[0, 1:], np.nan),
                "nan_word_emb": ("enc/word_emb", np.s_[:], np.nan),
                "one_nan_weight": ("ntm/topic_word", np.s_[1, 2], np.nan),
                "inf_body_W0": ("enc/body.W0", np.s_[0, 0], np.inf),
                "minus_inf_log_freq": ("ntm/log_freq", np.s_[-1], -np.inf),
            }[case]
            arrays[name] = arrays[name].copy()
            arrays[name][index] = value
            reason = f": array {name!r} holds NaN or infinite values"
        checkpoint = tmp_path / "bad.bin"
        save_checkpoint(checkpoint, arrays, meta)
        out = tmp_path / "topics.tsv"
        capsys.readouterr()
        assert main(["extract-topics", "--checkpoint", str(checkpoint), "--data", str(corpus_path),
                     "--out-dir", str(trained.parents[2]), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {checkpoint}{reason}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "key, value, reason",
        [
            ("n_top_terms", "6", "config field n_top_terms must be of type int"),
            ("n_top_terms", 2.5, "config field n_top_terms must be of type int"),
            ("n_top_terms", None, "config field n_top_terms must be of type int"),
            ("n_top_terms", True, "config field n_top_terms must be of type int"),
            ("n_top_terms", 0, "config field n_top_terms must be >= 1"),
            ("ratio_p", "0.5", "config field ratio_p must be of type float"),
            ("ratio_p", 1.5, "ratio_p must be in (0, 1)"),
            ("n_top_terms", ONE_PAST_THE_ROOM, None),
            ("n_top_terms", WITHOUT_N_P_AND_GAMMA, "config field gamma is missing"),
            ("gamma", GAMMA_0_WITHOUT_GAMMA, "config field gamma is missing"),
        ],
        ids=["n_str", "n_float", "n_null", "n_bool", "n_zero", "p_str", "p_above_1", "n_past_room",
             "n_p_gamma_missing", "gamma_missing_at_gamma_0"],
    )
    def test_malformed_header_settings_are_refused(
        self, trained_fold_0, tmp_path, capsys, key, value, reason
    ):
        corpus_path, trained = trained_fold_0
        past_room = value is ONE_PAST_THE_ROOM
        if past_room:  # more terms than the tightest target leaves
            target, room = tightest_target(corpus_path, trained.parents[2])
            value = room + 1
            reason = n_top_terms_refusal(target, room).removeprefix("error: ").rstrip("\n")
        arrays, meta = load_checkpoint(trained)
        if value is WITHOUT_N_P_AND_GAMMA:
            for name in ("n_top_terms", "ratio_p", "gamma"):
                del meta["config"][name]
        elif value is GAMMA_0_WITHOUT_GAMMA:
            arrays = {name: a for name, a in arrays.items() if not name.startswith("proj/")}
            del meta["config"]["gamma"]
        else:
            meta["config"][key] = value
        checkpoint = tmp_path / "bad.bin"
        save_checkpoint(checkpoint, arrays, meta)
        out = tmp_path / "topics.tsv"
        args = ["extract-topics", "--checkpoint", str(checkpoint), "--data", str(corpus_path),
                "--out-dir", str(trained.parents[2]), "--out", str(out)]
        flag = {"n_top_terms": ("--n-top-terms", "4"), "ratio_p": ("--ratio-p", "0.5"),
                "gamma": ("--gamma", "0.0")}[key]
        capsys.readouterr()
        assert main(args) == 1
        assert capsys.readouterr().err == f"error: {checkpoint}: its header's {reason}\n"
        assert not out.exists()
        if past_room:  # a well-formed setting the corpus cannot meet sits under the flags
            assert main([*args, *flag]) == 0
            assert out.exists()
        else:  # a malformed header is a corrupt file, whatever the flags
            assert main([*args, *flag]) == 1
            assert capsys.readouterr().err == f"error: {checkpoint}: its header's {reason}\n"
            assert not out.exists()


# the model sizes a drawn config keeps small, so each draw builds its models fast
SMALL_DIMS = ("num_topics", "latent_dim", "ntm_hidden_dim", "emb_dim", "encoder_hidden_dim",
              "encoder_output_dim")


@st.composite
def run_configs(draw):
    """A RunConfig whose every number validates; its strings are any text."""
    values = {}
    for f in fields(RunConfig):
        kind = type(f.default)
        if kind is str:
            strategy = st.text(max_size=8)
        elif kind is bool:
            strategy = st.booleans()
        elif kind is int:
            low = 0 if f.name in ("seed", "patience", "kl_warmup_epochs") else 1
            strategy = st.integers(low, 4 if f.name in SMALL_DIMS else 10**9)
        elif f.name == "ratio_p":
            strategy = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
        else:  # gamma may be 0, the learning rates may not
            strategy = st.floats(0.0, exclude_min=f.name != "gamma", allow_infinity=False)
        values[f.name] = draw(strategy)
    return RunConfig(**values)


@settings(max_examples=60, deadline=None)
@given(cfg=run_configs(), sizes=st.tuples(st.integers(1, 6), st.integers(1, 6)),
       seed=st.integers(0, 2**32 - 1), corrupt=st.integers(0, 2**16),
       how=st.sampled_from(["delete", "copy", "int", "extra_axis"]))
def test_a_run_config_round_trips_through_snapshot_and_checkpoint(cfg, sizes, seed, corrupt, how):
    """A config validates exactly when its snapshot reads back as it; a valid
    one, and the models `train` builds from it, come back from a checkpoint
    equal, every array bitwise. A checkpoint with one array deleted, copied to
    another name, cast to int or given another axis is refused by the file's and
    the array's name."""
    try:
        cfg.validate()
        valid = True
    except ValueError:
        valid = False
    with tempfile.TemporaryDirectory() as tmp:
        write_snapshot(cfg, Path(tmp) / "config.resolved")
        try:
            read_back = load_config_file(Path(tmp) / "config.resolved")
        except ValueError:  # a line break left a line without '='
            read_back = None
        assert (read_back == cfg) == valid
        if not valid:
            return
        rng = SeededRng(seed)
        ntm, enc = _init_models(cfg, rng.child(0).normal(sizes[0]), sizes[1], rng.child(1))
        proj = mutual_mod.init_projection(
            enc.cfg.output_dim, ntm.cfg.num_topics, rng.child(2)
        ) if cfg.gamma > 0.0 else None
        arrays = mutual_mod.run_arrays(ntm, enc, proj)
        checkpoint = Path(tmp) / "checkpoint.bin"
        save_checkpoint(checkpoint, arrays, {"config": asdict(cfg)})
        loaded, ntm_back, enc_back, proj_back, _ = load_run(checkpoint)

        corrupted = dict(arrays)
        victim = sorted(arrays)[corrupt % len(arrays)]
        original = corrupted.pop(victim)
        if how == "copy":
            corrupted.update({victim: original, f"{victim}~": original})
        elif how == "int":
            corrupted[victim] = original.astype(np.int64)
        elif how == "extra_axis":
            corrupted[victim] = original[..., None]
        bad = Path(tmp) / "corrupted.bin"
        save_checkpoint(bad, corrupted, {"config": asdict(cfg)})
        with pytest.raises(ValueError) as refusal:
            load_run(bad)
    assert str(bad) in str(refusal.value) and victim in str(refusal.value)
    assert loaded == cfg
    assert (ntm_back.cfg, enc_back.cfg) == (ntm.cfg, enc.cfg)
    again = mutual_mod.run_arrays(ntm_back, enc_back, proj_back)
    assert sorted(again) == sorted(arrays)
    for name, array in arrays.items():
        assert again[name].dtype == array.dtype, name
        assert again[name].tobytes() == array.tobytes(), name


class TestExtractAndCoherence:
    def test_extract_topics_from_checkpoint(self, corpus_path, tmp_path):
        out = tmp_path / "run"
        prepare(corpus_path, out)
        main(["train", "--mode", "in_target_fold", "--fold", "0",
              *small_flags(corpus_path, out)])
        code = main(
            ["extract-topics",
             "--checkpoint", str(out / "train" / "fold_0" / "checkpoint.bin"),
             "--out", str(out / "extracted.tsv"),
             *small_flags(corpus_path, out)]
        )
        assert code == 0
        lines = (out / "extracted.tsv").read_text().strip().split("\n")
        assert lines[0] == "target\ttopic\tscore\tterms"
        assert len(lines) == 3  # two targets

    def test_model_sizes_come_from_the_checkpoint(self, corpus_path, tmp_path):
        out = tmp_path / "run"
        checkpoint = train_fold_0(corpus_path, out)
        base = ["extract-topics", "--checkpoint", str(checkpoint)]
        assert main([*base, "--data", str(corpus_path), "--out-dir", str(out),
                     "--n-top-terms", "4", "--out", str(out / "bare.tsv")]) == 0
        assert main([*base, *small_flags(corpus_path, out),
                     "--out", str(out / "flagged.tsv")]) == 0
        assert (out / "bare.tsv").read_bytes() == (out / "flagged.tsv").read_bytes()

    def test_extraction_settings_come_from_the_checkpoint(self, corpus_path, tmp_path):
        out = tmp_path / "run"
        checkpoint = train_fold_0(corpus_path, out)  # --n-top-terms 4, default ratio_p
        base = ["extract-topics", "--checkpoint", str(checkpoint),
                "--data", str(corpus_path), "--out-dir", str(out)]

        def extract(name, *flags):
            assert main([*base, *flags, "--out", str(out / name)]) == 0
            return (out / name).read_bytes()

        bare = extract("bare.tsv")
        assert bare == extract("run.tsv", "--n-top-terms", "4", "--ratio-p", "0.5")
        assert bare != extract("defaults.tsv", "--n-top-terms", "10")  # RunConfig's
        assert bare != extract("flagged.tsv", "--n-top-terms", "2")  # a flag wins

    def test_n_top_terms_is_refused_one_past_the_masked_vocabulary(
        self, corpus_path, tmp_path, capsys
    ):
        out = tmp_path / "run"
        checkpoint = train_fold_0(corpus_path, out)
        target, room = tightest_target(corpus_path, out)
        base = ["extract-topics", "--checkpoint", str(checkpoint), "--data", str(corpus_path),
                "--out-dir", str(out)]
        capsys.readouterr()
        assert main([*base, "--n-top-terms", str(room + 1)]) == 1
        assert capsys.readouterr().err == n_top_terms_refusal(target, room)
        assert not (out / "topics.tsv").exists()
        assert main([*base, "--n-top-terms", str(room)]) == 0
        rows = (out / "topics.tsv").read_text().split("\n")[1:-1]
        assert all(len(row.split("\t")[3].split(" ")) == room for row in rows)

    def test_checkpoint_from_other_vocabularies_is_refused(self, tmp_path, capsys):
        corpus_a, corpus_b = tmp_path / "a.tsv", tmp_path / "b.tsv"
        write_tsv(stance_corpus(n_per_cell=10, seed=0), corpus_a)
        write_tsv(stance_corpus(n_per_cell=10, seed=1), corpus_b)
        checkpoint = train_fold_0(corpus_a, tmp_path / "a")
        prepare(corpus_b, tmp_path / "b")
        prepared_a, prepared_b = tmp_path / "a" / "prepared", tmp_path / "b" / "prepared"
        assert (prepared_a / "vocab.tsv").read_bytes() != (prepared_b / "vocab.tsv").read_bytes()
        capsys.readouterr()
        code = main(["extract-topics", "--checkpoint", str(checkpoint),
                     *small_flags(corpus_b, tmp_path / "b")])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: checkpoint {checkpoint} was trained on other vocabularies than "
            f"the prepared data under {prepared_b}\n"
        )
        assert not (tmp_path / "b" / "topics.tsv").exists()

    def test_coherence_over_export(self, corpus_path, tmp_path):
        out = tmp_path / "run"
        prepare(corpus_path, out)
        main(["train", "--mode", "in_target_fold", "--fold", "0",
              *small_flags(corpus_path, out)])
        code = main(
            ["coherence",
             "--topics", str(out / "train" / "fold_0" / "topic_word.tsv"),
             "--cutoffs", "5,10",
             "--out", str(out / "coherence.csv"),
             *small_flags(corpus_path, out)]
        )
        assert code == 0
        lines = (out / "coherence.csv").read_text().strip().split("\n")
        assert lines[0] == "topic,npmi@5,npmi@10"
        assert lines[-1].startswith("mean,")

    @pytest.mark.parametrize(
        "row",
        ["0\triver", "0\triver\t0.5\textra", "x\triver\t0.5", "0\triver\theavy",
         "0\triver\tnan", "0\triver\tinf", "0\triver\t-Infinity"],
        ids=["too-few-fields", "too-many-fields", "non-int-topic", "non-float-weight",
             "nan-weight", "inf-weight", "minus-inf-weight"],
    )
    def test_malformed_topic_word_line_is_a_clean_error(self, corpus_path, tmp_path,
                                                        capsys, row):
        out = tmp_path / "run"
        prepare(corpus_path, out)
        topics = tmp_path / "topic_word.tsv"
        topics.write_text(f"topic\tword\tweight\n1\tdams\t0.25\n{row}\n", encoding="utf-8")
        capsys.readouterr()
        code = main(["coherence", "--topics", str(topics), *small_flags(corpus_path, out)])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: {topics}:3: expected 'topic<TAB>word<TAB>weight' "
            f"(an int, a word, a finite float), got {row!r}\n"
        )
        assert not (out / "coherence.csv").exists()

    def test_tied_weights_rank_in_file_order(self, corpus_path, tmp_path):
        out = tmp_path / "run"
        prepare(corpus_path, out)
        topics = tmp_path / "topic_word.tsv"
        topics.write_text(
            "topic\tword\tweight\n0\triver\t0.5\n0\tflood\t0.5\n0\tdams\t0.5\n"
            "0\twater\t0.75\n",
            encoding="utf-8",
        )
        code = main(["coherence", "--topics", str(topics), "--cutoffs", "3",
                     "--out", str(out / "coherence.csv"), *small_flags(corpus_path, out)])
        assert code == 0
        docs = [corpus_mod.tokenize(r.sentence, mode="ntm") for r in corpus_mod.load_tsv(corpus_path)]

        def csv_of(words):
            evaluate_mod.coherence_report({0: words}, docs, cutoffs=(3,)).to_csv(tmp_path / "x.csv")
            return (tmp_path / "x.csv").read_bytes()

        assert (out / "coherence.csv").read_bytes() == csv_of(["water", "river", "flood"])
        assert csv_of(["water", "river", "flood"]) != csv_of(["water", "dams", "flood"])

    def test_export_without_topic_lines_is_a_clean_error(self, corpus_path, tmp_path, capsys):
        out = tmp_path / "run"
        prepare(corpus_path, out)
        topics = tmp_path / "topic_word.tsv"
        topics.write_text("topic\tword\tweight\n", encoding="utf-8")
        capsys.readouterr()
        code = main(["coherence", "--topics", str(topics), *small_flags(corpus_path, out)])
        assert code == 1
        assert capsys.readouterr().err == f"error: {topics}: no topic lines\n"
        assert not (out / "coherence.csv").exists()

    @pytest.mark.parametrize(
        "lines, cutoffs, err",
        [
            ("0\triver\t0.5\n0\tdams\t0.25\n1\ta\t0.5\n1\ta\t0.25\n", "2",
             "topic 1: topic word 'a' is repeated in the top 2"),
            ("1\triver\t0.5\n1\tdams\t0.25\n1\tflood\t0.2\n0\triver\t0.5\n0\tdams\t0.25\n",
             "2,5", "topic 1: cutoff 5 exceeds the 3 topic words"),
        ],
        ids=["repeated-word", "too-few-words"],
    )
    def test_topic_a_cutoff_cannot_score_is_refused_by_file_and_topic(
        self, corpus_path, tmp_path, capsys, lines, cutoffs, err
    ):
        out = tmp_path / "run"
        prepare(corpus_path, out)
        topics = tmp_path / "topic_word.tsv"
        topics.write_text(f"topic\tword\tweight\n{lines}", encoding="utf-8")
        capsys.readouterr()
        code = main(["coherence", "--topics", str(topics), "--cutoffs", cutoffs,
                     *small_flags(corpus_path, out)])
        assert code == 1
        assert capsys.readouterr().err == f"error: {topics}: {err}\n"
        assert not (out / "coherence.csv").exists()

    @pytest.mark.parametrize("cutoffs", ["5,x", "5,-1", "1", "", "5,5"])
    def test_malformed_cutoffs_are_a_clean_error(self, corpus_path, tmp_path, capsys,
                                                 cutoffs):
        out = tmp_path / "run"
        prepare(corpus_path, out)
        topics = tmp_path / "topic_word.tsv"
        topics.write_text("topic\tword\tweight\n0\triver\t0.5\n0\tdams\t0.25\n",
                          encoding="utf-8")
        capsys.readouterr()
        code = main(["coherence", "--topics", str(topics), "--cutoffs", cutoffs,
                     *small_flags(corpus_path, out)])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: --cutoffs takes comma-separated integers >= 2, got {cutoffs!r}\n"
        )
        assert not (out / "coherence.csv").exists()


class TestParser:
    # each subcommand's own options, next to the config flags every one shares
    OWN = {
        "prepare": set(),
        "train": {"--mode", "--fold", "--held-out"},
        "evaluate": {"--protocol"},
        "extract-topics": {"--checkpoint", "--out"},
        "coherence": {"--topics", "--cutoffs", "--out"},
    }
    REQUIRED = {
        "prepare": [],
        "train": ["--mode", "cross_target"],
        "evaluate": ["--protocol", "in_target"],
        "extract-topics": ["--checkpoint", "c.bin"],
        "coherence": ["--topics", "t.tsv"],
    }

    @pytest.mark.parametrize("command", sorted(OWN))
    def test_options_are_run_config_keys_plus_own(self, command):
        parser = build_parser()
        (sub,) = [a for a in parser._actions if a.dest == "command"]
        options = {s for a in sub.choices[command]._actions for s in a.option_strings}
        keys = {f"--{f.name.replace('_', '-')}": f for f in fields(RunConfig)
                if f.name != "use_topics"}
        assert options - {"-h", "--help"} == (
            {"--config", "--no-topics"} | set(keys) | self.OWN[command]
        )
        flags = [arg for flag, f in keys.items() for arg in (flag, str(f.default))]
        args = parser.parse_args([command, *self.REQUIRED[command], *flags])
        for f in keys.values():
            value = getattr(args, f.name)
            assert type(value) is type(f.default) and value == f.default, f.name
        assert args.no_topics is False


class TestConfigFile:
    @pytest.mark.parametrize(
        "name, value",
        [("gamma", float("nan")), ("gamma", -0.1), ("patience", -1),
         ("kl_warmup_epochs", -2), ("seed", -1)],
    )
    def test_validate_refuses_negative_or_nan(self, name, value):
        cfg = replace(RunConfig(data="x.tsv"), **{name: value})
        with pytest.raises(ValueError, match=f"^config field {name} must be >= 0$"):
            cfg.validate()

    def test_validate_accepts_zero(self):
        RunConfig(gamma=0.0, seed=0, patience=0, kl_warmup_epochs=0).validate()

    def test_file_plus_flag_overrides(self, corpus_path, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(
            "vocab_max_size=40\nnum_topics=7\nuse_topics=false\n# comment\n"
        )
        out = tmp_path / "run"
        code = main(
            ["prepare", "--config", str(cfg_file), "--data", str(corpus_path),
             "--out-dir", str(out), "--num-topics", "3"]
        )
        assert code == 0
        resolved = (out / "prepared" / "config.resolved").read_text()
        assert "num_topics=3" in resolved  # flag wins
        assert "use_topics=False" in resolved  # file value kept

    @pytest.mark.parametrize(
        "line, expected",
        [("seed=1.5", "config key 'seed' expects int, got '1.5'"),
         ("use_topics = maybe", "config key 'use_topics' expects bool, got 'maybe'"),
         ("gamma=0.1x", "config key 'gamma' expects float, got '0.1x'")],
    )
    def test_unparsable_value_names_file_line_and_key(
        self, corpus_path, tmp_path, capsys, line, expected
    ):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(f"# a comment\n{line}\n")
        assert main(["train", "--mode", "in_target_fold", "--config", str(cfg_file),
                     "--data", str(corpus_path), "--out-dir", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == f"error: {cfg_file}:2: {expected}\n"

    def test_key_given_twice_is_refused(self, corpus_path, tmp_path, capsys):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("seed=1\n# a comment\nseed=2\n")
        assert main(["prepare", "--config", str(cfg_file), "--data", str(corpus_path),
                     "--out-dir", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == (
            f"error: {cfg_file}:3: config key 'seed' is given twice (first on line 1)\n"
        )
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "key, value",
        [("data", "a#b/corpus.tsv"), ("out_dir", "runs/x y "), ("out_dir", " runs/x"),
         ("data", "a\nb.tsv"), ("data", "a\rb.tsv"), ("out_dir", "runs/x\t")],
        ids=["hash", "trailing_space", "leading_space", "newline", "carriage_return",
             "trailing_tab"],
    )
    def test_string_the_snapshot_cannot_hold_is_refused(
        self, corpus_path, tmp_path, capsys, monkeypatch, key, value
    ):
        monkeypatch.chdir(tmp_path)
        flags = {"data": str(corpus_path), "out_dir": "run", key: value}
        assert main(["prepare", "--data", flags["data"], "--out-dir", flags["out_dir"]]) == 1
        assert capsys.readouterr().err == (
            f"error: config field {key} must not hold '#' or a line break, nor start or end "
            f"with whitespace: the config snapshot could not hold {value!r}\n"
        )
        assert sorted(p.name for p in tmp_path.iterdir()) == ["corpus.tsv"]

    def test_bad_config_key(self, corpus_path, tmp_path, capsys):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("not_a_key=1\n")
        assert main(
            ["prepare", "--config", str(cfg_file), "--data", str(corpus_path),
             "--out-dir", str(tmp_path / "o")]
        ) != 0
