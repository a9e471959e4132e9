"""UKP ArgMin corpus ingestion, tokenization, vocabulary, BoW, and splits.

The corpus is a UTF-8 TSV with a header naming at least the columns
`topic`, `sentence`, `annotation`, `set`; extra columns are ignored.
Annotations map support/oppose/none as
Argument_for -> support, Argument_against -> oppose, NoArgument -> none.
"""
from __future__ import annotations

import csv
import json
import logging
import re
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import chain, filterfalse, repeat
from pathlib import Path

import numpy as np
from scipy import sparse

from .nn import SeededRng
from .stopwords import DEFAULT_STOPWORDS

logger = logging.getLogger(__name__)

LABELS = ("support", "oppose", "none")
LABEL_TO_INDEX = {name: i for i, name in enumerate(LABELS)}
ANNOTATION_TO_LABEL = {
    "Argument_for": "support",
    "Argument_against": "oppose",
    "NoArgument": "none",
}
SPLIT_TAGS = ("train", "val", "test")

_REQUIRED_COLUMNS = ("topic", "sentence", "annotation", "set")
_PUNCT_RE = re.compile(r"[^\w\s]", flags=re.UNICODE)
# The ASCII characters _PUNCT_RE deletes, found by asking it, so that deleting
# them with bytes.translate is the same regex applied to ASCII text.
_ASCII_PUNCT = bytes(c for c in range(128) if _PUNCT_RE.match(chr(c)))
# What default ntm mode drops from ASCII text: an ASCII token holds only
# [a-z0-9_], so it is shorter than 2 characters iff it is one ASCII character.
_NTM_ASCII_DROP = DEFAULT_STOPWORDS | {chr(c) for c in range(128)}
# Sentences per tokenize call in `count_tokens`: ~1 MB of tokens, not ~40 MB for a whole corpus.
_COUNT_CHUNK = 1024


class CorpusFormatError(ValueError):
    """Raised for missing or repeated columns or malformed rows (includes line numbers)."""


@contextmanager
def open_utf8(path, newline=None):
    """`path` opened to read UTF-8 text; a file that is not UTF-8 is refused by
    name, with its first bad byte's line and offset in the file."""
    with open(path, encoding="utf-8", newline=newline) as fh:
        try:
            yield fh
        except UnicodeDecodeError as err:
            fh.buffer.seek(0)  # `err` counts from its read chunk: decode the whole file
            data = fh.buffer.read()
            try:
                data.decode("utf-8")
            except UnicodeDecodeError as whole:
                err = whole
            line = data.count(b"\n", 0, err.start) + 1
            raise ValueError(f"{path} is not UTF-8 text (line {line}: {err})") from None


@dataclass(frozen=True, slots=True)
class RawRecord:
    target: str
    sentence: str
    annotation: str
    split_tag: str


@dataclass(frozen=True, slots=True)
class ArgumentExample:
    """One sentence paired with its target and gold label."""

    target: str
    tokens: tuple[str, ...]
    label: str
    text: str = ""

    def label_index(self) -> int:
        return LABEL_TO_INDEX[self.label]


@dataclass
class Vocabulary:
    """Dense token ids ranked by frequency (ties lexicographic)."""

    index_of: dict[str, int]
    id_to_word: list[str]

    @property
    def size(self) -> int:
        return len(self.id_to_word)

    def __contains__(self, token: str) -> bool:
        return token in self.index_of

    def ids(self, tokens) -> list[int]:
        """Ids of in-vocabulary tokens, OOV silently dropped."""
        return [self.index_of[t] for t in tokens if t in self.index_of]

    def to_tsv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, word in enumerate(self.id_to_word):
                fh.write(f"{word}\t{i}\n")

    @classmethod
    def from_tsv(cls, path) -> "Vocabulary":
        """Read `to_tsv`'s lines, `word<TAB>id` with ids 0, 1, 2, ... in order."""
        id_to_word: list[str] = []
        with open_utf8(path) as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.rstrip("\n")
                parts = line.split("\t")
                if len(parts) != 2 or parts[1] != str(lineno - 1):
                    raise ValueError(
                        f"{path}:{lineno}: expected 'word<TAB>{lineno - 1}', got {line!r}; "
                        "re-run prepare"
                    )
                id_to_word.append(parts[0])
        return cls({w: i for i, w in enumerate(id_to_word)}, id_to_word)


@dataclass
class DatasetSplit:
    train: list[ArgumentExample]
    val: list[ArgumentExample]
    test: list[ArgumentExample]
    held_out_target: str | None = None


def load_tsv(path) -> list[RawRecord]:
    """Parse the corpus TSV into RawRecords.

    Rows whose annotation is not one of the three known strings are skipped
    and counted (reported via logging). Structural problems (missing file,
    missing or repeated column, short row) raise CorpusFormatError with the line number.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"corpus file not found: {path}")
    records: list[RawRecord] = []
    rejected = 0
    with open_utf8(path, newline="") as fh:
        reader = csv.reader(fh, delimiter="\t", quoting=csv.QUOTE_NONE)
        try:
            header = next(reader)
        except StopIteration:
            raise CorpusFormatError(f"{path}: empty file, no header row") from None
        names = [name.strip() for name in header]
        column = {name: i for i, name in enumerate(names)}
        missing = [c for c in _REQUIRED_COLUMNS if c not in column]
        if missing:
            raise CorpusFormatError(f"{path}: missing required column(s) {missing}")
        for c in _REQUIRED_COLUMNS:
            if names.count(c) > 1:
                raise CorpusFormatError(f"{path}: column {c!r} appears {names.count(c)} times")
        width = max(column[c] for c in _REQUIRED_COLUMNS) + 1
        for lineno, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) < width:
                raise CorpusFormatError(
                    f"{path}:{lineno}: malformed row, expected >= {width} fields, got {len(row)}"
                )
            sentence = row[column["sentence"]].strip()
            annotation = row[column["annotation"]].strip()
            if annotation not in ANNOTATION_TO_LABEL or not sentence:
                rejected += 1
                continue
            split_tag = row[column["set"]].strip()
            records.append(
                RawRecord(
                    target=row[column["topic"]].strip(),
                    sentence=sentence,
                    annotation=annotation,
                    split_tag=split_tag,
                )
            )
    if rejected:
        logger.warning("load_tsv: rejected %d row(s) with unknown annotation or empty sentence", rejected)
    return records


def tokenize(text: str, mode: str = "encoder") -> list[str]:
    """Lowercase, delete punctuation characters, split on whitespace.

    Mode "ntm" additionally drops `DEFAULT_STOPWORDS` and tokens shorter than 2
    characters; mode "encoder" keeps everything. ASCII text (after
    lowercasing) takes a C-level path that gives the same tokens as the regex.
    """
    if mode not in ("ntm", "encoder"):
        raise ValueError(f"unknown tokenize mode {mode!r}")
    text = text.lower()
    ascii_text = text.isascii()
    if ascii_text:
        tokens = text.encode("ascii").translate(None, _ASCII_PUNCT).decode("ascii").split()
    else:
        tokens = _PUNCT_RE.sub("", text).split()
    if mode == "ntm":
        if ascii_text:
            return list(filterfalse(_NTM_ASCII_DROP.__contains__, tokens))
        tokens = [t for t in tokens if _ntm_keeps(t)]
    return tokens


def _ntm_keeps(token: str) -> bool:
    """The ntm-mode rule: a token of at least 2 characters that is not a stopword."""
    return len(token) >= 2 and token not in DEFAULT_STOPWORDS


def label_of(record: RawRecord) -> str:
    return ANNOTATION_TO_LABEL[record.annotation]


def examples_from_records(records) -> list[ArgumentExample]:
    """Encoder-mode examples; equal tokens are one `str` object within one call."""
    share = {}.setdefault
    out = []
    for r in records:
        tokens = tokenize(r.sentence, mode="encoder")
        shared = tuple(map(share, tokens, tokens))
        out.append(ArgumentExample(r.target, shared, label_of(r), r.sentence))
    return out


def count_tokens(texts) -> Counter[str]:
    """Encoder-mode token counts; texts joined by a space tokenize to their tokens chained.

    ASCII texts are joined apart from the others, so that no non-ASCII text
    sends a chunk of them down tokenize's regex path.
    """
    groups = ([], [])
    for text in texts:
        groups[text.isascii()].append(text)
    freq: Counter[str] = Counter()
    for group in groups:
        for start in range(0, len(group), _COUNT_CHUNK):
            freq.update(tokenize(" ".join(group[start:start + _COUNT_CHUNK])))
    return freq


def rank_by_count(freq: dict[str, int]) -> list[str]:
    """Words by descending count, ties lexicographic (a stable sort)."""
    return sorted(sorted(freq), key=freq.__getitem__, reverse=True)


def build_vocabulary(records, max_size: int) -> Vocabulary:
    """Frequency-ranked NTM vocabulary over all record sentences.

    Ties broken lexicographically. NTM-mode tokens are the encoder-mode ones
    that `_ntm_keeps`.
    """
    if max_size < 1:
        raise ValueError(f"max_size must be >= 1, got {max_size}")
    if not records:
        raise ValueError("cannot build a vocabulary from zero records")
    freq = count_tokens(r.sentence for r in records)
    kept = {w: c for w, c in freq.items() if _ntm_keeps(w)}
    ranked = rank_by_count(kept)[:max_size]
    return Vocabulary(index_of={w: i for i, w in enumerate(ranked)}, id_to_word=ranked)


def vectorize_all(token_seqs, vocab: Vocabulary) -> sparse.csr_matrix:
    """Stack BoW vectors for many token sequences as a CSR matrix.

    Counts come from one `np.unique` over the keys row * V + id, so each row's
    indices are sorted; OOV tokens are ignored.
    """
    seqs = list(token_seqs)
    lengths = np.fromiter(map(len, seqs), dtype=np.int64, count=len(seqs))
    ids = np.fromiter(
        map(vocab.index_of.get, chain.from_iterable(seqs), repeat(-1)),
        dtype=np.int64,
        count=int(lengths.sum()),
    )
    rows = np.repeat(np.arange(len(seqs), dtype=np.int64), lengths)
    hit = ids >= 0
    keys, counts = np.unique(rows[hit] * vocab.size + ids[hit], return_counts=True)
    indptr = np.zeros(len(seqs) + 1, dtype=np.int64)
    np.cumsum(np.bincount(keys // vocab.size, minlength=len(seqs)), out=indptr[1:])
    return sparse.csr_matrix(
        (counts.astype(np.int64), keys % vocab.size, indptr),
        shape=(len(seqs), vocab.size),
    )


def make_in_target_folds(examples, k: int, seed: int) -> list[DatasetSplit]:
    """Seeded k-fold splits: fold i tests, fold i+1 validates, rest train."""
    n = len(examples)
    if k < 3:
        raise ValueError(
            f"k must be >= 3 (a test fold, a validation fold and at least one "
            f"training fold), got {k}"
        )
    if n < k:
        raise ValueError(f"need at least k={k} examples, got {n}")
    order = SeededRng(seed).permutation(n)
    folds = np.array_split(order, k)
    splits = []
    for i in range(k):
        test_idx = folds[i]
        val_idx = folds[(i + 1) % k]
        held = np.zeros(n, dtype=bool)
        held[test_idx] = held[val_idx] = True
        train_idx = order[~held[order]]
        # Python ints index a list faster than numpy int64 scalars
        splits.append(
            DatasetSplit(
                train=[examples[j] for j in train_idx.tolist()],
                val=[examples[j] for j in val_idx.tolist()],
                test=[examples[j] for j in test_idx.tolist()],
            )
        )
    return splits


def make_cross_target_splits(records, examples) -> list[DatasetSplit]:
    """Leave-one-target-out splits, one per target in sorted order.

    `examples[i]` is `records[i]` tokenized. Each split trains and validates
    on the other targets' `train`/`val` rows and tests on the held-out
    target's `test` rows, as the corpus's own split tags say.
    """
    if len(records) != len(examples):
        raise ValueError(f"{len(records)} records but {len(examples)} examples")
    bad = sorted({r.split_tag for r in records} - set(SPLIT_TAGS))
    if bad:
        raise CorpusFormatError(f"records carry unknown split tag(s): {bad}")
    splits = []
    for held_out in sorted({r.target for r in records}):
        roles = {tag: [] for tag in SPLIT_TAGS}
        for record, ex in zip(records, examples):
            # the held-out target's test rows, every other target's train/val rows
            if (record.target == held_out) == (record.split_tag == "test"):
                roles[record.split_tag].append(ex)
        splits.append(DatasetSplit(**roles, held_out_target=held_out))
    return splits


def write_examples_jsonl(path, rows) -> None:
    """Audit export: one line (label, role, target, tokens) per (role, example)."""
    with open(path, "w", encoding="utf-8") as fh:
        for role, ex in rows:
            fh.write(
                json.dumps(
                    {
                        "target": ex.target,
                        "label": ex.label,
                        "role": role,
                        "tokens": list(ex.tokens),
                    },
                    sort_keys=True,
                )
                + "\n"
            )


def label_counts(records) -> dict[str, int]:
    counts = Counter(label_of(r) for r in records)
    return {label: counts.get(label, 0) for label in LABELS}


def target_counts(records) -> dict[str, int]:
    return dict(Counter(r.target for r in records))
