"""Outside-in tracing: spans recorded around the library's public functions.

Every function is wrapped where the caller looks it up. `mutual` imports
`optimizer_step`, `encode_batch`, `tokenize` and others by name, so patching
only the defining module would miss those calls; the table below patches each
lookup site. A wrapper only calls through and reads the clock, so traced and
untraced runs do the same arithmetic and consume the same random draws.

Spans live in memory as [name, parent, start, end, attrs] with `parent` the
index of the enclosing span (-1 for a root). A span's self time is its
duration minus the durations of its direct children; the thread is single,
so children never overlap and the self times under a root sum to its wall.
"""
from __future__ import annotations

import functools
import itertools
import json
import math
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np

from topicarg import autodiff, corpus, encoder, evaluate, mutual, ntm

import ukpcorpus

REPEAT = "bench.repeat"
SETUP = "bench.setup"
# bytes one fused Adam step must move per parameter: read p, g, m, v, write p, m, v
ADAM_BYTES_PER_PARAM = 8 * 7


def _params_stepped(args, kwargs, result):
    _, params, grads = args
    return {"params": sum(p.size for name, p in params.items() if name in grads)}


def _mlp_prefix(args, kwargs, result):
    return {"prefix": kwargs.get("prefix", args[3] if len(args) > 3 else "")}


def _densified(args, kwargs, result):
    rows, width = args[1].shape
    return {"bytes": rows * width * 8}


def _targets(args, kwargs, result):
    return {"targets": len(result), "with_topics": sum(1 for t in result.values() if t.terms)}


def _windows(args, kwargs, result):
    docs = args[1]
    window = kwargs.get("window", args[2] if len(args) > 2 else 10)
    return {"windows": sum(1 if len(d) <= window else len(d) - window + 1 for d in docs if d)}


# (owner, attribute, span name, attrs from (args, kwargs, result))
PATCHES = (
    (ukpcorpus, "generate", "corpus.generate", None),
    (corpus, "tokenize", "corpus.tokenize", None),
    (encoder, "tokenize", "corpus.tokenize", None),
    (mutual, "tokenize", "corpus.tokenize", None),
    (corpus, "vectorize_all", "corpus.vectorize", None),
    (corpus, "build_vocabulary", "corpus.vocabulary", None),
    (corpus, "examples_from_records", "corpus.examples", None),
    (corpus, "make_in_target_folds", "corpus.folds", None),
    (encoder, "build_encoder_vocab", "encoder.vocabulary", None),
    (encoder, "init_encoder", "encoder.init", None),
    (ntm, "init_ntm", "ntm.init", None),
    (autodiff.Tensor, "backward", "autodiff.backward", None),
    (autodiff, "log_softmax", "autodiff.log_softmax", None),
    (ntm, "mlp_forward", "nn.mlp_forward", _mlp_prefix),
    (mutual, "mlp_forward", "nn.mlp_forward", _mlp_prefix),
    (encoder, "mlp_forward", "nn.mlp_forward", _mlp_prefix),
    (ntm, "optimizer_step", "optim.step", _params_stepped),
    (mutual, "optimizer_step", "optim.step", _params_stepped),
    (ntm, "elbo_batch_graph", "ntm.forward", None),
    (mutual, "train_ntm_epoch", "ntm.epoch", None),
    (ntm, "infer_topic_distributions", "ntm.infer", _densified),
    (mutual, "infer_topic_distributions", "ntm.infer", _densified),
    (mutual, "encode_batch_graph", "encoder.forward", None),
    (mutual, "encode_batch", "encoder.encode_batch", None),
    (encoder, "predict", "encoder.predict", None),
    (mutual, "predict", "encoder.predict", None),
    (mutual, "train_alternating", "mutual.iteration", None),
    (mutual, "train_classifier_epoch", "mutual.classifier_epoch", None),
    (mutual, "_encode_all", "mutual.u_targets", None),
    (mutual, "project_to_topic", "mutual.u_targets", None),
    (mutual, "build_inputs", "mutual.build_inputs", None),
    (mutual, "extract_topics_for_targets", "topics.extract", _targets),
    (evaluate, "npmi", "evaluate.npmi", None),
    (evaluate, "coherence_report", "evaluate.coherence", _windows),
)


class Tracer:
    """Installs the span wrappers and keeps the spans they record."""

    def __init__(self):
        self.spans: list[list] = []
        self._open = [-1]

    def _begin(self, name: str) -> int:
        self.spans.append([name, self._open[-1], perf_counter(), None, None])
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def _end(self, idx: int) -> None:
        self.spans[idx][3] = perf_counter()
        self._open.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._begin(name)
        try:
            yield
        finally:
            self._end(idx)

    def _wrap(self, original, name, attrs_of):
        @functools.wraps(original)
        def traced(*args, **kwargs):
            idx = self._begin(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self._end(idx)
            if attrs_of is not None:
                self.spans[idx][4] = attrs_of(args, kwargs, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Patch every lookup site in PATCHES for the duration of the block."""
        restore = []
        try:
            for owner, attr, name, attrs_of in PATCHES:
                original = getattr(owner, attr)
                restore.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original, name, attrs_of))
            yield
        finally:
            for owner, attr, original in reversed(restore):
                setattr(owner, attr, original)

    def write(self, path) -> None:
        """All spans as JSON lines: name, parent index, start, end, attrs."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


class SpanView:
    """Per-root aggregation of a finished trace."""

    def __init__(self, spans: list[list]):
        self.spans = spans
        self.root: list[int] = []
        self.child_time = [0.0] * len(spans)
        self.index: dict[tuple[str, str], list[int]] = defaultdict(list)
        for i, (name, parent, start, end, _) in enumerate(spans):
            self.root.append(i if parent < 0 else self.root[parent])
            if parent >= 0:
                self.child_time[parent] += end - start
            self.index[(spans[self.root[i]][0], name)].append(i)

    def roots(self, name: str) -> list[int]:
        return [i for i in self.index[(name, name)] if self.spans[i][1] < 0]

    def under(self, root_name: str, name: str, parent: str | None = None) -> list[list]:
        """Spans called `name` below a root called `root_name` (optionally with that parent)."""
        return [
            self.spans[i] for i in self.index[(root_name, name)]
            if parent is None or (self.spans[i][1] >= 0 and self.spans[self.spans[i][1]][0] == parent)
        ]

    def self_times(self, root_name: str) -> dict[str, float]:
        """Self seconds by span name, summed over every root called `root_name`."""
        out: dict[str, float] = defaultdict(float)
        for i, (name, _, start, end, _) in enumerate(self.spans):
            if self.spans[self.root[i]][0] == root_name:
                out[name] += end - start - self.child_time[i]
        return dict(out)

    def step_gaps_ms(self, epoch_name: str) -> list[float]:
        """Per-batch times inside each `epoch_name` span, in ms.

        A batch runs from the end of the previous optimizer step (or the epoch
        start) to the end of its own step, so it holds the batch's forward,
        backward and step.
        """
        gaps = []
        for i in self.index[(REPEAT, epoch_name)]:
            last, end = self.spans[i][2], self.spans[i][3]
            for child in itertools.islice(self.spans, i + 1, None):
                if child[2] >= end:
                    break
                if child[0] == "optim.step" and child[1] == i:
                    gaps.append((child[3] - last) * 1e3)
                    last = child[3]
        return gaps


def _total(spans) -> float:
    return sum(s[3] - s[2] for s in spans)


def _pct(values, q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def layer_metrics(view: SpanView, examples: int) -> dict[str, float]:
    """The per-layer metrics but `trace.overhead`; per traced repeat or per set-up."""
    repeats = len(view.roots(REPEAT))
    setups = len(view.roots(SETUP))
    if repeats == 0 or setups == 0:
        raise ValueError("the trace holds no repeat or no set-up")

    def per_repeat(name, parent=None):
        return _total(view.under(REPEAT, name, parent)) / repeats

    def count(name, parent=None):
        return len(view.under(REPEAT, name, parent)) / repeats

    repeat_s = _total(view.under(REPEAT, REPEAT)) / repeats
    steps = view.under(REPEAT, "optim.step")
    step_ms = [(s[3] - s[2]) * 1e3 for s in steps]
    ntm_steps = view.under(REPEAT, "optim.step", "ntm.epoch")
    cls_steps = view.under(REPEAT, "optim.step", "mutual.classifier_epoch")
    enc_mlp = [
        s for s in view.under(REPEAT, "nn.mlp_forward", "ntm.forward")
        if s[4]["prefix"] in ("enc_mu.", "enc_logvar.")
    ]
    ntm_gaps = view.step_gaps_ms("ntm.epoch")
    cls_gaps = view.step_gaps_ms("mutual.classifier_epoch")
    extracts = view.under(REPEAT, "topics.extract")
    coherence = view.under(REPEAT, "evaluate.coherence")
    windows_per_pass = max((s[4]["windows"] for s in coherence), default=0)
    npmi_calls = count("evaluate.npmi")
    optim_step_s = per_repeat("optim.step")
    return {
        "bench.examples": float(examples),
        "bench.repeat_s": repeat_s,
        "trace.repeats": float(repeats),
        "trace.spans": sum(1 for r in view.root if view.spans[r][0] == REPEAT) / repeats,
        "trace.unattributed_s": view.self_times(REPEAT).get(REPEAT, 0.0) / repeats,
        "optim.step_s": optim_step_s,
        "optim.steps": count("optim.step"),
        "optim.step_ms_p50": _pct(step_ms, 50),
        "optim.step_ms_p90": _pct(step_ms, 90),
        "optim.share": optim_step_s / repeat_s,
        "optim.params_ntm": float(max((s[4]["params"] for s in ntm_steps), default=0)),
        "optim.params_cls": float(max((s[4]["params"] for s in cls_steps), default=0)),
        "optim.bytes_per_step": (
            float(np.mean([s[4]["params"] for s in steps])) * ADAM_BYTES_PER_PARAM
            if steps else 0.0
        ),
        "ntm.epoch_s": per_repeat("ntm.epoch"),
        "ntm.forward_s": per_repeat("ntm.forward"),
        "ntm.backward_s": per_repeat("autodiff.backward", "ntm.epoch"),
        "ntm.encoder_mlp_fwd_s": _total(enc_mlp) / repeats,
        "ntm.decoder_logsoftmax_fwd_s": per_repeat("autodiff.log_softmax", "ntm.forward"),
        "ntm.step_ms_p50": _pct(ntm_gaps, 50),
        "ntm.step_ms_p90": _pct(ntm_gaps, 90),
        "ntm.infer_s": per_repeat("ntm.infer"),
        "ntm.densified_bytes": sum(
            s[4]["bytes"] for s in view.under(REPEAT, "ntm.infer")
        ) / repeats,
        "encoder.forward_s": per_repeat("encoder.forward"),
        "encoder.backward_s": per_repeat("autodiff.backward", "mutual.classifier_epoch"),
        "encoder.step_ms_p50": _pct(cls_gaps, 50),
        "encoder.step_ms_p90": _pct(cls_gaps, 90),
        "encoder.predict_s": per_repeat("encoder.predict"),
        "encoder.encode_batch_s": per_repeat("encoder.encode_batch"),
        "mutual.iteration_s": per_repeat("mutual.iteration"),
        "mutual.classifier_epoch_s": per_repeat("mutual.classifier_epoch"),
        "mutual.u_targets_s": per_repeat("mutual.u_targets"),
        "mutual.build_inputs_s": per_repeat("mutual.build_inputs"),
        "topics.extract_s": per_repeat("topics.extract"),
        "topics.targets_with_topics": float(
            min((s[4]["with_topics"] for s in extracts), default=0)
        ),
        "topics.targets": float(max((s[4]["targets"] for s in extracts), default=0)),
        "evaluate.npmi_s": per_repeat("evaluate.npmi"),
        "evaluate.npmi_calls": npmi_calls,
        "evaluate.windows_per_pass": float(windows_per_pass),
        "evaluate.windows_scanned": npmi_calls * windows_per_pass,
        "evaluate.coherence_s": per_repeat("evaluate.coherence"),
        "corpus.tokenize_s": per_repeat("corpus.tokenize"),
        "corpus.setup_tokenize_s": _total(view.under(SETUP, "corpus.tokenize")) / setups,
        "corpus.vectorize_s": _total(view.under(SETUP, "corpus.vectorize")) / setups,
        "corpus.generate_s": _total(view.under(SETUP, "corpus.generate")) / setups,
        "autodiff.backward_s": per_repeat("autodiff.backward"),
        "autodiff.backward_calls": count("autodiff.backward"),
        "nn.mlp_forward_calls": count("nn.mlp_forward"),
    }


def self_time_table(view: SpanView, root_name: str) -> list[tuple[str, float, float]]:
    """(name, self seconds per root, share of the roots' wall), largest first."""
    roots = view.roots(root_name)
    wall = sum(view.spans[i][3] - view.spans[i][2] for i in roots)
    rows = sorted(view.self_times(root_name).items(), key=lambda kv: -kv[1])
    return [(name, t / len(roots), t / wall if wall else math.nan) for name, t in rows]
