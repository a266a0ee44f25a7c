"""Span tracing of the program's public functions, installed from outside.

``Tracer.install()`` replaces each traced function, in every loaded
``dnamlm`` module that refers to it, by a wrapper that records a span:
name, start, end, parent span, the current step or request id and the
phase (set-up or run).  Counters are taken from the same calls' arguments
and results.  Nothing under ``src/`` is edited; ``uninstall()`` puts the
original functions back.

Times are wall-clock readings of ``time.perf_counter`` on the CPU; no
hardware counters are read.  Spans stay in memory and are written out once,
at the end of the run.
"""

from __future__ import annotations

import gzip
import json
import os
import sys
import time
from collections import defaultdict

import numpy as np

# (module, function, span name) of every traced function.
TRACED = (
    ("dnamlm.pipeline", "pretrain_run", "pipeline.pretrain_run"),
    ("dnamlm.pipeline", "build_windows", "pipeline.build_windows"),
    ("dnamlm.pipeline", "prepare_frames", "pipeline.prepare_frames"),
    ("dnamlm.pipeline", "assemble_batch", "pipeline.assemble_batch"),
    ("dnamlm.pipeline", "attention_probe", "pipeline.attention_probe"),
    ("dnamlm.corpus", "generate_synthetic", "corpus.generate_synthetic"),
    ("dnamlm.corpus", "parse_fasta", "corpus.parse_fasta"),
    ("dnamlm.corpus", "sample_windows", "corpus.sample_windows"),
    ("dnamlm.tokenizer", "encode", "tokenizer.encode"),
    ("dnamlm.tokenizer", "wrap_for_model", "tokenizer.wrap_for_model"),
    ("dnamlm.masking", "plan_mask", "masking.plan_mask"),
    ("dnamlm.masking", "apply_corruption", "masking.apply_corruption"),
    ("dnamlm.rng", "split", "rng.split"),
    ("dnamlm.model.network", "forward", "model.network.forward"),
    ("dnamlm.model.network", "backward", "model.network.backward"),
    ("dnamlm.model.optimizer", "adamw_step", "model.optimizer.adamw_step"),
    ("dnamlm.model.training", "train_step", "model.training.train_step"),
    ("dnamlm.model.training", "predict_classes", "model.training.predict_classes"),
    ("dnamlm.model.training", "finetune_classify", "model.training.finetune_classify"),
    ("dnamlm.model.checkpoint", "save_checkpoint", "model.checkpoint.save"),
    ("dnamlm.model.checkpoint", "load_checkpoint", "model.checkpoint.load"),
    ("dnamlm.analysis", "embedding_silhouette", "analysis.embedding_silhouette"),
    ("dnamlm.analysis", "emit_report", "analysis.emit_report"),
)

#: Per-layer time metrics: metric name -> span whose self time it reports.
TIMES = {
    "model.network.backward_s": "model.network.backward",
    "model.optimizer.adamw_step_s": "model.optimizer.adamw_step",
    "model.training.train_step_s": "model.training.train_step",
    "model.network.forward_s": "model.network.forward",
    "model.training.predict_classes_s": "model.training.predict_classes",
    "corpus.parse_fasta_s": "corpus.parse_fasta",
    "corpus.sample_windows_s": "corpus.sample_windows",
    "tokenizer.encode_s": "tokenizer.encode",
    "tokenizer.wrap_for_model_s": "tokenizer.wrap_for_model",
    "masking.plan_mask_s": "masking.plan_mask",
    "masking.apply_corruption_s": "masking.apply_corruption",
    "rng.split_s": "rng.split",
    "pipeline.assemble_batch_s": "pipeline.assemble_batch",
    "model.checkpoint.save_s": "model.checkpoint.save",
    "model.checkpoint.load_s": "model.checkpoint.load",
    "analysis.embedding_silhouette_s": "analysis.embedding_silhouette",
    "pipeline.attention_probe_s": "pipeline.attention_probe",
    "analysis.emit_report_s": "analysis.emit_report",
}
COUNTS = (
    "model.network.logit_elements",
    "corpus.windows_kept",
    "corpus.windows_dropped",
    "masking.positions_masked",
    "rng.split_calls",
    "model.checkpoint.bytes",
)
RATIOS = {
    # name: (numerator counter, denominator counter)
    "model.network.real_position_ratio": ("network.real_positions", "network.positions"),
    "tokenizer.kept_token_ratio": ("tokenizer.framed_tokens", "tokenizer.encoded_tokens"),
}
OVERHEAD = "trace.overhead_pct"


def _count_forward(counts, args, kwargs, result):
    counts["model.network.logit_elements"] += result.logits.size
    counts["network.positions"] += result.padding_mask.size
    counts["network.real_positions"] += int(result.padding_mask.sum())


def _count_backward(counts, args, kwargs, result):
    batch = args[1]
    real = np.asarray(batch.padding_mask, dtype=bool)
    counts["network.positions"] += real.size
    counts["network.real_positions"] += int(real.sum())


def _count_windows(counts, args, kwargs, result):
    seq, window_len = args[0], args[1]
    stride = kwargs.get("stride") or window_len
    starts = (len(seq) - window_len) // stride + 1 if len(seq) >= window_len else 0
    counts["corpus.windows_kept"] += len(result)
    counts["corpus.windows_dropped"] += starts - len(result)


def _count_wrap(counts, args, kwargs, result):
    tokens = args[0]
    counts["tokenizer.encoded_tokens"] += len(tokens.ids if hasattr(tokens, "ids") else tokens)
    counts["tokenizer.framed_tokens"] += int(result[1].sum()) - 2


def _count_plan(counts, args, kwargs, result):
    counts["masking.positions_masked"] += len(result.mask_ids)


def _count_split(counts, args, kwargs, result):
    counts["rng.split_calls"] += 1


def _count_save(counts, args, kwargs, result):
    counts["model.checkpoint.bytes"] += sum(
        os.path.getsize(os.path.join(result, f)) for f in os.listdir(result)
    )


COUNTERS = {
    "model.network.forward": _count_forward,
    "model.network.backward": _count_backward,
    "corpus.sample_windows": _count_windows,
    "tokenizer.wrap_for_model": _count_wrap,
    "masking.plan_mask": _count_plan,
    "rng.split": _count_split,
    "model.checkpoint.save": _count_save,
}


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self) -> None:
        # span: [name, start, end, parent index, op id, phase]
        self.spans: list[list] = []
        self.counts: dict[str, dict[str, float]] = {
            "setup": defaultdict(float), "run": defaultdict(float)
        }
        self.phase = "setup"
        self.op_id = -1
        self.paused = False
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.op_id, self.phase])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, func, name: str):
        counter = COUNTERS.get(name)
        tracer = self

        def traced(*args, **kwargs):
            if tracer.paused:
                return func(*args, **kwargs)
            if name == "pipeline.assemble_batch":
                tracer.op_id = int(args[2])
            index = tracer._open(name)
            try:
                result = func(*args, **kwargs)
            finally:
                tracer._close(index)
            if counter is not None:
                counter(tracer.counts[tracer.phase], args, kwargs, result)
            return result

        traced.__wrapped__ = func
        return traced

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        """Swap every traced function for its wrapper in all dnamlm modules."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "dnamlm" or n.startswith("dnamlm."))]
        for module_name, attr, span_name in TRACED:
            original = getattr(sys.modules[module_name], attr)
            wrapper = self._wrap(original, span_name)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for module, key, original in reversed(self._patches):
            setattr(module, key, original)
        self._patches.clear()

    # -- results -------------------------------------------------------------

    def self_times(self) -> dict[str, dict[str, float]]:
        """Per phase, per span name: duration minus time covered by children."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _op, _phase in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {"setup": defaultdict(float), "run": defaultdict(float)}
        for i, (name, start, end, _parent, _op, phase) in enumerate(self.spans):
            out[phase][name] += (end - start) - child[i]
        return out

    def per_layer(self, rounds: int, overhead_pct: float) -> dict[str, tuple[float, str]]:
        """Every per-layer metric: set-up total plus run total per round."""
        selft = self.self_times()

        def per_round(table, key):
            return table["setup"].get(key, 0.0) + table["run"].get(key, 0.0) / max(rounds, 1)

        metrics = {m: (per_round(selft, span), "s") for m, span in TIMES.items()}
        for m in COUNTS:
            metrics[m] = (per_round(self.counts, m), "count")
        for m, (num, den) in RATIOS.items():   # over all traced calls
            n, d = (sum(self.counts[ph].get(key, 0.0) for ph in self.counts) for key in (num, den))
            metrics[m] = (n / d if d else 0.0, "ratio")
        metrics[OVERHEAD] = (overhead_pct, "%")
        return metrics

    def write(self, path: str) -> None:
        """Write every span as one JSON line, gzip-compressed."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for i, (name, start, end, parent, op, phase) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "parent": parent, "op": op, "phase": phase}) + "\n")
