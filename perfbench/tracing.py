"""Spans around crossgen's public functions, recorded from outside the program.

`Tracer.install()` replaces each function in `TARGETS` with a wrapper, in
every loaded `crossgen.*` module that holds a reference to it (so names
imported with `from .x import y` and command tables are covered too), and
`uninstall()` puts the originals back. A wrapper records one span per call:
name, start, end and parent. Spans live in compact arrays in memory and are
written out when the run ends. A function missing from the program is
reported as absent instead of failing the run.

`layer_metrics()` turns the spans into the per-layer metrics listed in
BENCHMARK.json. Spans are grouped by their root span: the workloads open a
`bench.setup` root and a `bench.run` root per segment of the timed part, and
most metrics count only the spans under `bench.run`.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import importlib
import json
import statistics
import sys
import time
from array import array

PRIMITIVES = ("matmul", "add", "mul", "layer_norm", "softmax", "log_softmax", "gelu",
              "gather_rows", "take_rows", "gather_last", "reshape", "swapaxes", "tsum")
OBJECTIVES = ("mlm", "xmlm", "dae", "xae", "task")


def _size(ids) -> int:
    shape = getattr(ids, "shape", None)
    if shape is None:
        return len(ids)
    n = 1
    for s in shape:
        n *= s
    return n


def _rows(ids) -> int:
    shape = getattr(ids, "shape", None)
    if shape is None:
        return 1
    return shape[0] if len(shape) == 2 else 1


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _measure_encode(tracer, args, kwargs, result):
    return _size(_arg(args, kwargs, 1, "ids")), 0.0


def _measure_decode(tracer, args, kwargs, result):
    ids = _arg(args, kwargs, 3, "target_ids")
    return _size(ids), _rows(ids)


def _measure_beam(tracer, args, kwargs, result):
    cfg = _arg(args, kwargs, 3, "cfg")
    out = result[0]
    return len(out), float(len(out) < cfg.max_len)


def _measure_loss(tracer, args, kwargs, result):
    tracer.model = _arg(args, kwargs, 0, "model")
    return 0.0, 0.0


def _measure_adam(tracer, args, kwargs, result):
    """Parameter values Adam updated, and values that held a gradient."""
    opt = args[0]
    updated = sum(p.data.size for p in opt.params.values() if p.grad is not None)
    model = tracer.model
    holding = updated if model is None else sum(
        p.data.size for p in model.params.values() if p.grad is not None)
    return updated, holding


# (home module, attribute or Class.method, span name, measure) -- measure runs
# after the call, outside the span, and returns the span's two payload values.
TARGETS = (
    *[("crossgen.training", f"loss_{o}", f"training.loss_{o}", _measure_loss)
      for o in OBJECTIVES],
    ("crossgen.autodiff", "Tensor.backward", "autodiff.backward", None),
    ("crossgen.training", "Adam.step", "training.adam_step", _measure_adam),
    ("crossgen.noising", "mask_mlm", "noising.mask_mlm", None),
    ("crossgen.noising", "noise_dae", "noising.noise_dae", None),
    ("crossgen.noising", "build_xmlm", "noising.build_xmlm", None),
    *[("crossgen.autodiff", p, f"autodiff.{p}", None) for p in PRIMITIVES],
    ("crossgen.model", "Seq2SeqModel.encode", "model.encode", _measure_encode),
    ("crossgen.model", "Seq2SeqModel.decode_forward", "model.decode_forward",
     _measure_decode),
    ("crossgen.model", "Seq2SeqModel.output_logits", "model.output_logits", None),
    ("crossgen.model", "save_checkpoint", "model.save_checkpoint", None),
    ("crossgen.model", "load_checkpoint", "model.load_checkpoint", None),
    ("crossgen.generation", "beam_search", "generation.beam_search", _measure_beam),
    ("crossgen.evaluation", "evaluate_corpus", "evaluation.evaluate_corpus", None),
    ("crossgen.experiments", "eval_task", "experiments.eval_task", None),
    ("crossgen.experiments", "clone_model", "experiments.clone_model", None),
    ("crossgen.experiments", "build_experiment_data", "corpus.build_experiment_data",
     None),
    ("crossgen.corpus", "read_jsonl", "corpus.jsonl_read", None),
    ("crossgen.cli", "cmd_generate", "cli.generate", None),
    ("crossgen.cli", "cmd_evaluate", "cli.evaluate", None),
)


class Tracer:
    """In-memory span recorder. Span i has name id, parent index (-1 for a
    root), start and end in seconds, and two payload values."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.a = array("d")
        self.b = array("d")
        self._stack: list[int] = []
        self._undo: list[tuple] = []
        self.absent: list[str] = []
        self.model = None

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self.a.append(0.0)
        self.b.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self.open(self.name_id(name))
        try:
            yield
        finally:
            self.close(idx)

    def wrap(self, fn, name: str, measure=None):
        nid = self.name_id(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if measure is not None:
                self.a[idx], self.b[idx] = measure(self, args, kwargs, result)
            return result

        return wrapper

    # ------------------------------------------------------------------
    # installing wrappers into the program

    def patch(self, module_name: str, attr: str, name: str, measure=None) -> bool:
        """Wrap one function everywhere crossgen refers to it; False if absent."""
        try:
            owner = importlib.import_module(module_name)
        except ImportError:
            self.absent.append(name)
            return False
        path = attr.split(".")
        for part in path[:-1]:
            owner = getattr(owner, part, None)
        fn = getattr(owner, path[-1], None) if owner is not None else None
        if not callable(fn):
            self.absent.append(name)
            return False
        wrapper = self.wrap(fn, name, measure)
        if len(path) > 1:
            self._set(owner, path[-1], wrapper)
            return True
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "crossgen" or mod_name.startswith("crossgen.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is fn:
                    self._set(mod, key, wrapper)
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        if v is fn:
                            value[k] = wrapper
                            self._undo.append((value, k, fn, True))
        return True

    def _set(self, owner, key, wrapper) -> None:
        self._undo.append((owner, key, getattr(owner, key), False))
        setattr(owner, key, wrapper)

    def install(self, targets=TARGETS) -> None:
        importlib.import_module("crossgen.cli")   # load every module first
        for module_name, attr, name, measure in targets:
            self.patch(module_name, attr, name, measure)

    def uninstall(self) -> None:
        for owner, key, original, is_dict in reversed(self._undo):
            if is_dict:
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._undo.clear()

    # ------------------------------------------------------------------
    # output

    def write(self, path) -> None:
        """All spans as gzip-compressed JSON columns (times in seconds)."""
        payload = {"names": self.names, "name": list(self.name),
                   "parent": list(self.parent), "start": list(self.start),
                   "end": list(self.end), "a": list(self.a), "b": list(self.b)}
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(payload, fh, separators=(",", ":"))


def self_times(parent, start, end) -> list[float]:
    """Each span's duration minus the part of its interval its children cover."""
    n = len(start)
    children: list[list[int]] = [[] for _ in range(n)]
    for i in range(n):
        if parent[i] >= 0:
            children[parent[i]].append(i)
    out = []
    for i in range(n):
        covered = 0.0
        lo = hi = None
        for c in sorted(children[i], key=lambda j: start[j]):
            s, e = max(start[c], start[i]), min(end[c], end[i])
            if e <= s:
                continue
            if hi is None or s > hi:
                if hi is not None:
                    covered += hi - lo
                lo, hi = s, e
            else:
                hi = max(hi, e)
        if hi is not None:
            covered += hi - lo
        out.append(end[i] - start[i] - covered)
    return out


def _median_ms(values) -> float:
    return 1e3 * statistics.median(values) if values else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the recorded spans, as name -> (value, unit).

    A metric whose function was never called (or is absent) reads 0.
    """
    names, nm, par = tracer.names, tracer.name, tracer.parent
    start, end, pa, pb = tracer.start, tracer.end, tracer.a, tracer.b
    n = len(start)
    root = [0] * n
    for i in range(n):
        root[i] = i if par[i] < 0 else root[par[i]]
    run_root = tracer._ids.get("bench.run", -2)
    in_run = [nm[root[i]] == run_root for i in range(n)]
    label = [names[nm[i]] for i in range(n)]
    dur = [end[i] - start[i] for i in range(n)]
    by_label: dict[str, list[int]] = {}
    for i in range(n):
        by_label.setdefault(label[i], []).append(i)

    def spans(name, run_only=True):
        return [i for i in by_label.get(name, ()) if in_run[i] or not run_only]

    m: dict[str, tuple[float, str]] = {}

    # training: one loss call, one backward and one Adam step per step; the
    # loss_mlm call made inside loss_xmlm belongs to the xmlm step
    fwd = {o: [] for o in OBJECTIVES}
    bwd = {o: [] for o in OBJECTIVES}
    opt = {o: [] for o in OBJECTIVES}
    noise = {k: [] for k in ("mask_mlm", "noise_dae", "build_xmlm")}
    acc = dict.fromkeys(noise, 0.0)
    current = None
    for i in range(n):
        if not in_run[i]:
            continue
        lab = label[i]
        if lab.startswith("training.loss_"):
            if par[i] >= 0 and label[par[i]].startswith("training.loss_"):
                continue
            current = lab[len("training.loss_"):]
            if current in fwd:
                fwd[current].append(dur[i])
        elif lab == "autodiff.backward" and current in bwd:
            bwd[current].append(dur[i])
        elif lab == "training.adam_step":
            if current in opt:
                opt[current].append(dur[i])
            for k, v in acc.items():
                if v > 0.0:
                    noise[k].append(v)
            acc = dict.fromkeys(noise, 0.0)
        elif lab.startswith("noising."):
            acc[lab[len("noising."):]] += dur[i]
    for o in OBJECTIVES:
        m[f"training.{o}.forward_ms"] = (_median_ms(fwd[o]), "ms")
        m[f"training.{o}.backward_ms"] = (_median_ms(bwd[o]), "ms")
        m[f"training.{o}.optimizer_ms"] = (_median_ms(opt[o]), "ms")
    for k, v in noise.items():
        m[f"noising.{k}_ms"] = (_median_ms(v), "ms")

    for p in PRIMITIVES:
        idx = spans(f"autodiff.{p}")
        m[f"autodiff.{p}.calls"] = (float(len(idx)), "count")
        m[f"autodiff.{p}.forward_ms"] = (1e3 * sum(dur[i] for i in idx), "ms")
    steps = spans("training.adam_step")
    holding = sum(pb[i] for i in steps)
    m["autodiff.useful_grad_share"] = (
        sum(pa[i] for i in steps) / holding if holding else 0.0, "share")

    for layer in ("encode", "decode_forward"):
        idx = spans(f"model.{layer}")
        m[f"model.{layer}.ms"] = (1e3 * sum(dur[i] for i in idx), "ms")
        m[f"model.{layer}.calls"] = (float(len(idx)), "count")
        m[f"model.{layer}.positions"] = (sum(pa[i] for i in idx), "count")
    m["model.output_logits_ms"] = (
        1e3 * sum(dur[i] for i in spans("model.output_logits")), "ms")
    m["model.save_checkpoint_ms"] = (
        1e3 * sum(dur[i] for i in spans("model.save_checkpoint", run_only=False)), "ms")
    m["model.load_checkpoint_ms"] = (
        1e3 * sum(dur[i] for i in spans("model.load_checkpoint")), "ms")

    beams = spans("generation.beam_search")
    beam_ids = set(beams)
    times = sorted(dur[i] for i in beams)
    m["generation.beam_search_ms"] = (_median_ms(times), "ms")
    # a p90 is reported only when at least ten samples lie beyond it
    p90 = statistics.quantiles(times, n=10)[-1] if len(times) >= 100 else None
    m["generation.beam_search_p90_ms"] = (1e3 * p90 if p90 is not None else 0.0, "ms")
    m["generation.beam_search_samples"] = (float(len(times)), "count")
    in_beam = [i for i in spans("model.decode_forward") if par[i] in beam_ids]
    positions = sum(pa[i] for i in in_beam)
    m["generation.steps_per_example"] = (
        len(in_beam) / len(beams) if beams else 0.0, "steps/example")
    m["generation.useful_position_share"] = (
        sum(pb[i] for i in in_beam) / positions if positions else 0.0, "share")
    m["generation.finished_share"] = (
        sum(pb[i] for i in beams) / len(beams) if beams else 0.0, "share")
    m["generation.output_tokens"] = (sum(pa[i] for i in beams), "count")

    for metric, name, run_only in (
            ("evaluation.evaluate_corpus_ms", "evaluation.evaluate_corpus", True),
            ("experiments.eval_task_ms", "experiments.eval_task", True),
            ("experiments.clone_model_ms", "experiments.clone_model", True),
            ("corpus.build_experiment_data_ms", "corpus.build_experiment_data", False),
            ("corpus.jsonl_read_ms", "corpus.jsonl_read", True),
            ("cli.generate_ms", "cli.generate", True),
            ("cli.evaluate_ms", "cli.evaluate", True)):
        m[metric] = (1e3 * sum(dur[i] for i in spans(name, run_only)), "ms")

    # time in `crossgen generate` not covered by beam_search: files and checkpoint
    gen = spans("cli.generate")
    gen_ids = set(gen)
    inner = 0.0
    for i in beams:
        j = par[i]
        while j >= 0 and j not in gen_ids:
            j = par[j]
        if j >= 0:
            inner += dur[i]
    m["cli.generate_outside_beam_ms"] = (
        1e3 * (sum(dur[i] for i in gen) - inner), "ms")
    return m


def self_time_summary(tracer: Tracer) -> dict[str, dict[str, float]]:
    """Calls, total ms and self ms per span name, over all spans."""
    selfs = self_times(tracer.parent, tracer.start, tracer.end)
    out: dict[str, dict[str, float]] = {}
    for i in range(len(tracer.start)):
        row = out.setdefault(tracer.names[tracer.name[i]],
                             {"calls": 0, "total_ms": 0.0, "self_ms": 0.0})
        row["calls"] += 1
        row["total_ms"] += 1e3 * (tracer.end[i] - tracer.start[i])
        row["self_ms"] += 1e3 * selfs[i]
    return out
