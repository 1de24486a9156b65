"""The benchmark's workloads, driving crossgen's public API in one process.

Every workload is one closed-loop caller. `--seconds` sets the amount of
work from step counts and round lengths measured on the reference machine,
so that two runs with the same arguments do identical work.

On a shared machine the speed of a core alternates between a fast and a
slow phase (1.4-1.7x apart on the reference machine, in spells from one to
tens of seconds), so sums and medians of times mostly measure how long the
slow spells lasted. The figures therefore cost each unit of work at the
fastest of its repeated measurements:

- training steps are timed by a clock on `Adam.step` (one `perf_counter()`
  call per step) and summed in blocks of four consecutive steps, which hold
  the same mix of objectives; a training rate is four steps over the fastest
  block;
- batch decode calls (`experiments.eval_task`, `crossgen generate`) are
  repeated, spread over the run; the decode rate is the examples of one call
  per group over the sum of the groups' fastest calls. `eval_task` runs on
  chunks of ten examples, and a group holds every chunk of one kind of
  decode (strategy and language), so that its fastest call is taken over
  tens of short calls, as a training rate is over tens of blocks;
- `wall_s` is the timed part's wall time with every block and decode call in
  it counted at that fastest time; the rest (checkpoint loads, model clones,
  `crossgen evaluate`) is counted as measured.

Workloads:

- pretrain: a fresh model runs stage 1 (mlm + xmlm), then stage 2 (dae + xae,
  encoder and embeddings frozen). Training only, no decoding.
- transfer: the zero-shot protocol from a pre-trained checkpoint: fine-tune
  on the `la` task with strategy `all` and with `et`; after each, decode the
  `la` eval set and, restricted to the `lb` passages' vocabulary, the `lb`
  eval set through `experiments.eval_task`.
- translate: `crossgen generate` on held-out sentences of both languages,
  each with the other language's tag and with its own, once with the full
  vocabulary and once with `--restrict`; then `crossgen evaluate`; repeated
  in rounds.

Transfer and translate build their language and starting checkpoint from a
fixed seed, because decode lengths follow the checkpoint: with one per seed,
the mean output length varied from 3.7 to 6.1 tokens over five seeds, and
decode time with it.
Their `--seed` picks the sentences and task examples and the fine-tuning
order. Pretrain takes all of its data from `--seed`.

Every run reports all eight end-to-end metrics. Rates that a workload's
timed part does not exercise come from short probes run between its timed
segments (`_probe`) and, for the pre-training stages of transfer and
translate, also from building their starting checkpoint. Probes of the rates
a timed part does exercise (pretrain's stages, transfer's fine-tuning) add
samples spread over the run to those of its single long training calls.
"""

from __future__ import annotations

import contextlib
import functools
import io
import itertools
import json
import os
import resource
import time
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

import checks

# language and starting-checkpoint seed of transfer and translate
BASE_SEED = 0


def _is_decoder(name: str) -> bool:
    """Stage 1 leaves these parameters untouched."""
    return name.startswith("dec.")


def _is_encoding(name: str) -> bool:
    """Stage 2 leaves these parameters untouched."""
    return name.startswith("enc.") or name in ("tok_emb", "pos_emb", "lang_emb")


# parameters each fine-tuning strategy leaves frozen, by name
FROZEN_BY = {
    "all": lambda name: False,
    "et": lambda name: not name.startswith("enc."),
}


@dataclass(frozen=True)
class Sizes:
    """Input sizes and step counts; FULL is the benchmark, TINY its tests."""

    vocab_per_lang: int = 50
    sentence_len: tuple[int, int] = (5, 12)
    n_mono: int = 5000
    n_parallel: int = 1500
    task_train: int = 400
    task_eval: int = 60
    d_model: int = 64
    n_heads: int = 4
    d_ffn: int = 256
    layers: int = 2
    max_positions: int = 96
    batch: int = 16
    beam: int = 3
    # pretrain: steps of each stage per second of --seconds, lr 1e-3, 10% warm-up
    stage1_per_s: float = 16.0
    stage2_per_s: float = 12.0
    pretrain_lr: float = 1e-3
    # starting checkpoint of transfer and translate: steps per stage
    setup_steps: int = 150
    setup_lr: float = 2e-3
    # transfer, at the zero-shot acceptance settings; examples drawn from pools
    transfer_train_pool: int = 1000
    transfer_eval_pool: int = 300
    transfer_task_train: int = 600
    transfer_task_eval: int = 100
    finetune_steps: int = 200
    finetune_warmup: int = 20
    finetune_lr: float = 1.5e-3
    task_max_len: int = 8
    transfer_round_s: float = 15.0
    # translate: held-out sentences per language, drawn from a pool
    translate_pool: int = 400
    translate_sentences: int = 30
    translate_max_len: int = 16
    translate_round_s: float = 2.15
    # batch decodes repeated for the fastest call; probes between timed segments
    decode_repeats: int = 4
    probe_steps: int = 24
    loss_window: int = 20


FULL = Sizes()
TINY = Sizes(vocab_per_lang=10, sentence_len=(4, 7), n_mono=120, n_parallel=60,
             task_train=24, task_eval=6, d_model=32, n_heads=2, d_ffn=64,
             max_positions=40, stage1_per_s=40.0, stage2_per_s=40.0, pretrain_lr=5e-3,
             setup_steps=60, setup_lr=5e-3,
             transfer_train_pool=40, transfer_eval_pool=12, transfer_task_train=24,
             transfer_task_eval=6, finetune_steps=80, finetune_warmup=8,
             finetune_lr=3e-3, transfer_round_s=2.0, translate_pool=12,
             translate_sentences=4, translate_max_len=10, translate_round_s=1.0,
             decode_repeats=2, probe_steps=80, loss_window=15)


class StepClock:
    """Records when each `Adam.step` returns, for per-step training times.

    Entered for the whole run, before any tracer is installed and left after
    it is removed. Without `Adam.step` the training calls are timed whole.
    """

    def __init__(self):
        self.marks: list[float] = []
        self._restore = None

    def __enter__(self):
        try:
            from crossgen.training import Adam
            original = Adam.step
        except (ImportError, AttributeError):
            return self
        marks = self.marks

        @functools.wraps(original)
        def step(opt, *args, **kwargs):
            result = original(opt, *args, **kwargs)
            marks.append(time.perf_counter())
            return result

        Adam.step = step
        self._restore = (Adam, original)
        return self

    def __exit__(self, *exc):
        if self._restore is not None:
            cls, original = self._restore
            cls.step = original
            self._restore = None


STEP_BLOCK = 4
# examples per timed batch decode call of transfer and of the probes
DECODE_CALL = 10
# back-to-back decodes of the probe set in each probe
PROBE_DECODE_REPEATS = 2


@dataclass
class Run:
    """Timings, counts and problems of one workload run.

    `samples[key][group]` holds (units of work per sample, sample times).
    """

    clock: StepClock
    tracer: object = None
    t_start: float = field(default_factory=time.perf_counter)
    samples: dict = field(default_factory=lambda: defaultdict(dict))
    counts: dict = field(default_factory=lambda: defaultdict(int))
    problems: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    setup_s: float = 0.0
    _timed: list | None = None
    _segments: list = field(default_factory=list)

    def setup_done(self) -> None:
        """Set-up ends here; it is timed from the process's start."""
        self.setup_s = time.perf_counter() - self.t_start

    def stop_tracing(self) -> None:
        """Restore the untraced program, so that checks leave no spans."""
        if self.tracer is not None:
            self.tracer.uninstall()

    def phase(self, name):
        return self.tracer.span(name) if self.tracer is not None else contextlib.nullcontext()

    def sample(self, key: str, group, units: int, seconds: float) -> None:
        self.samples[key].setdefault(group, (units, []))[1].append(seconds)
        if self._timed is not None:
            self._timed.append((key, group, seconds))

    @contextlib.contextmanager
    def timed(self, key: str, group, units: int):
        t0 = time.perf_counter()
        yield
        self.sample(key, group, units, time.perf_counter() - t0)

    @contextlib.contextmanager
    def timed_part(self):
        """One segment of the workload's timed part."""
        with self.phase("bench.run"):
            self._timed = []
            t0 = time.perf_counter()
            yield
            self._segments.append((time.perf_counter() - t0, self._timed))
        self._timed = None

    @property
    def wall_s(self) -> float:
        """The timed segments' wall time, each sample in them counted at its
        group's fastest time over the whole run (see the module docstring)."""
        return sum(raw - sum(t for _, _, t in timed)
                   + sum(self.unit_time(key, group) for key, group, _ in timed)
                   for raw, timed in self._segments)

    def unit_time(self, key: str, group) -> float:
        return min(self.samples[key][group][1])

    def train(self, key: str, call):
        """One training call, timed in blocks of STEP_BLOCK steps by the step
        clock (whole when the clock saw no steps)."""
        self.clock.marks.clear()
        t0 = time.perf_counter()
        rows = call()
        t1 = time.perf_counter()
        marks = [t0, *self.clock.marks]
        if len(marks) == len(rows) + 1:
            for i in range(STEP_BLOCK, len(marks), STEP_BLOCK):
                self.sample(key, "block", STEP_BLOCK, marks[i] - marks[i - STEP_BLOCK])
        else:
            self.sample(key, "call", len(rows), t1 - t0)
        self.attempted += len(rows)
        self.counts["steps"] += len(rows)
        return rows

    def rate(self, key: str) -> float:
        groups = self.samples[key]
        return (sum(units for units, _ in groups.values())
                / sum(self.unit_time(key, g) for g in groups))


def _rounds(seconds: int, round_s: float) -> int:
    return max(1, round(seconds / round_s))


def _languages():
    from crossgen.vocab import LanguageTag
    return LanguageTag(0, "la"), LanguageTag(1, "lb")


def _pick(items: list, n: int, rng) -> list:
    return [items[int(i)] for i in sorted(rng.choice(len(items), size=n, replace=False))]


def _build_data(sizes: Sizes, seed: int, reorder: int, bias: float, n_train: int,
                n_eval: int, n_probe: int):
    from crossgen.corpus import SynthConfig
    from crossgen.experiments import build_experiment_data

    synth = SynthConfig(vocab_size_per_lang=sizes.vocab_per_lang,
                        sentence_len_range=sizes.sentence_len, n_mono=sizes.n_mono,
                        n_parallel=sizes.n_parallel, reorder_window=reorder,
                        bigram_bias=bias, seed=seed)
    return build_experiment_data(synth, n_train, n_eval, n_probe)


def _new_model(sizes: Sizes, vocab_size: int, seed: int):
    from crossgen.model import ModelConfig, Seq2SeqModel

    cfg = ModelConfig(enc_layers=sizes.layers, dec_layers=sizes.layers,
                      d_model=sizes.d_model, n_heads=sizes.n_heads, d_ffn=sizes.d_ffn,
                      max_positions=sizes.max_positions, vocab_size=vocab_size)
    return Seq2SeqModel.build(cfg, seed=seed)


def _opt(lr: float, steps: int, warmup: int | None = None):
    from crossgen.training import OptimizerConfig
    return OptimizerConfig(base_lr=lr, warmup_steps=steps // 10 if warmup is None else warmup,
                           total_steps=steps)


def _check_training(run: Run, rows, optcfg, window: int | None) -> None:
    run.problems += checks.check_finite(rows)
    if window is not None:
        run.problems += checks.check_loss_falls(rows, window)
    run.problems += checks.check_lr(rows, optcfg.base_lr, optcfg.warmup_steps,
                                    optcfg.total_steps)


def _pretrain_stages(run: Run, model, data, sizes: Sizes, seed: int, s1: int, s2: int,
                     lr: float, segment=contextlib.nullcontext, between=lambda: None):
    """Stage 1 then stage 2 in place, each inside `segment()`, with `between()`
    after each; returns what the checks need."""
    from crossgen.noising import NoiseConfig
    from crossgen.training import pretrain_stage1, pretrain_stage2

    mono = [data.pretrain_mono["la"], data.pretrain_mono["lb"]]
    opt1, opt2 = _opt(lr, s1), _opt(lr, s2)
    dec = checks.snapshot(model.params, _is_decoder)
    with segment():
        rows1 = run.train("stage1", lambda: pretrain_stage1(
            model, mono, data.twin.parallel, opt1, NoiseConfig(), batch_size=sizes.batch,
            seed=seed))
    between()
    dec_after = checks.snapshot(model.params, _is_decoder)
    encoding = checks.snapshot(model.params, _is_encoding)
    with segment():
        rows2 = run.train("stage2", lambda: pretrain_stage2(
            model, mono, data.twin.parallel, opt2, NoiseConfig(), batch_size=sizes.batch,
            seed=seed))
    between()
    return [(rows1, opt1, dec, dec_after, "stage 1 decoder"),
            (rows2, opt2, encoding, checks.snapshot(model.params, _is_encoding),
             "stage 2 encoder and embeddings")]


def _check_stages(run: Run, stages, window: int | None) -> None:
    for rows, optcfg, before, after, what in stages:
        _check_training(run, rows, optcfg, window)
        run.problems += checks.check_frozen(before, after, what)


def _finetune(run: Run, base, examples, strategy: str, optcfg, sizes: Sizes, seed: int,
              window: int | None):
    """Fine-tune a clone of `base`; checks the frozen groups and the losses."""
    from crossgen.training import finetune

    tuned = _clone(base)
    frozen = checks.snapshot(tuned.params, FROZEN_BY[strategy])
    rows = run.train(f"finetune_{strategy}", lambda: finetune(
        tuned, examples, strategy, optcfg, batch_size=sizes.batch, seed=seed))
    _check_training(run, rows, optcfg, window)
    if frozen:
        run.problems += checks.check_frozen(frozen, tuned.params, f"finetune {strategy}")
    return tuned


def _eval(run: Run, model, examples, tgt, sizes: Sizes, kind, **kwargs):
    """One timed `eval_task` call. Calls of one kind and size form one timing
    group, so that a group's fastest call is taken over every chunk of its
    examples and every repeat (the chunks' decode times differ by a few
    percent, far less than a slow spell slows them)."""
    from crossgen.experiments import eval_task

    with run.timed("decode", (kind, len(examples)), len(examples)):
        report = eval_task(model, examples, tgt, beam_size=sizes.beam,
                           max_len=sizes.task_max_len, **kwargs)
    run.attempted += len(examples)
    run.counts["decoded"] += len(examples)
    return report


def _check_repeats(run: Run, reports: dict) -> None:
    for group, same in reports.items():
        if any(r != same[0] for r in same):
            run.problems.append(f"decode {group}: repeated eval_task reports differ")


def _probe(run: Run, model, data, sizes: Sizes, seed: int, kinds: tuple, reports: dict):
    """Short measurements of the rates a workload's timed part does not
    exercise, run between its timed segments so that they spread over the run.
    Too short for the losses to fall reliably, so that check is left out."""
    if "stages" in kinds:
        _check_stages(run, _pretrain_stages(run, _clone(model), data, sizes, seed,
                                            sizes.probe_steps, sizes.probe_steps,
                                            sizes.pretrain_lr), None)
    if "finetune" in kinds:
        optcfg = _opt(sizes.finetune_lr, sizes.probe_steps)
        for strategy in ("all", "et"):
            _finetune(run, model, data.task_train["la"], strategy, optcfg, sizes, seed, None)
    if "decode" in kinds:
        la, _ = _languages()
        examples = data.task_eval["la"]
        # short calls, so that some fall wholly inside a fast spell
        for _ in range(PROBE_DECODE_REPEATS):
            for i in range(0, len(examples), DECODE_CALL):
                reports["probe", i].append(_eval(run, model, examples[i:i + DECODE_CALL], la,
                                                 sizes, "probe"))


def _clone(model):
    from crossgen.experiments import clone_model
    return clone_model(model)


# ---------------------------------------------------------------------------
# workloads

def pretrain(run: Run, seed: int, seconds: int, sizes: Sizes, workdir: str) -> None:
    with run.phase("bench.setup"):
        data = _build_data(sizes, seed, reorder=2, bias=0.5, n_train=sizes.task_train,
                           n_eval=sizes.task_eval, n_probe=1)
        model = _new_model(sizes, len(data.twin.vocab), seed)
    run.setup_done()
    s1 = 2 * max(1, round(seconds * sizes.stage1_per_s / 2))
    s2 = 2 * max(1, round(seconds * sizes.stage2_per_s / 2))
    reports = defaultdict(list)
    # the probes train and decode the untrained model, the same each time; their
    # stage 1 and stage 2 steps spread those rates' samples over the run
    fresh = _clone(model)

    def probe():
        _probe(run, fresh, data, sizes, seed, ("stages", "finetune", "decode"), reports)

    probe()
    stages = _pretrain_stages(run, model, data, sizes, seed, s1, s2, sizes.pretrain_lr,
                              segment=run.timed_part, between=probe)
    run.stop_tracing()
    _check_stages(run, stages, sizes.loss_window)
    _check_repeats(run, reports)


def transfer(run: Run, seed: int, seconds: int, sizes: Sizes, workdir: str) -> None:
    from crossgen.corpus import MonolingualCorpus
    from crossgen.generation import restrict_vocab
    from crossgen.model import load_checkpoint, save_checkpoint
    from crossgen.vocab import EOS_ID, SEP_ID

    la, lb = _languages()
    ckpt = os.path.join(workdir, "start.ckpt")
    with run.phase("bench.setup"):
        # aligned twins (no reorder, strong bigrams), as in the zero-shot criterion
        data = _build_data(sizes, BASE_SEED, reorder=1, bias=0.7,
                           n_train=sizes.transfer_train_pool,
                           n_eval=sizes.transfer_eval_pool, n_probe=1)
        model = _new_model(sizes, len(data.twin.vocab), BASE_SEED)
        stages = _pretrain_stages(run, model, data, sizes, BASE_SEED, sizes.setup_steps,
                                  sizes.setup_steps, sizes.setup_lr)
        save_checkpoint(model, ckpt)
        rng = np.random.default_rng(seed)
        train_a = _pick(data.task_train["la"], sizes.transfer_task_train, rng)
        eval_a = _pick(data.task_eval["la"], sizes.transfer_task_eval, rng)
        eval_b = _pick(data.task_eval["lb"], sizes.transfer_task_eval, rng)
        # decode-time restriction to the vocabulary of the zero-shot eval passages
        allowed = restrict_vocab(MonolingualCorpus(lb, [
            [t for t in ex.input if t != SEP_ID] for ex in eval_b]))
    run.setup_done()
    _check_stages(run, stages, sizes.loss_window)

    optcfg = _opt(sizes.finetune_lr, sizes.finetune_steps, sizes.finetune_warmup)
    tuned, reports = {}, defaultdict(list)

    def decode(strategy: str) -> None:
        # calls of DECODE_CALL examples, short enough that some repeats of
        # each fall wholly inside a fast spell
        for i in range(0, len(eval_a), DECODE_CALL):
            reports[strategy, "la", i].append(_eval(
                run, tuned[strategy], eval_a[i:i + DECODE_CALL], la, sizes, (strategy, "la")))
        for i in range(0, len(eval_b), DECODE_CALL):
            reports[strategy, "lb", i].append(_eval(
                run, tuned[strategy], eval_b[i:i + DECODE_CALL], lb, sizes, (strategy, "lb"),
                allowed_vocab=allowed, lexicon=allowed - {EOS_ID}))

    def probe():
        # fine-tuning probes too, so that the fine-tuning rates have samples
        # spread over the run and not only from one fine-tuning call each
        _probe(run, model, data, sizes, BASE_SEED, ("stages", "finetune"), reports)

    for _ in range(_rounds(seconds, sizes.transfer_round_s)):
        with run.timed_part():
            base = load_checkpoint(ckpt)
        for strategy in ("all", "et"):
            with run.timed_part():
                tuned[strategy] = _finetune(run, base, train_a, strategy, optcfg, sizes,
                                            seed, sizes.loss_window)
                decode(strategy)
            probe()
        # repeats for the fastest-call timing, after both fine-tunings
        with run.timed_part():
            for _ in range(sizes.decode_repeats - 1):
                for strategy in ("all", "et"):
                    decode(strategy)
        probe()
    run.stop_tracing()
    _check_repeats(run, reports)
    for (strategy, lang, i), same in reports.items():
        if lang == "lb":
            run.problems += checks.check_membership_identity(
                same[0], f"zero-shot decode after {strategy}, examples {i}+")


def _write_jsonl(path, records) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec, separators=(",", ":")) + "\n")


def _read_jsonl(path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _cli(run: Run, argv: list[str], n_ops: int) -> bool:
    """One in-process `crossgen` command; its rows count as failed if it fails."""
    from crossgen.cli import main as cli_main

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        code = cli_main(argv)
    run.attempted += 1 + n_ops
    run.counts["cli"] += 1
    if code != 0:
        run.failed += 1 + n_ops
        run.problems.append(f"crossgen {argv[0]} exited {code}: {out.getvalue().strip()}")
    return code == 0


def translate(run: Run, seed: int, seconds: int, sizes: Sizes, workdir: str) -> None:
    from crossgen.model import load_checkpoint, save_checkpoint
    from crossgen.vocab import BOS_ID, EOS_ID, SEP_ID

    la, lb = _languages()
    ckpt = os.path.join(workdir, "start.ckpt")
    path = {}
    with run.phase("bench.setup"):
        data = _build_data(sizes, BASE_SEED, reorder=2, bias=0.5, n_train=sizes.task_train,
                           n_eval=sizes.task_eval, n_probe=sizes.translate_pool)
        twin = data.twin
        model = _new_model(sizes, len(twin.vocab), BASE_SEED)
        stages = _pretrain_stages(run, model, data, sizes, BASE_SEED, sizes.setup_steps,
                                  sizes.setup_steps, sizes.setup_lr)
        save_checkpoint(model, ckpt)
        rng = np.random.default_rng(seed)
        held_out = {lang.name: _pick(data.probe_sentences[lang.name],
                                     sizes.translate_sentences, rng) for lang in (la, lb)}
        rows, refs = {}, {}
        for tgt in (la, lb):
            rows[tgt.name], refs[tgt.name] = [], []
            for src in (la, lb):
                for sent in held_out[src.name]:
                    rows[tgt.name].append({"input": sent, "src_lang": src.name,
                                           "tgt_lang": tgt.name})
                    refs[tgt.name].append(sent if src == tgt else
                                          twin.translate(sent) if tgt == lb
                                          else twin.translate_back(sent))
            for kind, records in (
                    ("manifest", rows[tgt.name]),
                    ("refs", ({"input": r["input"] + [SEP_ID], "target": ref,
                               "lang": tgt.name}
                              for r, ref in zip(rows[tgt.name], refs[tgt.name]))),
                    ("lexicon", ({"lang": tgt.name, "ids": ref} for ref in refs[tgt.name]))):
                path[kind, tgt.name] = os.path.join(workdir, f"{kind}_{tgt.name}.jsonl")
                _write_jsonl(path[kind, tgt.name], records)
    run.setup_done()
    _check_stages(run, stages, sizes.loss_window)

    jobs = [(tgt.name, restricted) for tgt in (la, lb) for restricted in (False, True)]
    out = {job: os.path.join(workdir, f"out_{job[0]}_{'restricted' if job[1] else 'full'}")
           for job in jobs}
    decode = ["--beam", str(sizes.beam), "--max-len", str(sizes.translate_max_len), "--force"]
    rounds = []
    # the first probe measures every rate, later ones alternate, so that more
    # rounds of decoding fit in the run
    kinds = itertools.chain([("stages", "finetune")],
                            itertools.cycle([("finetune",), ("stages",)]))
    for _ in range(_rounds(seconds, sizes.translate_round_s)):
        with run.timed_part():
            for job in jobs:
                tgt, restricted = job
                argv = ["generate", "--ckpt", ckpt, "--manifest", path["manifest", tgt],
                        "--out", out[job] + ".jsonl", *decode]
                if restricted:
                    argv += ["--restrict", path["lexicon", tgt]]
                with run.timed("decode", job, len(rows[tgt])):
                    _cli(run, argv, len(rows[tgt]))
                run.counts["decoded"] += len(rows[tgt])
            for job in jobs:
                _cli(run, ["evaluate", "--outputs", out[job] + ".jsonl",
                           "--refs", path["refs", job[0]],
                           "--report", out[job] + ".report.json",
                           "--lexicon", path["lexicon", job[0]], "--force"], 0)
        # a few kB of outputs, kept to check that every round decoded the same
        rounds.append([_read_jsonl(out[job] + ".jsonl") for job in jobs])
        _probe(run, model, data, sizes, seed, next(kinds), {})
    first_outputs = rounds[0]
    if any(r != first_outputs for r in rounds):
        run.problems.append("generate: rounds decoded different outputs")
    run.counts["output_tokens"] = sum(len(d["output"]) for r in rounds for decoded in r
                                      for d in decoded)
    run.stop_tracing()

    decoder = load_checkpoint(ckpt)
    tag = {la.name: la.id, lb.name: lb.id}
    for job, decoded in zip(jobs, first_outputs):
        tgt, restricted = job
        what = f"generate to {tgt} ({'restricted' if restricted else 'full'} vocabulary)"
        hyps = [d["output"] for d in decoded]
        run.problems += checks.check_lengths(hyps, sizes.translate_max_len, what)
        if restricted:
            allowed = {t for ref in refs[tgt] for t in ref}
            run.problems += checks.check_tokens_in(hyps, allowed, what)
        recomputed = [checks.score_of(decoder, r["input"], tag[r["src_lang"]], tag[tgt], h,
                                      sizes.translate_max_len, BOS_ID, EOS_ID)
                      for r, h in zip(rows[tgt], hyps)]
        run.problems += checks.check_scores([d["score"] for d in decoded], recomputed,
                                            [len(h) + 1 for h in hyps], what)
        with open(out[job] + ".report.json", encoding="utf-8") as fh:
            report = json.load(fh)
        run.problems += checks.check_report_metrics(report, hyps, refs[tgt], what)


RUNNERS = {"pretrain": pretrain, "transfer": transfer, "translate": translate}


def end_to_end_metrics(run: Run) -> dict[str, tuple[float, str]]:
    return {
        "setup_s": (run.setup_s, "s"),
        "wall_s": (run.wall_s, "s"),
        "stage1_steps_per_s": (run.rate("stage1"), "steps/s"),
        "stage2_steps_per_s": (run.rate("stage2"), "steps/s"),
        "finetune_all_steps_per_s": (run.rate("finetune_all"), "steps/s"),
        "finetune_et_steps_per_s": (run.rate("finetune_et"), "steps/s"),
        "decode_examples_per_s": (run.rate("decode"), "examples/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
