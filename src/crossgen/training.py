"""Objectives, optimizer, the two-stage pre-training protocol, and fine-tuning.

Losses are per-example sums of negative log-likelihoods (masked positions for
the encoder objectives, target tokens plus EOS for the decoder objectives),
averaged over the batch. Stage 1, stage 2 and fine-tuning are plans for one
step loop: a plan names the trainable parameter groups and a weighted mix of
objectives, which take turns step by step. Each entry point builds its own
plan. Stage 1 trains the encoding side on MLM + XMLM; stage 2 trains the
decoder on DAE + XAE, whose weights are the only setting (0 drops one);
fine-tuning takes one of the freeze strategies. Freezing is enforced by
handing the optimizer only the trainable groups. A non-finite loss stops the
run, and so do non-finite parameters where a checkpoint is due.
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .corpus import MonolingualCorpus, ParallelCorpus, TaskExample
from .fileio import atomic_write
from .model import ParamGroup, Seq2SeqModel, pad_batch, save_checkpoint
from .noising import MaskedExample, NoiseConfig, NoisedExample, build_xmlm, mask_mlm, noise_dae
from .seeding import named_rng
from .vocab import BOS_ID, EOS_ID, LanguageTag


@dataclass
class OptimizerConfig:
    base_lr: float = 1e-4
    warmup_steps: int = 400
    total_steps: int = 2000
    betas: tuple[float, float] = (0.9, 0.999)
    eps: float = 1e-8

    def __post_init__(self):
        if not 0 <= self.warmup_steps < self.total_steps:
            raise ValueError("need 0 <= warmup_steps < total_steps")


def lr_at(step: int, cfg: OptimizerConfig) -> float:
    """Linear warm-up to base_lr, then linear decay to zero at total_steps."""
    if not 0 <= step <= cfg.total_steps:
        raise ValueError(f"step {step} outside [0, {cfg.total_steps}]")
    if cfg.warmup_steps > 0 and step <= cfg.warmup_steps:
        return cfg.base_lr * step / cfg.warmup_steps
    return cfg.base_lr * (cfg.total_steps - step) / (cfg.total_steps - cfg.warmup_steps)


class Adam:
    """Bias-corrected Adam over an explicit set of trainable parameters.

    Parameters not handed to the constructor are frozen by construction: they
    are never touched, whatever gradients the backward pass computed for them.
    """

    def __init__(self, params: dict[str, Tensor], cfg: OptimizerConfig):
        self.params = dict(params)
        self.cfg = cfg
        self.step_count = 0
        self.m = {n: np.zeros_like(t.data) for n, t in self.params.items()}
        self.v = {n: np.zeros_like(t.data) for n, t in self.params.items()}

    def step(self) -> float:
        """Apply one update from the accumulated gradients; returns the lr used."""
        self.step_count += 1
        lr = lr_at(min(self.step_count, self.cfg.total_steps), self.cfg)
        b1, b2 = self.cfg.betas
        for name, p in self.params.items():
            g = p.grad
            if g is None:
                continue
            self.m[name] = b1 * self.m[name] + (1 - b1) * g
            self.v[name] = b2 * self.v[name] + (1 - b2) * (g * g)
            mhat = self.m[name] / (1 - b1 ** self.step_count)
            vhat = self.v[name] / (1 - b2 ** self.step_count)
            p.data = p.data - lr * mhat / (np.sqrt(vhat) + self.cfg.eps)
        return lr


# ---------------------------------------------------------------------------
# loss functions

def _mean_scored_nll(logits: Tensor, targets: np.ndarray, weights: np.ndarray) -> Tensor:
    """Mean over batch of per-example sums of -log p(target) at weighted positions."""
    logp = ad.log_softmax(logits)
    picked = ad.gather_last(logp, targets)
    total = ad.tsum(ad.mul(picked, weights.astype(logits.dtype)))
    return ad.mul(total, -1.0 / logits.shape[0])


def loss_mlm(model: Seq2SeqModel, examples: Sequence[MaskedExample]) -> Tensor:
    """Masked-token NLL over the encoder, scored at masked positions only."""
    for ex in examples:
        if not ex.mask_positions:
            raise ValueError("masked example has an empty mask set")
    ids, pad = pad_batch([ex.corrupted for ex in examples])
    tags, _ = pad_batch([ex.lang_tags for ex in examples], 0)
    targets = np.zeros_like(ids)
    weights = np.zeros(ids.shape, dtype=np.float64)
    for b, ex in enumerate(examples):
        for pos, tgt in zip(ex.mask_positions, ex.targets):
            targets[b, pos] = tgt
            weights[b, pos] = 1.0
    states = model.encode(ids, tags, pad_mask=pad)
    logits = model.output_logits(states)
    return _mean_scored_nll(logits, targets, weights)


def loss_xmlm(model: Seq2SeqModel, examples: Sequence[MaskedExample]) -> Tensor:
    """Bilingual masked-token NLL; both sides of every example must carry masks."""
    for ex in examples:
        if ex.boundary is None:
            raise ValueError("xmlm loss expects bilingual examples with a [S] boundary")
        if not any(p < ex.boundary for p in ex.mask_positions) or \
           not any(p > ex.boundary for p in ex.mask_positions):
            raise ValueError("both sides of a bilingual example must have masked positions")
    return loss_mlm(model, examples)


def _teacher_forced_nll(model: Seq2SeqModel, sources: Sequence[Sequence[int]],
                        src_lang_ids: Sequence[int], targets: Sequence[Sequence[int]],
                        tgt_lang_ids: Sequence[int]) -> Tensor:
    """Autoregressive NLL of targets (plus EOS) given encoded sources; one
    source and one target language id per example."""
    src_ids, src_pad = pad_batch(sources)
    src_tags = np.broadcast_to(np.asarray(src_lang_ids, dtype=np.int64)[:, None], src_ids.shape)
    enc = model.encode(src_ids, src_tags, pad_mask=src_pad)

    dec_inputs = [[BOS_ID] + list(t) for t in targets]
    scored = [list(t) + [EOS_ID] for t in targets]
    dec_ids, _ = pad_batch(dec_inputs)
    tgt_arr, tgt_pad = pad_batch(scored, 0)
    weights = (~tgt_pad).astype(np.float64)
    logits = model.decode_forward(enc, src_pad, dec_ids, np.asarray(tgt_lang_ids))
    return _mean_scored_nll(logits, tgt_arr, weights)


def loss_dae(model: Seq2SeqModel, examples: Sequence[NoisedExample]) -> Tensor:
    """Reconstruction NLL of the pristine sentence given its noised version."""
    return _teacher_forced_nll(
        model,
        sources=[ex.source for ex in examples],
        src_lang_ids=[ex.src_lang.id for ex in examples],
        targets=[ex.target for ex in examples],
        tgt_lang_ids=[ex.tgt_lang.id for ex in examples],
    )


def loss_xae(model: Seq2SeqModel, pairs: Sequence[tuple[Sequence[int], Sequence[int]]],
             src_lang: LanguageTag, tgt_lang: LanguageTag) -> Tensor:
    """Both translation directions of each pair, with the matching language tags."""
    xs = [list(x) for x, _ in pairs]
    ys = [list(y) for _, y in pairs]
    n = len(pairs)
    fwd = _teacher_forced_nll(model, xs, [src_lang.id] * n, ys, [tgt_lang.id] * n)
    bwd = _teacher_forced_nll(model, ys, [tgt_lang.id] * n, xs, [src_lang.id] * n)
    return ad.add(fwd, bwd)


def loss_task(model: Seq2SeqModel, examples: Sequence[TaskExample]) -> Tensor:
    """Supervised seq2seq loss on downstream task examples."""
    return _teacher_forced_nll(
        model,
        sources=[ex.input for ex in examples],
        src_lang_ids=[ex.lang.id for ex in examples],
        targets=[ex.target for ex in examples],
        tgt_lang_ids=[ex.lang.id for ex in examples],
    )


# ---------------------------------------------------------------------------
# stage plans and loops

STAGE1_GROUPS = frozenset({
    ParamGroup.ENCODER_LAYERS, ParamGroup.WORD_EMBEDDINGS,
    ParamGroup.TAG_AND_POSITION_EMBEDDINGS, ParamGroup.OUTPUT_HEAD,
})
STAGE2_GROUPS = frozenset({ParamGroup.DECODER_LAYERS})

FINETUNE_STRATEGIES: dict[str, frozenset[ParamGroup]] = {
    "all": frozenset(ParamGroup),
    "enc": frozenset({ParamGroup.ENCODER_LAYERS, ParamGroup.WORD_EMBEDDINGS,
                      ParamGroup.TAG_AND_POSITION_EMBEDDINGS}),
    "et": frozenset({ParamGroup.ENCODER_LAYERS}),
    "dec": frozenset({ParamGroup.DECODER_LAYERS, ParamGroup.OUTPUT_HEAD}),
}


@dataclass
class StagePlan:
    """One training run: the parameter groups it updates and its objective mix.

    `stream` names the run's RNG stream; joined with "_" it prefixes the run's
    periodic checkpoint files. Objectives with positive weight take turns, one
    per step, in the order given.
    """

    stream: tuple[str, ...]
    trainable_groups: frozenset[ParamGroup]
    objective_weights: dict[str, float]

    def __post_init__(self):
        if not self.objectives:
            raise ValueError("a plan needs at least one active objective")

    @property
    def objectives(self) -> list[str]:
        return [name for name, w in self.objective_weights.items() if w > 0.0]


def stage1_plan() -> StagePlan:
    return StagePlan(("stage1",), STAGE1_GROUPS, {"mlm": 1.0, "xmlm": 1.0})


def stage2_plan(dae_weight: float = 0.5, xae_weight: float = 1.0) -> StagePlan:
    """The decoder learns from DAE and XAE; a weight of 0 leaves that objective out."""
    return StagePlan(("stage2",), STAGE2_GROUPS, {"dae": dae_weight, "xae": xae_weight})


def finetune_plan(strategy: str) -> StagePlan:
    key = strategy.lower()
    if key not in FINETUNE_STRATEGIES:
        raise ValueError(f"unknown fine-tuning strategy {strategy!r}; "
                         f"expected one of {sorted(FINETUNE_STRATEGIES)}")
    return StagePlan(("finetune", key), FINETUNE_STRATEGIES[key], {"task": 1.0})


@dataclass
class TraceRow:
    step: int
    objective: str
    loss: float
    lr: float


def save_trace_csv(trace: Sequence[TraceRow], path) -> None:
    with atomic_write(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", "objective", "loss", "lr"])
        for row in trace:
            writer.writerow([row.step, row.objective, repr(row.loss), repr(row.lr)])


def _draw(items: Sequence, rng: np.random.Generator, n: int) -> list:
    return [items[int(i)] for i in rng.integers(0, len(items), size=n)]


def _train(model: Seq2SeqModel, plan: StagePlan, optcfg: OptimizerConfig,
           objectives: dict, seed: int, checkpoint_every: int,
           checkpoint_dir) -> list[TraceRow]:
    """The one step loop. `objectives` maps each objective a run can train to a
    function of the run's RNG that draws a batch and returns its loss."""
    label = "_".join(plan.stream)
    rng = named_rng(seed, *plan.stream)
    opt = Adam(model.tensors(plan.trainable_groups), optcfg)
    trace: list[TraceRow] = []
    for step in range(1, optcfg.total_steps + 1):
        objective = plan.objectives[(step - 1) % len(plan.objectives)]
        loss = objectives[objective](rng)
        weight = plan.objective_weights[objective]
        if weight != 1.0:
            loss = ad.mul(loss, weight)
        value = loss.item()
        if not np.isfinite(value):
            raise FloatingPointError(f"{label}: non-finite loss {value} at step "
                                     f"{step} (objective {objective})")
        ad.zero_grads(model.params.values())
        loss.backward()
        lr = opt.step()
        trace.append(TraceRow(step, objective, value, lr))
        if checkpoint_every > 0 and checkpoint_dir is not None \
                and step % checkpoint_every == 0:
            bad = [n for n, p in opt.params.items() if not np.isfinite(p.data).all()]
            if bad:
                raise FloatingPointError(f"{label}: non-finite parameters {bad[0]!r} "
                                         f"after step {step} (objective {objective})")
            save_checkpoint(model, os.path.join(checkpoint_dir, f"{label}_step{step:06d}.ckpt"))
    return trace


def _pretrain(model: Seq2SeqModel, plan: StagePlan,
              mono: Sequence[MonolingualCorpus], parallel: ParallelCorpus,
              optcfg: OptimizerConfig, noise: NoiseConfig, batch_size: int,
              seed: int, checkpoint_every: int, checkpoint_dir) -> list[TraceRow]:
    pool = [(s, c.lang) for c in mono for s in c.sentences]
    pairs, la, lb = parallel.pairs, parallel.src_lang, parallel.tgt_lang
    vocab = model.config.vocab_size
    # batch indices are drawn first, then each example's noise in turn
    objectives = {
        "mlm": lambda rng: loss_mlm(model, [mask_mlm(s, lang, noise, rng, vocab)
                                           for s, lang in _draw(pool, rng, batch_size)]),
        "xmlm": lambda rng: loss_xmlm(model, [build_xmlm(x, y, la, lb, noise, rng, vocab)
                                             for x, y in _draw(pairs, rng, batch_size)]),
        "dae": lambda rng: loss_dae(model, [noise_dae(s, lang, noise, rng)
                                           for s, lang in _draw(pool, rng, batch_size)]),
        "xae": lambda rng: loss_xae(model, _draw(pairs, rng, batch_size), la, lb),
    }
    return _train(model, plan, optcfg, objectives, seed, checkpoint_every, checkpoint_dir)


def pretrain_stage1(model: Seq2SeqModel, mono: Sequence[MonolingualCorpus],
                    parallel: ParallelCorpus, optcfg: OptimizerConfig,
                    noise_cfg: NoiseConfig, batch_size: int = 16, seed: int = 0,
                    checkpoint_every: int = 0, checkpoint_dir=None) -> list[TraceRow]:
    """Stage one: train the encoding components with masked-token objectives."""
    return _pretrain(model, stage1_plan(), mono, parallel, optcfg, noise_cfg,
                     batch_size, seed, checkpoint_every, checkpoint_dir)


def pretrain_stage2(model: Seq2SeqModel, mono: Sequence[MonolingualCorpus],
                    parallel: ParallelCorpus, optcfg: OptimizerConfig,
                    noise_cfg: NoiseConfig, batch_size: int = 16, seed: int = 0,
                    dae_weight: float = 0.5, xae_weight: float = 1.0,
                    checkpoint_every: int = 0, checkpoint_dir=None) -> list[TraceRow]:
    """Stage two: train the decoder on denoising plus translation, encoder fixed.
    A weight of 0 leaves that objective out."""
    return _pretrain(model, stage2_plan(dae_weight, xae_weight), mono, parallel, optcfg,
                     noise_cfg, batch_size, seed, checkpoint_every, checkpoint_dir)


def finetune(model: Seq2SeqModel, dataset: Sequence[TaskExample], strategy: str,
             optcfg: OptimizerConfig, batch_size: int = 16, seed: int = 0,
             checkpoint_every: int = 0, checkpoint_dir=None) -> list[TraceRow]:
    """Supervised fine-tuning under one of the freeze strategies (all/enc/dec/et)."""
    plan = finetune_plan(strategy)
    if not dataset:
        raise ValueError("fine-tuning dataset is empty")
    n = min(batch_size, len(dataset))
    objectives = {"task": lambda rng: loss_task(model, _draw(dataset, rng, n))}
    return _train(model, plan, optcfg, objectives, seed, checkpoint_every, checkpoint_dir)
