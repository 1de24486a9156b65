"""End-to-end experiment helpers shared by the CLI and the verification suite.

Bundles synthetic data with held-out pools, pre-trains stage-2 variants on
copies of one stage-1 model, and wraps decoding-based evaluations (task
metrics, the source-tag/target-tag language-membership grid).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

from .corpus import (MonolingualCorpus, SynthConfig, TaskExample, TwinData,
                     generate_twin_languages, make_task_dataset)
from .evaluation import MetricReport, evaluate_corpus, lang_membership
from .generation import DecodeConfig, beam_search_many
from .model import Seq2SeqModel
from .noising import NoiseConfig
from .training import OptimizerConfig, finetune, pretrain_stage1, pretrain_stage2
from .autodiff import Tensor


@dataclass
class ExperimentData:
    """Twin-language bundle with disjoint pre-training / task / probe pools."""

    twin: TwinData
    pretrain_mono: dict[str, MonolingualCorpus]
    task_train: dict[str, list[TaskExample]]
    task_eval: dict[str, list[TaskExample]]
    probe_sentences: dict[str, list[list[int]]]


def build_experiment_data(synth_cfg: SynthConfig, n_task_train: int,
                          n_task_eval: int, n_probe: int = 50,
                          lang_names: tuple[str, str] = ("la", "lb")) -> ExperimentData:
    extra = n_task_train + n_task_eval + n_probe
    inflated = replace(synth_cfg, n_mono=synth_cfg.n_mono + extra)
    twin = generate_twin_languages(inflated, lang_names)

    pretrain_mono, task_train, task_eval, probes = {}, {}, {}, {}
    for corpus in (twin.mono_a, twin.mono_b):
        name = corpus.lang.name
        sents = corpus.sentences
        cut1 = synth_cfg.n_mono
        cut2 = cut1 + n_task_train
        cut3 = cut2 + n_task_eval
        pretrain_mono[name] = MonolingualCorpus(corpus.lang, sents[:cut1])
        marker = twin.marker_id(corpus.lang)
        task_train[name] = make_task_dataset(
            MonolingualCorpus(corpus.lang, sents[cut1:cut2]), n_task_train,
            synth_cfg.seed, marker)
        task_eval[name] = make_task_dataset(
            MonolingualCorpus(corpus.lang, sents[cut2:cut3]), n_task_eval,
            synth_cfg.seed + 1, marker)
        probes[name] = sents[cut3:cut3 + n_probe]
    return ExperimentData(twin, pretrain_mono, task_train, task_eval, probes)


def clone_model(model: Seq2SeqModel) -> Seq2SeqModel:
    params = {n: Tensor(t.data.copy(), requires_grad=True) for n, t in model.params.items()}
    return Seq2SeqModel(model.config, params)


# stage-2 objective ablations, as pretrain_stage2 objective weights
STAGE2_VARIANTS = {"full": {}, "no_xae": {"xae_weight": 0.0}, "no_dae": {"dae_weight": 0.0}}


def pretrain_variants(model: Seq2SeqModel, data: ExperimentData, variants: Sequence[str],
                      s1_cfg: OptimizerConfig, s2_cfg: OptimizerConfig,
                      noise_cfg: NoiseConfig, seed: int, s1_batch: int = 16,
                      s2_batch: int = 16,
                      dae_weight: float = 0.5) -> dict[str, Seq2SeqModel]:
    """Stage 1 on `model` in place, then each named stage-2 variant on its own
    copy of it. Stage 1 depends only on the seed, so sharing it gives every
    variant the same parameters as a separate two-stage run."""
    mono = [data.pretrain_mono[data.twin.lang_a.name],
            data.pretrain_mono[data.twin.lang_b.name]]
    pretrain_stage1(model, mono, data.twin.parallel, s1_cfg, noise_cfg,
                    batch_size=s1_batch, seed=seed)
    models = {}
    for name in variants:
        models[name] = clone_model(model)
        pretrain_stage2(models[name], mono, data.twin.parallel, s2_cfg, noise_cfg,
                        batch_size=s2_batch, seed=seed,
                        **{"dae_weight": dae_weight, **STAGE2_VARIANTS[name]})
    return models


def eval_task(model: Seq2SeqModel, examples: list[TaskExample], tgt_lang,
              beam_size: int = 3, max_len: int = 8,
              allowed_vocab: set[int] | None = None,
              lexicon=None) -> MetricReport:
    """Decode task inputs under `tgt_lang` and score against the references."""
    cfg = DecodeConfig(tgt_lang=tgt_lang, beam_size=beam_size, max_len=max_len,
                       allowed_vocab=allowed_vocab)
    decoded = beam_search_many(model, [ex.input for ex in examples],
                               [ex.lang for ex in examples], cfg)
    hyps = [out for out, _ in decoded]
    refs = [ex.target for ex in examples]
    return evaluate_corpus(hyps, refs, lexicon=lexicon)


def membership_cells(model: Seq2SeqModel, data: ExperimentData,
                     beam_size: int = 3) -> dict[tuple[str, str], list[float]]:
    """Decode each language's held-out sentences, up to 16 tokens, under each
    language's tag. Returns the 2x2 grid keyed (source language, forced tag),
    each cell holding the per-sentence share of output tokens in the tag
    language's lexicon."""
    langs = (data.twin.lang_a, data.twin.lang_b)
    cells = {}
    for src in langs:
        for tag in langs:
            cfg = DecodeConfig(tgt_lang=tag, beam_size=beam_size, max_len=16)
            lexicon = data.twin.lexicons[tag.name]
            cells[src.name, tag.name] = [
                lang_membership(out, lexicon)
                for out, _ in beam_search_many(model, data.probe_sentences[src.name], src, cfg)]
    return cells


def finetune_cloned(model: Seq2SeqModel, dataset, strategy: str,
                    optcfg: OptimizerConfig, batch_size: int = 16,
                    seed: int = 0) -> Seq2SeqModel:
    """Fine-tune a copy, leaving the given checkpoint untouched."""
    tuned = clone_model(model)
    finetune(tuned, dataset, strategy, optcfg, batch_size=batch_size, seed=seed)
    return tuned
