"""End-to-end experiment helpers shared by the CLI and the verification suite.

Bundles synthetic data with held-out pools, runs pre-training variants with a
shared stage-1 checkpoint, and wraps decoding-based evaluations (task metrics,
flipped-tag language membership).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .corpus import (MonolingualCorpus, SynthConfig, TaskExample, TwinData,
                     generate_twin_languages, make_task_dataset)
from .evaluation import MetricReport, evaluate_corpus, lang_membership
from .generation import DecodeConfig, beam_search_many
from .model import Seq2SeqModel
from .noising import NoiseConfig
from .training import (OptimizerConfig, TraceRow, finetune, pretrain_stage1,
                       pretrain_stage2, stage2_plan)
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
                          n_task_eval: int, n_probe: int = 50) -> ExperimentData:
    extra = n_task_train + n_task_eval + n_probe
    inflated = replace(synth_cfg, n_mono=synth_cfg.n_mono + extra)
    twin = generate_twin_languages(inflated)

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


def run_pretraining(model: Seq2SeqModel, data: ExperimentData,
                    s1_cfg: OptimizerConfig, s2_cfg: OptimizerConfig,
                    noise_cfg: NoiseConfig, batch_size: int, seed: int,
                    use_dae: bool = True, use_xae: bool = True,
                    skip_stage2: bool = False) -> list[TraceRow]:
    """Both stages in place; ablation flags only touch the stage-2 mix."""
    mono = [data.pretrain_mono[data.twin.lang_a.name],
            data.pretrain_mono[data.twin.lang_b.name]]
    trace = pretrain_stage1(model, mono, data.twin.parallel, s1_cfg, noise_cfg,
                            batch_size=batch_size, seed=seed)
    if not skip_stage2:
        plan = stage2_plan(use_dae=use_dae, use_xae=use_xae)
        trace += pretrain_stage2(model, mono, data.twin.parallel, s2_cfg, noise_cfg,
                                 batch_size=batch_size, seed=seed, plan=plan)
    return trace


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


def flipped_tag_membership(model: Seq2SeqModel, data: ExperimentData,
                           beam_size: int = 3, max_len: int = 16) -> float:
    """Decode held-out sentences with the *other* language's tag and measure
    how much of the output lands in that language's lexicon (both directions)."""
    twin = data.twin
    scores = []
    for src, tgt in ((twin.lang_a, twin.lang_b), (twin.lang_b, twin.lang_a)):
        lexicon = twin.lexicons[tgt.name]
        cfg = DecodeConfig(tgt_lang=tgt, beam_size=beam_size, max_len=max_len)
        for out, _ in beam_search_many(model, data.probe_sentences[src.name], src, cfg):
            scores.append(lang_membership(out, lexicon))
    return sum(scores) / len(scores)


def finetune_cloned(model: Seq2SeqModel, dataset, strategy: str,
                    optcfg: OptimizerConfig, batch_size: int = 16,
                    seed: int = 0) -> Seq2SeqModel:
    """Fine-tune a copy, leaving the given checkpoint untouched."""
    tuned = clone_model(model)
    finetune(tuned, dataset, strategy, optcfg, batch_size=batch_size, seed=seed)
    return tuned
