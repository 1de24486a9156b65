"""Cross-lingual seq2seq pre-training and zero-shot generation on synthetic
twin languages: masked and denoising objectives, a two-stage protocol with
parameter freezing, language-tag-controlled beam decoding, and metrics."""

__version__ = "0.1.0"

from .vocab import LanguageTag, Vocab, learn_vocab
from .corpus import (MonolingualCorpus, ParallelCorpus, SynthConfig, TaskExample,
                     TwinData, generate_twin_languages, make_task_dataset)
from .noising import MaskedExample, NoiseConfig, NoisedExample, build_xmlm, mask_mlm, noise_dae
from .model import ModelConfig, ParamGroup, Seq2SeqModel, load_checkpoint, save_checkpoint
from .training import (Adam, OptimizerConfig, StagePlan, finetune, loss_dae, loss_mlm,
                       loss_task, loss_xae, loss_xmlm, lr_at, pretrain_stage1,
                       pretrain_stage2, stage1_plan, stage2_plan)
from .generation import DecodeConfig, beam_search, beam_search_many, restrict_vocab
from .evaluation import MetricReport, bleu4, evaluate_corpus, lang_membership, rouge_l, rouge_n

__all__ = [name for name in dir() if not name.startswith("_")]
