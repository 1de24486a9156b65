import numpy as np

from crossgen.corpus import SynthConfig
from crossgen.evaluation import lang_membership
from crossgen.experiments import (STAGE2_VARIANTS, build_experiment_data,
                                  membership_cells, pretrain_variants)
from crossgen.generation import DecodeConfig, beam_search
from crossgen.model import ModelConfig, Seq2SeqModel
from crossgen.noising import NoiseConfig
from crossgen.training import OptimizerConfig, pretrain_stage1, pretrain_stage2


def tiny_data():
    synth = SynthConfig(vocab_size_per_lang=10, sentence_len_range=(4, 7), n_mono=40,
                        n_parallel=30, reorder_window=2, seed=17)
    return build_experiment_data(synth, n_task_train=4, n_task_eval=4, n_probe=5)


def tiny_model(vocab_size):
    cfg = ModelConfig(enc_layers=1, dec_layers=1, d_model=16, n_heads=2, d_ffn=32,
                      max_positions=32, vocab_size=vocab_size, num_languages=2,
                      dtype="float64")
    return Seq2SeqModel.build(cfg, seed=7)


def assert_same_params(a, b):
    assert a.params.keys() == b.params.keys()
    for name in a.params:
        assert np.array_equal(a.params[name].data, b.params[name].data), name


def test_shared_stage1_equals_separate_runs():
    data = tiny_data()
    s1 = OptimizerConfig(base_lr=1e-3, warmup_steps=2, total_steps=8)
    s2 = OptimizerConfig(base_lr=1e-3, warmup_steps=2, total_steps=6)
    stage1 = tiny_model(len(data.twin.vocab))
    shared = pretrain_variants(stage1, data, tuple(STAGE2_VARIANTS), s1, s2, NoiseConfig(),
                               seed=4, s1_batch=4, s2_batch=3, dae_weight=0.7)
    assert list(shared) == ["full", "no_xae", "no_dae"]

    mono = [data.pretrain_mono["la"], data.pretrain_mono["lb"]]
    for name, weights in STAGE2_VARIANTS.items():
        model = tiny_model(len(data.twin.vocab))
        pretrain_stage1(model, mono, data.twin.parallel, s1, NoiseConfig(),
                        batch_size=4, seed=4)
        assert_same_params(model, stage1)
        pretrain_stage2(model, mono, data.twin.parallel, s2, NoiseConfig(), batch_size=3,
                        seed=4, **{"dae_weight": 0.7, **weights})
        assert_same_params(model, shared[name])


def test_membership_cells_match_per_example_beam_search():
    data = tiny_data()
    model = tiny_model(len(data.twin.vocab))
    cells = membership_cells(model, data, beam_size=2)
    langs = (data.twin.lang_a, data.twin.lang_b)
    assert set(cells) == {(s.name, t.name) for s in langs for t in langs}
    for src in langs:
        for tag in langs:
            cfg = DecodeConfig(tgt_lang=tag, beam_size=2, max_len=16)
            ref = [lang_membership(beam_search(model, s, src, cfg)[0],
                                   data.twin.lexicons[tag.name])
                   for s in data.probe_sentences[src.name]]
            assert cells[src.name, tag.name] == ref
