import math

import numpy as np
import pytest

from oracles import finite_diff_max_rel_err

from crossgen.autodiff import Tensor
from crossgen.corpus import SynthConfig, generate_twin_languages, make_task_dataset
from crossgen.model import ModelConfig, ParamGroup, Seq2SeqModel
from crossgen.noising import MaskedExample, NoiseConfig, NoisedExample, build_xmlm, mask_mlm
from crossgen.seeding import named_rng
from crossgen.training import (Adam, FINETUNE_STRATEGIES, OptimizerConfig,
                               _mean_scored_nll, finetune, loss_dae, loss_mlm,
                               loss_xae, loss_xmlm, lr_at, pretrain_stage1,
                               pretrain_stage2, stage1_plan, stage2_plan)
from crossgen.vocab import NUM_SPECIALS, LanguageTag

V = 23
LA = LanguageTag(0, "la")
LB = LanguageTag(1, "lb")


def uniform_model(vocab_size=8, dtype="float64"):
    """Zeroed token embeddings and head bias force exactly uniform logits."""
    cfg = ModelConfig(enc_layers=1, dec_layers=1, d_model=8, n_heads=2, d_ffn=16,
                      max_positions=32, vocab_size=vocab_size, num_languages=2,
                      dtype=dtype)
    model = Seq2SeqModel.build(cfg, seed=3)
    model.params["tok_emb"].data[:] = 0.0
    model.params["out_bias"].data[:] = 0.0
    return model


def masked(corrupted, positions, targets, lang=LA, boundary=None):
    return MaskedExample(list(corrupted), list(positions), list(targets),
                         [lang.id] * len(corrupted), boundary=boundary)


# ---------------------------------------------------------------------------
# analytic loss values

def test_uniform_mlm_loss_is_count_times_log_vocab():
    model = uniform_model(vocab_size=8)
    ex = masked([6, 7, 6, 7, 6], [1, 3], [7, 7])
    loss = loss_mlm(model, [ex])
    assert abs(loss.item() - 2 * math.log(8)) < 1e-6


def test_uniform_dae_loss_scores_targets_plus_eos():
    model = uniform_model(vocab_size=11)
    ex = NoisedExample(source=[6, 7], target=[6, 7, 8, 9], src_lang=LA, tgt_lang=LA)
    loss = loss_dae(model, [ex])
    assert abs(loss.item() - 5 * math.log(11)) < 1e-6


def test_uniform_xmlm_loss_counts_both_sides():
    model = uniform_model(vocab_size=9)
    # |M_x| = 2, |M_y| = 1 (the minimal right side)
    ex = masked([6, 0, 7, 0, 2, 8, 0], [1, 3, 5], [7, 8, 6], boundary=4)
    ex.lang_tags = [0, 0, 0, 0, 0, 1, 1]
    loss = loss_xmlm(model, [ex])
    assert abs(loss.item() - 3 * math.log(9)) < 1e-6


def test_uniform_xae_loss_scores_both_directions():
    model = uniform_model(vocab_size=13)
    x, y = [6, 7, 8], [9, 10]
    loss = loss_xae(model, [(x, y)], LA, LB)
    expected = (len(y) + 1 + len(x) + 1) * math.log(13)
    assert abs(loss.item() - expected) < 1e-6


def test_nll_matches_hand_computed_cross_entropy():
    # two-token vocabulary, fixed logits; manual softmax arithmetic
    logits = Tensor(np.array([[[2.0, -1.0], [0.5, 0.5]]]), requires_grad=True)
    targets = np.array([[0, 1]])
    weights = np.ones((1, 2))
    loss = _mean_scored_nll(logits, targets, weights)
    expected = -(math.log(math.exp(2.0) / (math.exp(2.0) + math.exp(-1.0)))
                 + math.log(0.5))
    assert abs(loss.item() - expected) < 1e-9


def test_nll_limit_case_confident_model():
    logits = Tensor(np.array([[[60.0, 0.0]]]), requires_grad=True)
    loss = _mean_scored_nll(logits, np.array([[0]]), np.ones((1, 1)))
    assert loss.item() < 1e-9


def test_losses_are_nonnegative_and_batch_averaged():
    model = uniform_model(vocab_size=8)
    ex = masked([6, 7], [0], [6])
    single = loss_mlm(model, [ex]).item()
    double = loss_mlm(model, [ex, ex]).item()
    assert single >= 0
    assert abs(single - double) < 1e-12  # mean over batch, not sum


def test_loss_mlm_rejects_empty_mask():
    model = uniform_model()
    with pytest.raises(ValueError, match="empty mask"):
        loss_mlm(model, [masked([6, 7], [], [])])


def test_loss_xmlm_requires_masks_on_both_sides():
    model = uniform_model(vocab_size=9)
    one_sided = masked([0, 2, 8], [0], [6], boundary=1)
    with pytest.raises(ValueError, match="both sides"):
        loss_xmlm(model, [one_sided])
    no_boundary = masked([0, 8], [0], [6])
    with pytest.raises(ValueError, match="boundary"):
        loss_xmlm(model, [no_boundary])


def test_dae_zero_noise_reduces_to_autoencoding(verify_model):
    rng = named_rng(5, "zero-noise")
    x = [int(t) for t in rng.integers(NUM_SPECIALS, V, size=7)]
    from crossgen.noising import noise_dae
    ex = noise_dae(x, LA, NoiseConfig(shuffle_window=1, p_drop=0.0, p_pad=0.0), rng)
    assert ex.source == ex.target == x
    direct = loss_dae(verify_model, [NoisedExample(x, x, LA, LA)])
    via_noise = loss_dae(verify_model, [ex])
    assert abs(direct.item() - via_noise.item()) < 1e-12


def test_xae_is_symmetric_under_pair_swap(verify_model, rng):
    x = [int(t) for t in rng.integers(NUM_SPECIALS, V, size=5)]
    y = [int(t) for t in rng.integers(NUM_SPECIALS, V, size=6)]
    a = loss_xae(verify_model, [(x, y)], LA, LB).item()
    b = loss_xae(verify_model, [(y, x)], LB, LA).item()
    assert abs(a - b) < 1e-12


# ---------------------------------------------------------------------------
# gradient verification of every objective (float64 2+2 config)

def test_all_four_losses_pass_gradient_checks(verify_model, rng):
    ncfg = NoiseConfig()
    data_rng = named_rng(21, "gradcheck")
    x = [int(t) for t in data_rng.integers(NUM_SPECIALS, V, size=8)]
    y = [int(t) for t in data_rng.integers(NUM_SPECIALS, V, size=6)]
    mlm_ex = mask_mlm(x, LA, ncfg, data_rng, V)
    xmlm_ex = build_xmlm(x, y, LA, LB, ncfg, data_rng, V)
    from crossgen.noising import noise_dae
    dae_ex = noise_dae(x, LA, ncfg, data_rng)

    cases = {
        "mlm": lambda: loss_mlm(verify_model, [mlm_ex]),
        "dae": lambda: loss_dae(verify_model, [dae_ex]),
        "xmlm": lambda: loss_xmlm(verify_model, [xmlm_ex]),
        "xae": lambda: loss_xae(verify_model, [(x, y)], LA, LB),
    }
    for name, fn in cases.items():
        err = finite_diff_max_rel_err(fn, verify_model.params, rng,
                                      samples_per_tensor=6, h=1e-5)
        assert err <= 1e-4, f"{name}: max rel err {err}"


# ---------------------------------------------------------------------------
# schedule and optimizer

def test_lr_schedule_shape():
    cfg = OptimizerConfig(base_lr=1e-4, warmup_steps=4000, total_steps=23000)
    assert lr_at(0, cfg) == 0.0
    assert lr_at(4000, cfg) == pytest.approx(1e-4)
    assert lr_at(2000, cfg) == pytest.approx(5e-5)
    assert lr_at(23000, cfg) == 0.0
    mid = (23000 + 4000) // 2
    assert lr_at(mid, cfg) == pytest.approx(1e-4 * (23000 - mid) / (23000 - 4000))
    with pytest.raises(ValueError):
        lr_at(23001, cfg)
    with pytest.raises(ValueError):
        OptimizerConfig(warmup_steps=10, total_steps=10)


def test_default_learning_rates_match_reference_settings():
    from crossgen.config import DEFAULT_CONFIG
    assert OptimizerConfig().base_lr == pytest.approx(1e-4)
    assert DEFAULT_CONFIG["stage1"]["lr"] == pytest.approx(1e-4)
    assert DEFAULT_CONFIG["stage2"]["lr"] == pytest.approx(1e-4)
    assert DEFAULT_CONFIG["finetune"]["lr"] == pytest.approx(5e-6)


def test_adam_zero_gradient_leaves_params_unchanged():
    p = Tensor(np.array([1.5, -2.0]), requires_grad=True)
    opt = Adam({"p": p}, OptimizerConfig(base_lr=0.1, warmup_steps=1, total_steps=10))
    p.grad = np.zeros(2)
    opt.step()
    np.testing.assert_array_equal(p.data, np.array([1.5, -2.0]))


def test_adam_single_scalar_matches_hand_arithmetic():
    cfg = OptimizerConfig(base_lr=0.1, warmup_steps=1, total_steps=10,
                          betas=(0.9, 0.999), eps=1e-8)
    p = Tensor(np.array([2.0]), requires_grad=True)
    opt = Adam({"p": p}, cfg)
    p.grad = np.array([0.5])
    opt.step()
    # by hand: m = 0.05, v = 0.00025; mhat = 0.5, vhat = 0.25
    # lr(1) = 0.1; update = 0.1 * 0.5 / (0.5 + 1e-8)
    expected = 2.0 - 0.1 * 0.5 / (math.sqrt(0.25) + 1e-8)
    assert abs(p.data[0] - expected) < 1e-12


def test_adam_only_touches_registered_params(verify_model, rng):
    frozen_before = verify_model.group_digest(ParamGroup.DECODER_LAYERS)
    trainable = verify_model.tensors({ParamGroup.ENCODER_LAYERS})
    opt = Adam(trainable, OptimizerConfig(base_lr=0.01, warmup_steps=1, total_steps=5))
    for t in verify_model.params.values():
        t.grad = rng.standard_normal(t.data.shape)
    opt.step()
    assert verify_model.group_digest(ParamGroup.DECODER_LAYERS) == frozen_before
    assert verify_model.group_digest(ParamGroup.ENCODER_LAYERS) != frozen_before


# ---------------------------------------------------------------------------
# stage plans and training loops (tiny seeded runs)

def tiny_data():
    cfg = SynthConfig(vocab_size_per_lang=10, sentence_len_range=(4, 7), n_mono=40,
                      n_parallel=30, reorder_window=2, seed=17)
    return generate_twin_languages(cfg)


def tiny_model(vocab_size, dtype="float32"):
    cfg = ModelConfig(enc_layers=1, dec_layers=1, d_model=16, n_heads=2, d_ffn=32,
                      max_positions=32, vocab_size=vocab_size, num_languages=2,
                      dtype=dtype)
    return Seq2SeqModel.build(cfg, seed=7)


def test_stage_plan_invariants():
    plan = stage1_plan()
    assert ParamGroup.DECODER_LAYERS not in plan.trainable_groups
    assert plan.objectives == ["mlm", "xmlm"]
    plan2 = stage2_plan()
    assert plan2.trainable_groups == frozenset({ParamGroup.DECODER_LAYERS})
    assert plan2.objective_weights["dae"] == 0.5
    with pytest.raises(ValueError, match="at least one"):
        stage2_plan(dae_weight=0.0, xae_weight=0.0)


def test_stage1_freezes_decoder_and_reduces_loss():
    data = tiny_data()
    model = tiny_model(len(data.vocab))
    dec_before = model.group_digest(ParamGroup.DECODER_LAYERS)
    opt = OptimizerConfig(base_lr=3e-3, warmup_steps=5, total_steps=60)
    trace = pretrain_stage1(model, [data.mono_a, data.mono_b], data.parallel, opt,
                            NoiseConfig(), batch_size=8, seed=13)
    assert model.group_digest(ParamGroup.DECODER_LAYERS) == dec_before
    assert len(trace) == 60
    assert all(row.loss > 0 for row in trace)
    assert {row.objective for row in trace} == {"mlm", "xmlm"}
    first = np.mean([r.loss for r in trace[:10]])
    last = np.mean([r.loss for r in trace[-10:]])
    assert last < first


def test_stage2_freezes_encoder_side_and_reduces_loss():
    data = tiny_data()
    model = tiny_model(len(data.vocab))
    frozen_groups = (ParamGroup.ENCODER_LAYERS, ParamGroup.WORD_EMBEDDINGS,
                     ParamGroup.TAG_AND_POSITION_EMBEDDINGS, ParamGroup.OUTPUT_HEAD)
    before = {g: model.group_digest(g) for g in frozen_groups}
    # decoder learns through a frozen random encoder here, so give it room
    opt = OptimizerConfig(base_lr=3e-3, warmup_steps=10, total_steps=120)
    trace = pretrain_stage2(model, [data.mono_a, data.mono_b], data.parallel, opt,
                            NoiseConfig(), batch_size=8, seed=13)
    for g in frozen_groups:
        assert model.group_digest(g) == before[g]
    assert {row.objective for row in trace} == {"dae", "xae"}
    first = np.mean([r.loss for r in trace[:10]])
    last = np.mean([r.loss for r in trace[-10:]])
    assert last < first


def stage2_objectives(**weights):
    data = tiny_data()
    model = tiny_model(len(data.vocab))
    opt = OptimizerConfig(base_lr=1e-3, warmup_steps=2, total_steps=10)
    trace = pretrain_stage2(model, [data.mono_a, data.mono_b], data.parallel, opt,
                            NoiseConfig(), batch_size=4, seed=1, **weights)
    return {row.objective for row in trace}


def test_stage2_with_zero_dae_weight_is_pure_xae():
    assert stage2_objectives(dae_weight=0.0) == {"xae"}


def test_stage2_with_zero_xae_weight_is_pure_dae():
    assert stage2_objectives(xae_weight=0.0) == {"dae"}


def test_dae_weight_scales_logged_loss():
    data = tiny_data()
    opt = OptimizerConfig(base_lr=1e-9, warmup_steps=1, total_steps=2)
    m1 = tiny_model(len(data.vocab))
    t1 = pretrain_stage2(m1, [data.mono_a, data.mono_b], data.parallel, opt,
                         NoiseConfig(), batch_size=4, seed=2, dae_weight=1.0)
    m2 = tiny_model(len(data.vocab))
    t2 = pretrain_stage2(m2, [data.mono_a, data.mono_b], data.parallel, opt,
                         NoiseConfig(), batch_size=4, seed=2, dae_weight=0.5)
    dae1 = next(r.loss for r in t1 if r.objective == "dae")
    dae2 = next(r.loss for r in t2 if r.objective == "dae")
    assert dae2 == pytest.approx(0.5 * dae1, rel=1e-6)


def test_training_is_bitwise_deterministic():
    data = tiny_data()
    opt = OptimizerConfig(base_lr=1e-3, warmup_steps=2, total_steps=12)

    def run():
        model = tiny_model(len(data.vocab))
        pretrain_stage1(model, [data.mono_a, data.mono_b], data.parallel, opt,
                        NoiseConfig(), batch_size=4, seed=99)
        return {n: t.data.copy() for n, t in model.params.items()}

    p1, p2 = run(), run()
    for name in p1:
        assert np.array_equal(p1[name], p2[name]), name


def test_finetune_strategies_freeze_contracts():
    data = tiny_data()
    marker = data.marker_id(data.lang_a)
    ds = make_task_dataset(data.mono_a, 20, seed=3, marker_id=marker)
    opt = OptimizerConfig(base_lr=1e-3, warmup_steps=1, total_steps=15)

    model = tiny_model(len(data.vocab))
    frozen_et = (ParamGroup.DECODER_LAYERS, ParamGroup.WORD_EMBEDDINGS,
                 ParamGroup.TAG_AND_POSITION_EMBEDDINGS, ParamGroup.OUTPUT_HEAD)
    before = {g: model.group_digest(g) for g in frozen_et}
    trace = finetune(model, ds, "et", opt, batch_size=8, seed=5)
    for g in frozen_et:
        assert model.group_digest(g) == before[g]
    assert model.group_digest(ParamGroup.ENCODER_LAYERS) != before.get(
        ParamGroup.ENCODER_LAYERS)

    model2 = tiny_model(len(data.vocab))
    enc_before = model2.group_digest(ParamGroup.ENCODER_LAYERS)
    finetune(model2, ds, "dec", opt, batch_size=8, seed=5)
    assert model2.group_digest(ParamGroup.ENCODER_LAYERS) == enc_before

    model3 = tiny_model(len(data.vocab))
    trace_all = finetune(model3, ds, "all", opt, batch_size=8, seed=5)
    assert np.mean([r.loss for r in trace_all[-5:]]) < np.mean(
        [r.loss for r in trace_all[:5]])
    assert len(trace) == 15

    with pytest.raises(ValueError, match="strategy"):
        finetune(tiny_model(len(data.vocab)), ds, "encoder-only", opt)


def test_periodic_checkpoints_embed_stage_and_step(tmp_path):
    from crossgen.model import load_checkpoint

    data = tiny_data()
    model = tiny_model(len(data.vocab))
    opt = OptimizerConfig(base_lr=1e-3, warmup_steps=1, total_steps=10)
    pretrain_stage1(model, [data.mono_a, data.mono_b], data.parallel, opt,
                    NoiseConfig(), batch_size=4, seed=3,
                    checkpoint_every=4, checkpoint_dir=tmp_path)
    names = sorted(p.name for p in tmp_path.iterdir())
    assert names == ["stage1_step000004.ckpt", "stage1_step000008.ckpt"]
    loaded = load_checkpoint(tmp_path / names[0])
    assert loaded.config == model.config

    ds = make_task_dataset(data.mono_a, 8, seed=1, marker_id=data.marker_id(data.lang_a))
    ft_dir = tmp_path / "ft"
    ft_dir.mkdir()
    finetune(model, ds, "et", OptimizerConfig(base_lr=1e-3, warmup_steps=1,
                                              total_steps=6),
             batch_size=4, seed=3, checkpoint_every=3, checkpoint_dir=ft_dir)
    assert sorted(p.name for p in ft_dir.iterdir()) == \
        ["finetune_et_step000003.ckpt", "finetune_et_step000006.ckpt"]


def test_float32_model_trains_in_float32(monkeypatch):
    """Every parameter and every Adam moment keeps the config's dtype through
    both pre-training stages and fine-tuning."""
    from crossgen import training

    optimizers = []

    class RecordingAdam(Adam):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            optimizers.append(self)

    monkeypatch.setattr(training, "Adam", RecordingAdam)
    data = tiny_data()
    model = tiny_model(len(data.vocab), dtype="float32")
    opt = OptimizerConfig(base_lr=1e-3, warmup_steps=1, total_steps=4)
    corpora = [data.mono_a, data.mono_b]
    pretrain_stage1(model, corpora, data.parallel, opt, NoiseConfig(), batch_size=4, seed=1)
    pretrain_stage2(model, corpora, data.parallel, opt, NoiseConfig(), batch_size=4, seed=1)
    ds = make_task_dataset(data.mono_a, 8, seed=1, marker_id=data.marker_id(data.lang_a))
    finetune(model, ds, "all", opt, batch_size=4, seed=1)
    assert len(optimizers) == 3
    for name, t in model.params.items():
        assert t.data.dtype == np.float32, name
    for adam in optimizers:
        for name in adam.params:
            assert adam.m[name].dtype == adam.v[name].dtype == np.float32, name


def test_finetune_strategy_table():
    assert FINETUNE_STRATEGIES["all"] == frozenset(ParamGroup)
    assert FINETUNE_STRATEGIES["et"] == frozenset({ParamGroup.ENCODER_LAYERS})
    assert FINETUNE_STRATEGIES["enc"] == frozenset({
        ParamGroup.ENCODER_LAYERS, ParamGroup.WORD_EMBEDDINGS,
        ParamGroup.TAG_AND_POSITION_EMBEDDINGS})
    assert FINETUNE_STRATEGIES["dec"] == frozenset({
        ParamGroup.DECODER_LAYERS, ParamGroup.OUTPUT_HEAD})


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_loss_stops_the_stage():
    data = tiny_data()
    model = tiny_model(len(data.vocab))
    opt = OptimizerConfig(base_lr=1e30, warmup_steps=1, total_steps=6)
    with pytest.raises(FloatingPointError, match=r"stage1: non-finite loss .* at step "
                                                 r"\d+ \(objective (mlm|xmlm)\)"):
        pretrain_stage1(model, [data.mono_a, data.mono_b], data.parallel, opt,
                        NoiseConfig(), batch_size=4, seed=3)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_parameters_are_not_checkpointed(tmp_path):
    """An update that makes the parameters non-finite stops the run before
    the step checkpoint due after it is written; earlier ones stay finite.
    A learning rate beyond float32's range overflows the first update."""
    from crossgen.model import load_checkpoint

    data = tiny_data()
    model = tiny_model(len(data.vocab))
    opt = OptimizerConfig(base_lr=1e39, warmup_steps=1, total_steps=6)
    with pytest.raises(FloatingPointError,
                       match=r"stage1: non-finite parameters .* after step (\d+)") as err:
        pretrain_stage1(model, [data.mono_a, data.mono_b], data.parallel, opt,
                        NoiseConfig(), batch_size=4, seed=3, checkpoint_every=1,
                        checkpoint_dir=str(tmp_path))
    last = int(err.value.args[0].split("after step ")[1].split()[0])
    saved = sorted(p.name for p in tmp_path.iterdir())
    assert saved == [f"stage1_step{s:06d}.ckpt" for s in range(1, last)]
    for name in saved:
        params = load_checkpoint(str(tmp_path / name)).params.values()
        assert all(np.isfinite(t.data).all() for t in params), name
