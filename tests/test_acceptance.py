"""Acceptance suite: one test per criterion, one printed PASS line each.

Criteria 7-9 share two session-scoped toy bundles per seed (an ablation
bundle with reordered twins, and a transfer bundle with aligned twins); the
whole suite is deterministic, so the recorded margins reproduce exactly.
Run with `pytest tests/test_acceptance.py -v -s`.
"""

import math
import statistics
import time

import numpy as np
import pytest

from oracles import (exhaustive_decode, finite_diff_max_rel_err, ref_bleu4,
                     ref_rouge_l, ref_rouge_n)

from crossgen.cli import main as cli_main
from crossgen.corpus import MonolingualCorpus, SynthConfig
from crossgen.evaluation import bleu4, rouge_l, rouge_n
from crossgen.experiments import (build_experiment_data, eval_task, finetune_cloned,
                                  membership_cells, pretrain_variants)
from crossgen.generation import DecodeConfig, beam_search, restrict_vocab
from crossgen.model import (ModelConfig, ParamGroup, Seq2SeqModel, checkpoint_digest,
                            load_checkpoint, save_checkpoint)
from crossgen.noising import (MaskedExample, NoiseConfig, NoisedExample, build_xmlm,
                              mask_mlm, noise_dae)
from crossgen.seeding import named_rng
from crossgen.training import (OptimizerConfig, finetune, loss_dae, loss_mlm,
                               loss_xae, loss_xmlm, pretrain_stage1, pretrain_stage2)
from crossgen.vocab import EOS_ID, MASK_ID, NUM_SPECIALS, PAD_ID, SEP_ID, LanguageTag

SEEDS = (0, 1, 2)
LA, LB = LanguageTag(0, "la"), LanguageTag(1, "lb")


def report(number: int, name: str, ok: bool, detail: str = ""):
    verdict = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {number} {name}: {verdict} {detail}".rstrip())
    assert ok, f"criterion {number} ({name}) failed: {detail}"


def toy_model_config(vocab_size):
    return ModelConfig(enc_layers=2, dec_layers=2, d_model=64, n_heads=4, d_ffn=256,
                       max_positions=64, vocab_size=vocab_size, num_languages=2,
                       dtype="float32")


def opt(steps, lr=1e-3):
    return OptimizerConfig(base_lr=lr, warmup_steps=max(steps // 10, 1),
                           total_steps=steps)


# ---------------------------------------------------------------------------
# criterion 1: noise statistics


def test_criterion_1_noise_statistics():
    start = time.monotonic()
    cfg = NoiseConfig()
    rng = named_rng(7, "acceptance.noise")
    vocab_size = 1006
    n_tokens = n_sel = n_mask = n_rand = n_keep = 0
    n_drop = n_surv = n_pad = 0
    sent_len = 200
    for _ in range(600):
        x = [int(t) for t in rng.integers(NUM_SPECIALS, vocab_size, size=sent_len)]
        ex = mask_mlm(x, LA, cfg, rng, vocab_size)
        n_tokens += sent_len
        n_sel += len(ex.mask_positions)
        for pos, tgt in zip(ex.mask_positions, ex.targets):
            got = ex.corrupted[pos]
            n_mask += got == MASK_ID
            n_keep += got == tgt
            n_rand += got != MASK_ID and got != tgt

        distinct = list(range(NUM_SPECIALS, NUM_SPECIALS + sent_len))
        shuffled = noise_dae(distinct, LA, NoiseConfig(shuffle_window=3, p_drop=0.0,
                                                       p_pad=0.0), rng)
        for new_pos, tok in enumerate(shuffled.source):
            assert abs(new_pos - (tok - NUM_SPECIALS)) <= cfg.shuffle_window - 1

        ex2 = noise_dae(distinct, LA, cfg, rng)
        n_drop += sent_len - len(ex2.source)
        n_surv += len(ex2.source)
        n_pad += sum(1 for t in ex2.source if t == PAD_ID)
    elapsed = time.monotonic() - start

    ok = (n_tokens >= 100_000
          and abs(n_sel / n_tokens - 0.15) < 0.01
          and abs(n_mask / n_sel - 0.80) < 0.02
          and abs(n_rand / n_sel - 0.10) < 0.02
          and abs(n_keep / n_sel - 0.10) < 0.02
          and abs(n_drop / n_tokens - 0.10) < 0.01
          and abs(n_pad / n_surv - 0.10) < 0.01
          and elapsed < 5.0)
    report(1, "noise statistics", ok,
           f"select={n_sel / n_tokens:.4f} mask={n_mask / n_sel:.4f} "
           f"drop={n_drop / n_tokens:.4f} pad={n_pad / n_surv:.4f} ({elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# criterion 2: gradient verification


def test_criterion_2_gradient_verification():
    start = time.monotonic()
    V = 23
    config = ModelConfig(enc_layers=2, dec_layers=2, d_model=16, n_heads=2, d_ffn=32,
                         max_positions=40, vocab_size=V, num_languages=2,
                         dtype="float64")
    model = Seq2SeqModel.build(config, seed=11)
    data_rng = named_rng(21, "acceptance.gradcheck")
    x = [int(t) for t in data_rng.integers(NUM_SPECIALS, V, size=8)]
    y = [int(t) for t in data_rng.integers(NUM_SPECIALS, V, size=6)]
    ncfg = NoiseConfig()
    mlm_ex = mask_mlm(x, LA, ncfg, data_rng, V)
    dae_ex = noise_dae(x, LA, ncfg, data_rng)
    xmlm_ex = build_xmlm(x, y, LA, LB, ncfg, data_rng, V)
    cases = {
        "mlm": lambda: loss_mlm(model, [mlm_ex]),
        "dae": lambda: loss_dae(model, [dae_ex]),
        "xmlm": lambda: loss_xmlm(model, [xmlm_ex]),
        "xae": lambda: loss_xae(model, [(x, y)], LA, LB),
    }
    rng = np.random.default_rng(99)
    errs = {}
    for name, fn in cases.items():
        errs[name] = finite_diff_max_rel_err(fn, model.params, rng,
                                             samples_per_tensor=8, h=1e-5)
    elapsed = time.monotonic() - start
    ok = all(e <= 1e-4 for e in errs.values()) and elapsed < 120.0
    report(2, "gradient verification", ok,
           " ".join(f"{k}={v:.2e}" for k, v in errs.items()) + f" ({elapsed:.0f}s)")


# ---------------------------------------------------------------------------
# criterion 3: analytic loss values under uniform logits


def test_criterion_3_uniform_logit_losses():
    V = 11
    config = ModelConfig(enc_layers=1, dec_layers=1, d_model=8, n_heads=2, d_ffn=16,
                         max_positions=32, vocab_size=V, num_languages=2,
                         dtype="float64")
    model = Seq2SeqModel.build(config, seed=3)
    model.params["tok_emb"].data[:] = 0.0
    model.params["out_bias"].data[:] = 0.0
    ln_v = math.log(V)

    mlm_ex = MaskedExample([6, 7, 8, 9], [1, 3], [7, 9], [0, 0, 0, 0])
    dae_ex = NoisedExample([6, 7], [6, 7, 8], LA, LA)
    xmlm_ex = MaskedExample([6, 0, 7, 2, 8, 0], [1, 5], [9, 10], [0, 0, 0, 0, 1, 1],
                            boundary=3)
    errors = {
        "mlm": abs(loss_mlm(model, [mlm_ex]).item() - 2 * ln_v),
        "dae": abs(loss_dae(model, [dae_ex]).item() - 4 * ln_v),
        "xmlm": abs(loss_xmlm(model, [xmlm_ex]).item() - 2 * ln_v),
        "xae": abs(loss_xae(model, [([6, 7, 8], [9, 10])], LA, LB).item() - 7 * ln_v),
    }
    ok = all(e < 1e-6 for e in errors.values())
    report(3, "uniform-logit loss values", ok,
           " ".join(f"{k}={v:.1e}" for k, v in errors.items()))


# ---------------------------------------------------------------------------
# criterion 4: freeze contracts, verified by checkpoint hashing


def test_criterion_4_freeze_contracts(tmp_path):
    synth = SynthConfig(vocab_size_per_lang=12, sentence_len_range=(4, 8), n_mono=60,
                        n_parallel=40, reorder_window=2, seed=5)
    data = build_experiment_data(synth, n_task_train=20, n_task_eval=5, n_probe=5)
    model = Seq2SeqModel.build(toy_model_config(len(data.twin.vocab)), seed=5)
    mono = [data.pretrain_mono["la"], data.pretrain_mono["lb"]]
    pretrain_stage1(model, mono, data.twin.parallel, opt(20), NoiseConfig(),
                    batch_size=4, seed=5)

    def digests(m, groups):
        path = tmp_path / f"ckpt_{time.monotonic_ns()}.bin"
        save_checkpoint(m, path)
        reloaded = load_checkpoint(path)
        return {g: reloaded.group_digest(g) for g in groups}

    enc_side = (ParamGroup.ENCODER_LAYERS, ParamGroup.WORD_EMBEDDINGS,
                ParamGroup.TAG_AND_POSITION_EMBEDDINGS, ParamGroup.OUTPUT_HEAD)
    before = digests(model, enc_side)
    pretrain_stage2(model, mono, data.twin.parallel, opt(20), NoiseConfig(),
                    batch_size=4, seed=5)
    after = digests(model, enc_side)
    stage2_ok = before == after

    frozen_et = (ParamGroup.DECODER_LAYERS, ParamGroup.WORD_EMBEDDINGS,
                 ParamGroup.TAG_AND_POSITION_EMBEDDINGS, ParamGroup.OUTPUT_HEAD)
    before_ft = digests(model, frozen_et)
    finetune(model, data.task_train["la"], "et", opt(15, lr=1e-3), batch_size=4, seed=5)
    after_ft = digests(model, frozen_et)
    et_ok = before_ft == after_ft

    report(4, "freeze contracts", stage2_ok and et_ok,
           f"stage2 encoder-side bit-identical={stage2_ok}, ET frozen groups "
           f"bit-identical={et_ok}")


# ---------------------------------------------------------------------------
# criterion 5: beam search equals exhaustive enumeration


def test_criterion_5_beam_search_oracle():
    start = time.monotonic()
    allowed = [EOS_ID, 6, 7, 8]  # |V| = 4 including EOS
    max_len = 3
    mismatches = 0
    for seed in range(100):
        config = ModelConfig(enc_layers=1, dec_layers=1, d_model=8, n_heads=2,
                             d_ffn=16, max_positions=16, vocab_size=9,
                             num_languages=2, dtype="float64")
        model = Seq2SeqModel.build(config, seed=seed)
        cfg = DecodeConfig(tgt_lang=LB, beam_size=len(allowed) ** max_len,
                           max_len=max_len, allowed_vocab=set(allowed))
        out, score = beam_search(model, [6, 8], LA, cfg)
        ref_out, ref_score = exhaustive_decode(model, [6, 8], LA, LB.id, allowed,
                                               max_len)
        if out != ref_out or abs(score - ref_score) > 1e-9:
            mismatches += 1
    elapsed = time.monotonic() - start
    ok = mismatches == 0 and elapsed < 30.0
    report(5, "beam-search oracle", ok,
           f"100 random models, mismatches={mismatches} ({elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# criterion 6: metric oracles


def test_criterion_6_metric_oracles():
    rng = np.random.default_rng(77)
    hyps, refs = [], []
    for _ in range(50):
        hyps.append([int(t) for t in rng.integers(6, 20, size=rng.integers(1, 12))])
        refs.append([int(t) for t in rng.integers(6, 20, size=rng.integers(1, 12))])
    bleu_err = abs(bleu4(hyps, refs) - ref_bleu4(hyps, refs))
    rouge_err = max(
        max(abs(rouge_n(h, r, 1) - ref_rouge_n(h, r, 1)) for h, r in zip(hyps, refs)),
        max(abs(rouge_n(h, r, 2) - ref_rouge_n(h, r, 2)) for h, r in zip(hyps, refs)),
        max(abs(rouge_l(h, r) - ref_rouge_l(h, r)) for h, r in zip(hyps, refs)),
    )
    identity = bleu4(refs, refs)
    ok = bleu_err < 1e-6 and rouge_err < 1e-6 and identity == pytest.approx(1.0)
    report(6, "metric oracles", ok,
           f"bleu_err={bleu_err:.1e} rouge_err={rouge_err:.1e} bleu(x,x)={identity}")


# ---------------------------------------------------------------------------
# shared toy pipelines for criteria 7-9


def _ablation_seed(seed):
    t0 = time.monotonic()
    synth = SynthConfig(vocab_size_per_lang=50, sentence_len_range=(5, 12),
                        n_mono=5000, n_parallel=1500, reorder_window=2,
                        bigram_bias=0.5, seed=seed)
    data = build_experiment_data(synth, n_task_train=8, n_task_eval=8, n_probe=25)
    base = Seq2SeqModel.build(toy_model_config(len(data.twin.vocab)), seed=seed)
    models = pretrain_variants(base, data, ("full", "no_xae", "no_dae"), opt(500),
                               opt(500), NoiseConfig(), seed)
    scores = {}
    for name, model in models.items():
        cells = {k: float(np.mean(v)) for k, v in membership_cells(model, data).items()}
        same = (cells["la", "la"] + cells["lb", "lb"]) / 2
        flipped = (cells["la", "lb"] + cells["lb", "la"]) / 2
        scores[name] = {"same": same, "flipped": flipped,
                        "overall": (same + flipped) / 2}
    return scores, time.monotonic() - t0


@pytest.fixture(scope="session")
def ablation_results():
    """Criterion 7 bundle: reordered twins, stage-2 objective ablations."""
    results = {}
    elapsed = 0.0
    for seed in SEEDS:
        results[seed], secs = _ablation_seed(seed)
        elapsed += secs
    results["elapsed"] = elapsed
    return results


def _transfer_seed(seed):
    t0 = time.monotonic()
    synth = SynthConfig(vocab_size_per_lang=50, sentence_len_range=(5, 12),
                        n_mono=5000, n_parallel=1500, reorder_window=1,
                        bigram_bias=0.7, seed=seed)
    data = build_experiment_data(synth, n_task_train=1000, n_task_eval=100,
                                 n_probe=25)
    la, lb = data.twin.lang_a, data.twin.lang_b
    stage1_only = Seq2SeqModel.build(toy_model_config(len(data.twin.vocab)), seed=seed)
    pretrained = pretrain_variants(stage1_only, data, ("full",), opt(800), opt(500),
                                   NoiseConfig(), seed)["full"]

    train_a = data.task_train["la"][:600]
    # decode-time vocabulary restriction from the zero-shot eval passages
    restrict_b = restrict_vocab(MonolingualCorpus(lb, [
        [t for t in ex.input if t != SEP_ID] for ex in data.task_eval["lb"]]))

    ft_c8 = OptimizerConfig(base_lr=1.5e-3, warmup_steps=20, total_steps=200)
    rows = {}
    for name, start_model, strategy in (("et", pretrained, "et"),
                                        ("all", pretrained, "all"),
                                        ("base", stage1_only, "et")):
        tuned = finetune_cloned(start_model, train_a, strategy, ft_c8,
                                batch_size=16, seed=seed)
        zs = eval_task(tuned, data.task_eval["lb"], lb, beam_size=3, max_len=8,
                       allowed_vocab=restrict_b)
        sup = eval_task(tuned, data.task_eval["la"], la, beam_size=3, max_len=8)
        rows[name] = {"zsB": zs.bleu4, "supA": sup.bleu4}
    c8_elapsed = time.monotonic() - t0

    t1 = time.monotonic()
    on_a = finetune_cloned(pretrained, train_a, "enc",
                           OptimizerConfig(base_lr=1.5e-3, warmup_steps=40,
                                           total_steps=400),
                           batch_size=16, seed=seed)
    gaps = {}
    for size, steps in ((50, 300), (200, 300), (1000, 800)):
        ft_b = OptimizerConfig(base_lr=7e-4, warmup_steps=steps // 10,
                               total_steps=steps)
        subset = data.task_train["lb"][:size]
        transfer = finetune_cloned(on_a, subset, "all", ft_b, batch_size=16,
                                   seed=seed)
        b_only = finetune_cloned(pretrained, subset, "all", ft_b, batch_size=16,
                                 seed=seed)
        r_t = eval_task(transfer, data.task_eval["lb"], lb, beam_size=3,
                        max_len=8).rouge2
        r_b = eval_task(b_only, data.task_eval["lb"], lb, beam_size=3,
                        max_len=8).rouge2
        gaps[size] = r_t - r_b
    return {"c8": rows, "c9_gaps": gaps, "c8_elapsed": c8_elapsed,
            "c9_elapsed": time.monotonic() - t1}


@pytest.fixture(scope="session")
def transfer_results():
    """Criteria 8-9 bundle: aligned twins, strategies and few-shot curves."""
    results = {}
    c8_elapsed = c9_elapsed = 0.0
    for seed in SEEDS:
        results[seed] = _transfer_seed(seed)
        c8_elapsed += results[seed].pop("c8_elapsed")
        c9_elapsed += results[seed].pop("c9_elapsed")
    results["c8_elapsed"] = c8_elapsed
    results["c9_elapsed"] = c9_elapsed
    return results


# ---------------------------------------------------------------------------
# criterion 7: tag controllability and ablation ordering


def test_criterion_7_tag_controllability(ablation_results):
    passes = []
    details = []
    for seed in SEEDS:
        s = ablation_results[seed]
        ok = (s["full"]["flipped"] >= 0.90
              and s["no_xae"]["overall"] < s["full"]["overall"]
              and s["no_dae"]["overall"] < s["full"]["overall"]
              and s["no_dae"]["same"] < s["no_xae"]["same"]
              and s["no_dae"]["same"] < s["full"]["same"])
        passes.append(ok)
        details.append(f"seed{seed}: full_flip={s['full']['flipped']:.2f} "
                       f"overall f/x/d={s['full']['overall']:.2f}/"
                       f"{s['no_xae']['overall']:.2f}/{s['no_dae']['overall']:.2f} "
                       f"same_no_dae={s['no_dae']['same']:.2f}")
    elapsed = ablation_results["elapsed"]
    ok = sum(passes) >= 2 and elapsed < 900.0
    report(7, "tag controllability", ok,
           f"{sum(passes)}/3 seeds; {'; '.join(details)} ({elapsed:.0f}s)")


# ---------------------------------------------------------------------------
# criterion 8: zero-shot transfer across fine-tuning strategies


def test_criterion_8_zero_shot_strategies(transfer_results):
    passes = []
    details = []
    for seed in SEEDS:
        c8 = transfer_results[seed]["c8"]
        ok = (c8["et"]["zsB"] > c8["all"]["zsB"] > c8["base"]["zsB"]
              and c8["all"]["supA"] >= c8["et"]["supA"] - 0.02)
        passes.append(ok)
        details.append(f"seed{seed}: zsB et/all/base="
                       f"{c8['et']['zsB']:.4f}/{c8['all']['zsB']:.4f}/"
                       f"{c8['base']['zsB']:.4f}")
    elapsed = transfer_results["c8_elapsed"]
    ok = sum(passes) >= 2 and elapsed < 900.0
    report(8, "zero-shot strategy ordering", ok,
           f"{sum(passes)}/3 seeds; {'; '.join(details)} ({elapsed:.0f}s)")


# ---------------------------------------------------------------------------
# criterion 9: few-shot transfer


def test_criterion_9_few_shot_transfer(transfer_results):
    beats = [transfer_results[seed]["c9_gaps"][50] > 0 for seed in SEEDS]
    medians = [statistics.median(transfer_results[seed]["c9_gaps"][size]
                                 for seed in SEEDS)
               for size in (50, 200, 1000)]
    monotone = medians[0] >= medians[1] >= medians[2]
    elapsed = transfer_results["c9_elapsed"]
    ok = sum(beats) >= 2 and monotone and elapsed < 900.0
    report(9, "few-shot transfer", ok,
           f"beats@50 {sum(beats)}/3 seeds; median gaps "
           f"{medians[0]:+.3f} >= {medians[1]:+.3f} >= {medians[2]:+.3f} "
           f"({elapsed:.0f}s)")


# ---------------------------------------------------------------------------
# criterion 10: byte-identical determinism end to end


def test_criterion_10_determinism(tmp_path):
    sets = []
    for kv in ["data.vocab_size_per_lang=10", "data.n_mono=60", "data.n_parallel=30",
               "data.task_train=10", "data.task_eval=5", "data.n_probe=4",
               "data.sentence_min_len=4", "data.sentence_max_len=7",
               "model.d_model=16", "model.n_heads=2", "model.d_ffn=32",
               "model.max_positions=32",
               "stage1.steps=8", "stage1.warmup_steps=2", "stage1.lr=1e-3",
               "stage1.batch_size=8",
               "stage2.steps=8", "stage2.warmup_steps=2", "stage2.lr=1e-3",
               "stage2.batch_size=8",
               "finetune.steps=5", "finetune.lr=1e-3", "finetune.batch_size=8",
               "decode.max_len=6", "decode.beam_size=2"]:
        sets += ["--set", kv]

    def run_pipeline(root):
        data = root / "data"
        assert cli_main([*sets, "gen-data", "--out", str(data)]) == 0
        ck1, ck2, ft = root / "s1.ckpt", root / "s2.ckpt", root / "ft.ckpt"
        assert cli_main([*sets, "pretrain", "--stage", "1", "--data", str(data),
                         "--out", str(ck1), "--trace", str(root / "t1.csv")]) == 0
        assert cli_main([*sets, "pretrain", "--stage", "2", "--data", str(data),
                         "--init", str(ck1), "--out", str(ck2)]) == 0
        assert cli_main([*sets, "finetune", "--ckpt", str(ck2), "--task",
                         str(data / "task_la_train.jsonl"), "--strategy", "et",
                         "--out", str(ft)]) == 0
        import json

        manifest = root / "manifest.jsonl"
        refs = root / "refs.jsonl"
        probe = [json.loads(line) for line in
                 (data / "probe_la.jsonl").read_text().splitlines()[:3]]
        with manifest.open("w") as fh:
            for rec in probe:
                fh.write(json.dumps({"input": rec["ids"], "src_lang": "la",
                                     "tgt_lang": "lb"}) + "\n")
        with refs.open("w") as fh:
            for rec in probe:
                fh.write(json.dumps({"input": [6, SEP_ID, 6], "target": rec["ids"],
                                     "lang": "lb"}) + "\n")
        out = root / "out.jsonl"
        assert cli_main([*sets, "generate", "--ckpt", str(ft), "--manifest",
                         str(manifest), "--out", str(out)]) == 0
        rep = root / "report.json"
        assert cli_main([*sets, "evaluate", "--outputs", str(out), "--refs",
                         str(refs), "--report", str(rep)]) == 0
        artifacts = {}
        for p in sorted(root.rglob("*")):
            if p.is_file():
                artifacts[str(p.relative_to(root))] = p.read_bytes()
        return artifacts, checkpoint_digest(ck1), checkpoint_digest(ft)

    a1, d1a, d1b = run_pipeline(tmp_path / "run1")
    a2, d2a, d2b = run_pipeline(tmp_path / "run2")
    same_files = set(a1) == set(a2) and all(a1[k] == a2[k] for k in a1)
    ok = same_files and d1a == d2a and d1b == d2b
    report(10, "determinism", ok,
           f"{len(a1)} artifacts byte-identical={same_files}, "
           f"checkpoint digests equal={d1a == d2a and d1b == d2b}")
