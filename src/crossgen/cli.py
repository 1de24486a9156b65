"""Command-line orchestration: data generation, pre-training, fine-tuning,
decoding, evaluation, and scripted ablations.

Exit codes: 0 success, 1 runtime failure, 2 configuration or usage error.
Commands refuse to overwrite existing outputs unless --force is given.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .config import ConfigError, load_config
from .corpus import (MonolingualCorpus, SynthConfig, load_mono_jsonl,
                     load_parallel_jsonl, load_task_jsonl, read_jsonl,
                     save_mono_jsonl, save_parallel_jsonl, save_task_jsonl)
from .evaluation import evaluate_corpus, save_report
from .experiments import (build_experiment_data, eval_task, finetune_cloned,
                          membership_cells, pretrain_variants)
from .fileio import atomic_write
from .generation import DecodeConfig, beam_search_many, restrict_vocab
from .model import (ModelConfig, Seq2SeqModel, checkpoint_digest,
                    load_checkpoint, save_checkpoint)
from .noising import NoiseConfig
from .training import (OptimizerConfig, finetune, finetune_plan, pretrain_stage1,
                       pretrain_stage2, save_trace_csv, stage1_plan, stage2_plan)
from .vocab import NUM_SPECIALS, LanguageTag, Vocab, learn_vocab


class UsageError(Exception):
    """User-facing misuse that should exit with code 2."""


def _languages(cfg) -> dict[str, LanguageTag]:
    return {name: LanguageTag(i, name) for i, name in enumerate(cfg["languages"])}


def _synth_config(cfg) -> SynthConfig:
    d = cfg["data"]
    return SynthConfig(
        vocab_size_per_lang=d["vocab_size_per_lang"],
        sentence_len_range=(d["sentence_min_len"], d["sentence_max_len"]),
        n_mono=d["n_mono"], n_parallel=d["n_parallel"],
        reorder_window=d["reorder_window"], bigram_bias=d["bigram_bias"],
        seed=cfg["seed"],
    )


def _model_config(cfg, vocab_size: int) -> ModelConfig:
    m = cfg["model"]
    return ModelConfig(
        enc_layers=m["enc_layers"], dec_layers=m["dec_layers"], d_model=m["d_model"],
        n_heads=m["n_heads"], d_ffn=m["d_ffn"], max_positions=m["max_positions"],
        vocab_size=vocab_size, num_languages=len(cfg["languages"]), dtype=m["dtype"],
    )


def _opt_config(section) -> OptimizerConfig:
    return OptimizerConfig(base_lr=section["lr"], warmup_steps=section["warmup_steps"],
                           total_steps=section["steps"])


def _noise_config(cfg) -> NoiseConfig:
    return NoiseConfig(**cfg["noise"])


def _guard_output(path, force: bool) -> None:
    if os.path.exists(path) and not force:
        raise UsageError(f"refusing to overwrite {path} (use --force)")
    parent = os.path.dirname(os.path.abspath(path))
    os.makedirs(parent, exist_ok=True)


def _load_vocab(data_dir) -> Vocab:
    return Vocab.load(os.path.join(data_dir, "vocab.txt"))


# ---------------------------------------------------------------------------
# commands

def cmd_gen_data(cfg, args) -> int:
    data_cfg = cfg["data"]
    names = cfg["languages"]
    if len(names) != 2:
        raise UsageError("gen-data builds exactly two twin languages")
    bundle = build_experiment_data(_synth_config(cfg), data_cfg["task_train"],
                                   data_cfg["task_eval"], data_cfg["n_probe"])
    twin = bundle.twin
    out = args.out
    paths = {
        "vocab": os.path.join(out, "vocab.txt"),
        "parallel": os.path.join(out, "parallel.jsonl"),
    }
    for name in names:
        paths[f"mono_{name}"] = os.path.join(out, f"mono_{name}.jsonl")
        paths[f"probe_{name}"] = os.path.join(out, f"probe_{name}.jsonl")
        paths[f"task_{name}_train"] = os.path.join(out, f"task_{name}_train.jsonl")
        paths[f"task_{name}_eval"] = os.path.join(out, f"task_{name}_eval.jsonl")
    for p in paths.values():
        _guard_output(p, args.force)

    twin.vocab.save(paths["vocab"])
    save_parallel_jsonl(twin.parallel, paths["parallel"])
    for name in names:
        lang = twin.lang_a if name == twin.lang_a.name else twin.lang_b
        save_mono_jsonl(bundle.pretrain_mono[name], paths[f"mono_{name}"])
        save_mono_jsonl(MonolingualCorpus(lang, bundle.probe_sentences[name]),
                        paths[f"probe_{name}"])
        save_task_jsonl(bundle.task_train[name], paths[f"task_{name}_train"])
        save_task_jsonl(bundle.task_eval[name], paths[f"task_{name}_eval"])
    print(f"wrote {len(paths)} files to {out}")
    return 0


def cmd_learn_vocab(cfg, args) -> int:
    _guard_output(args.out, args.force)
    streams = []
    with open(args.input, encoding="utf-8") as fh:
        for line in fh:
            units = line.split()
            if not units:
                continue
            if args.char_base:
                streams.extend([list(word) for word in units])
            else:
                streams.append(units)
    vocab = learn_vocab(streams, args.merges, char_base=args.char_base)
    vocab.save(args.out)
    print(f"vocabulary: {len(vocab)} tokens, {len(vocab.merges)} merges -> {args.out}")
    return 0


def _load_corpora(cfg, data_dir):
    langs = _languages(cfg)
    mono = [load_mono_jsonl(os.path.join(data_dir, f"mono_{name}.jsonl"), langs)
            for name in cfg["languages"]]
    parallel = load_parallel_jsonl(os.path.join(data_dir, "parallel.jsonl"), langs)
    return mono, parallel


def cmd_pretrain(cfg, args) -> int:
    _guard_output(args.out, args.force)
    if args.trace:
        _guard_output(args.trace, args.force)
    vocab = _load_vocab(args.data)
    mono, parallel = _load_corpora(cfg, args.data)

    if args.stage == 1:
        model = Seq2SeqModel.build(_model_config(cfg, len(vocab)), seed=cfg["seed"])
        train, plan = pretrain_stage1, stage1_plan()
    else:
        if not args.init:
            raise UsageError("pretrain --stage 2 requires --init <stage-1 checkpoint>")
        model = load_checkpoint(args.init)
        train, plan = pretrain_stage2, stage2_plan(dae_weight=cfg["stage2"]["dae_weight"])
    section = cfg[f"stage{args.stage}"]
    trace = train(model, mono, parallel, _opt_config(section), _noise_config(cfg),
                  batch_size=section["batch_size"], seed=cfg["seed"], plan=plan,
                  checkpoint_every=args.save_every,
                  checkpoint_dir=os.path.dirname(os.path.abspath(args.out)))
    save_checkpoint(model, args.out)
    if args.trace:
        save_trace_csv(trace, args.trace)
    print(f"stage {args.stage} done: {len(trace)} steps, "
          f"final loss {trace[-1].loss:.4f}, checkpoint {checkpoint_digest(args.out)[:12]}")
    return 0


def cmd_finetune(cfg, args) -> int:
    try:
        plan = finetune_plan(args.strategy)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    _guard_output(args.out, args.force)
    if args.trace:
        _guard_output(args.trace, args.force)
    model = load_checkpoint(args.ckpt)
    langs = _languages(cfg)
    dataset = load_task_jsonl(args.task, langs)
    frozen = [g for g in model.partition_params() if g not in plan.trainable_groups]
    before = {g: model.group_digest(g) for g in frozen}
    trace = finetune(model, dataset, args.strategy, _opt_config(cfg["finetune"]),
                     batch_size=cfg["finetune"]["batch_size"], seed=cfg["seed"],
                     checkpoint_every=args.save_every,
                     checkpoint_dir=os.path.dirname(os.path.abspath(args.out)))
    for g in frozen:
        after = model.group_digest(g)
        if after != before[g]:
            raise RuntimeError(f"frozen group {g.value} changed during fine-tuning")
        print(f"frozen {g.value}: hash unchanged ({after[:12]})")
    save_checkpoint(model, args.out)
    if args.trace:
        save_trace_csv(trace, args.trace)
    print(f"fine-tuned ({args.strategy.lower()}): final loss {trace[-1].loss:.4f}")
    return 0


def cmd_generate(cfg, args) -> int:
    _guard_output(args.out, args.force)
    model = load_checkpoint(args.ckpt)
    langs = _languages(cfg)
    rows = read_jsonl(args.manifest, ("input", "src_lang", "tgt_lang"))
    allowed = None
    if args.restrict:
        allowed = restrict_vocab(load_mono_jsonl(args.restrict, langs))
    beam = args.beam if args.beam is not None else cfg["decode"]["beam_size"]
    max_len = args.max_len if args.max_len is not None else cfg["decode"]["max_len"]
    dcfg = DecodeConfig(tgt_lang=[langs[row["tgt_lang"]] for row in rows], beam_size=beam,
                        max_len=max_len, allowed_vocab=allowed)
    try:
        decoded = beam_search_many(model, [[int(i) for i in row["input"]] for row in rows],
                                   [langs[row["src_lang"]] for row in rows], dcfg)
    except ValueError as exc:
        raise UsageError(f"{args.manifest}: {exc}") from None
    outputs = [{"output": ids, "score": score} for ids, score in decoded]
    with atomic_write(args.out, "w", encoding="utf-8") as fh:
        for rec in outputs:
            fh.write(json.dumps(rec, sort_keys=True, separators=(",", ":")) + "\n")
    print(f"decoded {len(outputs)} inputs -> {args.out}")
    return 0


def cmd_evaluate(cfg, args) -> int:
    _guard_output(args.report, args.force)
    langs = _languages(cfg)
    hyp_rows = read_jsonl(args.outputs, ("output",))
    refs = load_task_jsonl(args.refs, langs)
    if len(hyp_rows) != len(refs):
        raise UsageError(f"{len(hyp_rows)} outputs vs {len(refs)} references")
    lexicon = None
    if args.lexicon:
        mono = load_mono_jsonl(args.lexicon, langs)
        lexicon = {t for s in mono.sentences for t in s if t >= NUM_SPECIALS}
    report = evaluate_corpus([[int(i) for i in r["output"]] for r in hyp_rows],
                             [ex.target for ex in refs], lexicon=lexicon)
    save_report(report, args.report, config_echo={
        "outputs": os.path.basename(args.outputs),
        "refs": os.path.basename(args.refs),
        "decode": cfg["decode"], "seed": cfg["seed"],
    })
    print(f"bleu4={report.bleu4:.4f} rouge2={report.rouge2:.4f} "
          f"membership={report.lang_membership:.4f} -> {args.report}")
    return 0


def cmd_ablate(cfg, args) -> int:
    _guard_output(args.report, args.force)
    which = [w.strip() for w in args.which.split(",")]
    bad = [w for w in which if w not in ("no_xae", "no_dae", "strategies")]
    if bad:
        raise UsageError(f"unknown ablation {bad[0]!r}; "
                         "choose from no_xae, no_dae, strategies")
    data_cfg = cfg["data"]
    bundle = build_experiment_data(_synth_config(cfg), data_cfg["task_train"],
                                   data_cfg["task_eval"], data_cfg["n_probe"])
    twin = bundle.twin
    seed = cfg["seed"]
    name_a, name_b = twin.lang_a.name, twin.lang_b.name
    beam = cfg["decode"]["beam_size"]
    ft, ft_batch = _opt_config(cfg["finetune"]), cfg["finetune"]["batch_size"]

    # the pre-trained variants share one stage-1 run; "full" is also the
    # strategies' base unless --init gives one
    ablations = [w for w in ("no_xae", "no_dae") if w in which]
    variants = ["full"] + ablations if ablations or not args.init else []
    models = {}
    if variants:
        models = pretrain_variants(
            Seq2SeqModel.build(_model_config(cfg, len(twin.vocab)), seed=seed), bundle,
            variants, _opt_config(cfg["stage1"]), _opt_config(cfg["stage2"]),
            _noise_config(cfg), seed, s1_batch=cfg["stage1"]["batch_size"],
            s2_batch=cfg["stage2"]["batch_size"], dae_weight=cfg["stage2"]["dae_weight"])

    report: dict = {"seed": seed, "which": which, "rows": []}

    if ablations:
        for name in variants:
            cells = membership_cells(models[name], bundle, beam_size=beam)
            flipped = cells[name_a, name_b] + cells[name_b, name_a]
            tuned = finetune_cloned(models[name], bundle.task_train[name_a], "et", ft,
                                    batch_size=ft_batch, seed=seed)
            zero_shot = eval_task(tuned, bundle.task_eval[name_b], twin.lang_b,
                                  beam_size=beam)
            report["rows"].append({
                "variant": name,
                "flipped_membership": sum(flipped) / len(flipped),
                "zero_shot_bleu4": zero_shot.bleu4,
                "zero_shot_rouge2": zero_shot.rouge2,
            })

    if "strategies" in which:
        base = load_checkpoint(args.init) if args.init else models["full"]
        for strategy in ("all", "enc", "dec", "et"):
            tuned = finetune_cloned(base, bundle.task_train[name_a], strategy, ft,
                                    batch_size=ft_batch, seed=seed)
            supervised = eval_task(tuned, bundle.task_eval[name_a], twin.lang_a,
                                   beam_size=beam)
            zero_shot = eval_task(tuned, bundle.task_eval[name_b], twin.lang_b,
                                  beam_size=beam)
            report["rows"].append({
                "strategy": strategy,
                "supervised_bleu4": supervised.bleu4,
                "supervised_rouge2": supervised.rouge2,
                "zero_shot_bleu4": zero_shot.bleu4,
                "zero_shot_rouge2": zero_shot.rouge2,
            })

    report["config_echo"] = cfg
    with atomic_write(args.report, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"ablation report ({', '.join(which)}) -> {args.report}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crossgen",
        description="cross-lingual seq2seq pre-training on synthetic twin languages")
    parser.add_argument("--config", help="JSON config file overlaying the defaults")
    parser.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                        help="dotted config override, e.g. --set stage1.steps=100")
    parser.add_argument("--seed", type=int, help="override the config seed")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate twin-language corpora and datasets")
    p.add_argument("--out", required=True)
    p.add_argument("--force", action="store_true")

    p = sub.add_parser("learn-vocab", help="learn a BPE vocabulary from token text")
    p.add_argument("--input", required=True, help="text file, one token stream per line")
    p.add_argument("--out", required=True)
    p.add_argument("--merges", type=int, default=0)
    p.add_argument("--char-base", action="store_true",
                   help="merge over character sequences instead of whitespace symbols")
    p.add_argument("--force", action="store_true")

    p = sub.add_parser("pretrain", help="run one pre-training stage")
    p.add_argument("--stage", type=int, choices=(1, 2), required=True)
    p.add_argument("--data", required=True, help="directory from gen-data")
    p.add_argument("--init", help="stage-1 checkpoint (required for stage 2)")
    p.add_argument("--out", required=True, help="checkpoint path")
    p.add_argument("--trace", help="loss trace CSV path")
    p.add_argument("--save-every", type=int, default=0, dest="save_every",
                   help="also write a checkpoint every N steps")
    p.add_argument("--force", action="store_true")

    p = sub.add_parser("finetune", help="fine-tune on a task dataset")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--task", required=True, help="task JSONL file")
    p.add_argument("--strategy", required=True, help="all, enc, dec, or et")
    p.add_argument("--out", required=True)
    p.add_argument("--trace")
    p.add_argument("--save-every", type=int, default=0, dest="save_every",
                   help="also write a checkpoint every N steps")
    p.add_argument("--force", action="store_true")

    p = sub.add_parser("generate", help="batch decode a manifest")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--beam", type=int)
    p.add_argument("--max-len", type=int, dest="max_len")
    p.add_argument("--restrict", help="monolingual JSONL whose tokens bound the output vocab")
    p.add_argument("--force", action="store_true")

    p = sub.add_parser("evaluate", help="score decoded outputs against references")
    p.add_argument("--outputs", required=True)
    p.add_argument("--refs", required=True, help="task JSONL with target fields")
    p.add_argument("--report", required=True)
    p.add_argument("--lexicon", help="monolingual JSONL defining the language lexicon")
    p.add_argument("--force", action="store_true")

    p = sub.add_parser("ablate", help="run objective or strategy ablations")
    p.add_argument("--which", required=True,
                   help="no_xae, no_dae, strategies (comma-separated to combine)")
    p.add_argument("--report", required=True)
    p.add_argument("--init", help="reuse a pre-trained checkpoint for strategies")
    p.add_argument("--force", action="store_true")

    return parser


COMMANDS = {
    "gen-data": cmd_gen_data,
    "learn-vocab": cmd_learn_vocab,
    "pretrain": cmd_pretrain,
    "finetune": cmd_finetune,
    "generate": cmd_generate,
    "evaluate": cmd_evaluate,
    "ablate": cmd_ablate,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config, args.set)
        if args.seed is not None:
            cfg["seed"] = args.seed
        return COMMANDS[args.command](cfg, args)
    except (ConfigError, UsageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
