"""Command-line orchestration: data generation, pre-training, fine-tuning,
decoding, evaluation, and scripted ablations.

Exit codes: 0 success, 1 runtime failure, 2 configuration or usage error;
an input file that cannot be read or parsed is a usage error.
Commands refuse to overwrite existing outputs unless --force is given.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .config import ConfigError, load_config
from .corpus import (MonolingualCorpus, SynthConfig, load_mono_jsonl,
                     load_parallel_jsonl, load_task_jsonl, lookup_language, read_jsonl,
                     save_mono_jsonl, save_parallel_jsonl, save_task_jsonl, write_jsonl)
from .evaluation import evaluate_corpus, save_report
from .experiments import (build_experiment_data, eval_task, finetune_cloned,
                          membership_cells, pretrain_variants, variant_weights)
from .fileio import atomic_write
from .generation import DecodeConfig, beam_search_many, restrict_vocab
from .model import (ModelConfig, Seq2SeqModel, checkpoint_digest,
                    load_checkpoint, save_checkpoint)
from .noising import NoiseConfig
from .training import (OptimizerConfig, finetune, finetune_plan, pretrain_stage1,
                       pretrain_stage2, save_trace_csv)
from .vocab import NUM_SPECIALS, LanguageTag, Vocab, learn_vocab


class UsageError(Exception):
    """User-facing misuse that should exit with code 2."""


def _languages(cfg) -> dict[str, LanguageTag]:
    return {name: LanguageTag(i, name) for i, name in enumerate(cfg["languages"])}


def _checked(section: str, build, *args, **kwargs):
    """`build(*args, **kwargs)` from the values of one config section: a value
    it rejects is a configuration error that names the section."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"config section {section}: {exc}") from None


def _synth_config(cfg) -> SynthConfig:
    d = cfg["data"]
    return _checked(
        "data", SynthConfig,
        vocab_size_per_lang=d["vocab_size_per_lang"],
        sentence_len_range=(d["sentence_min_len"], d["sentence_max_len"]),
        n_mono=d["n_mono"], n_parallel=d["n_parallel"],
        reorder_window=d["reorder_window"], bigram_bias=d["bigram_bias"],
        seed=cfg["seed"],
    )


def _model_config(cfg, vocab_size: int) -> ModelConfig:
    m = cfg["model"]
    return _checked(
        "model", ModelConfig,
        enc_layers=m["enc_layers"], dec_layers=m["dec_layers"], d_model=m["d_model"],
        n_heads=m["n_heads"], d_ffn=m["d_ffn"], max_positions=m["max_positions"],
        vocab_size=vocab_size, num_languages=len(cfg["languages"]), dtype=m["dtype"],
    )


def _opt_config(cfg, stage: str) -> OptimizerConfig:
    section = cfg[stage]
    return _checked(stage, OptimizerConfig, base_lr=section["lr"],
                    warmup_steps=section["warmup_steps"], total_steps=section["steps"])


def _noise_config(cfg) -> NoiseConfig:
    return _checked("noise", NoiseConfig, **cfg["noise"])


def _stage2_weights(cfg, variants=("full",)) -> dict[str, dict]:
    """Each stage-2 variant's objective weights under the config, checked."""
    return _checked("stage2", variant_weights, variants, cfg["stage2"]["dae_weight"])


def _decode_config(cfg, tgt_lang=(), **overrides) -> DecodeConfig:
    """The decode section, with the overrides that are not None, checked."""
    values = {**cfg["decode"], **{k: v for k, v in overrides.items() if v is not None}}
    return _checked("decode", DecodeConfig, tgt_lang=tgt_lang, **values)


def _guard_output(path, force: bool) -> None:
    if os.path.exists(path) and not force:
        raise UsageError(f"refusing to overwrite {path} (use --force)")
    parent = os.path.dirname(os.path.abspath(path))
    os.makedirs(parent, exist_ok=True)


def _read(path, load, *args):
    """`load(path, *args)`, for every input file the commands read: a file that
    cannot be read or parsed is a usage error that names it."""
    try:
        return load(path, *args)
    except (OSError, ValueError) as exc:
        msg = str(exc)
        raise UsageError(msg if str(path) in msg else f"{path}: {msg}") from None


def _experiment_data(cfg):
    names = cfg["languages"]
    if len(names) != 2:
        raise UsageError("the twin-language data has exactly two languages")
    d = cfg["data"]
    return build_experiment_data(_synth_config(cfg), d["task_train"], d["task_eval"],
                                 d["n_probe"], tuple(names))


# ---------------------------------------------------------------------------
# commands

def cmd_gen_data(cfg, args) -> int:
    names = cfg["languages"]
    bundle = _experiment_data(cfg)
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
    for lang in (twin.lang_a, twin.lang_b):
        name = lang.name
        save_mono_jsonl(bundle.pretrain_mono[name], paths[f"mono_{name}"])
        save_mono_jsonl(MonolingualCorpus(lang, bundle.probe_sentences[name]),
                        paths[f"probe_{name}"])
        save_task_jsonl(bundle.task_train[name], paths[f"task_{name}_train"])
        save_task_jsonl(bundle.task_eval[name], paths[f"task_{name}_eval"])
    print(f"wrote {len(paths)} files to {out}")
    return 0


def cmd_learn_vocab(cfg, args) -> int:
    _guard_output(args.out, args.force)
    text = _read(args.input, lambda path: Path(path).read_text(encoding="utf-8"))
    lines = [line.split() for line in text.split("\n")]
    streams = ([list(word) for units in lines for word in units] if args.char_base
               else [units for units in lines if units])
    vocab = learn_vocab(streams, args.merges, char_base=args.char_base)
    vocab.save(args.out)
    print(f"vocabulary: {len(vocab)} tokens, {len(vocab.merges)} merges -> {args.out}")
    return 0


def _load_corpora(cfg, data_dir):
    langs = _languages(cfg)
    mono = [_read(os.path.join(data_dir, f"mono_{name}.jsonl"), load_mono_jsonl, langs)
            for name in cfg["languages"]]
    parallel = _read(os.path.join(data_dir, "parallel.jsonl"), load_parallel_jsonl, langs)
    return mono, parallel


def cmd_pretrain(cfg, args) -> int:
    _guard_output(args.out, args.force)
    if args.trace:
        _guard_output(args.trace, args.force)
    vocab = _read(os.path.join(args.data, "vocab.txt"), Vocab.load)
    mono, parallel = _load_corpora(cfg, args.data)

    if args.stage == 1:
        model = Seq2SeqModel.build(_model_config(cfg, len(vocab)), seed=cfg["seed"])
        train, weights = pretrain_stage1, {}
    else:
        if not args.init:
            raise UsageError("pretrain --stage 2 requires --init <stage-1 checkpoint>")
        model = _read(args.init, load_checkpoint)
        train, weights = pretrain_stage2, _stage2_weights(cfg)["full"]
    stage = f"stage{args.stage}"
    trace = train(model, mono, parallel, _opt_config(cfg, stage), _noise_config(cfg),
                  batch_size=cfg[stage]["batch_size"], seed=cfg["seed"], **weights,
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
    model = _read(args.ckpt, load_checkpoint)
    dataset = _read(args.task, load_task_jsonl, _languages(cfg))
    frozen = [g for g in model.partition_params() if g not in plan.trainable_groups]
    before = {g: model.group_digest(g) for g in frozen}
    trace = finetune(model, dataset, args.strategy, _opt_config(cfg, "finetune"),
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


def _load_manifest(path, langs):
    """Decode inputs with their source and target languages."""
    rows = read_jsonl(path, ("input", "src_lang", "tgt_lang"))
    return ([[int(i) for i in row["input"]] for row in rows],
            [lookup_language(langs, row["src_lang"], f"input {i}") for i, row in enumerate(rows)],
            [lookup_language(langs, row["tgt_lang"], f"input {i}") for i, row in enumerate(rows)])


def cmd_generate(cfg, args) -> int:
    _guard_output(args.out, args.force)
    model = _read(args.ckpt, load_checkpoint)
    langs = _languages(cfg)
    inputs, src_langs, tgt_langs = _read(args.manifest, _load_manifest, langs)
    allowed = None
    if args.restrict:
        allowed = _read(args.restrict,
                        lambda path: restrict_vocab(load_mono_jsonl(path, langs)))
    dcfg = _decode_config(cfg, tgt_langs, beam_size=args.beam, max_len=args.max_len,
                          allowed_vocab=allowed)
    try:
        decoded = beam_search_many(model, inputs, src_langs, dcfg)
    except ValueError as exc:
        raise UsageError(f"{args.manifest}: {exc}") from None
    write_jsonl(({"output": ids, "score": score} for ids, score in decoded), args.out)
    print(f"decoded {len(decoded)} inputs -> {args.out}")
    return 0


def cmd_evaluate(cfg, args) -> int:
    _guard_output(args.report, args.force)
    langs = _languages(cfg)
    hyps = _read(args.outputs, lambda path: [[int(i) for i in row["output"]]
                                             for row in read_jsonl(path, ("output",))])
    refs = _read(args.refs, load_task_jsonl, langs)
    if len(hyps) != len(refs):
        raise UsageError(f"{len(hyps)} outputs vs {len(refs)} references")
    lexicon = None
    if args.lexicon:
        mono = _read(args.lexicon, load_mono_jsonl, langs)
        lexicon = {t for s in mono.sentences for t in s if t >= NUM_SPECIALS}
    report = evaluate_corpus(hyps, [ex.target for ex in refs], lexicon=lexicon)
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
    beam = _decode_config(cfg).beam_size
    # the pre-trained variants share one stage-1 run; "full" is also the
    # strategies' base unless --init gives one
    ablations = [w for w in ("no_xae", "no_dae") if w in which]
    variants = ["full"] + ablations if ablations or not args.init else []
    _stage2_weights(cfg, variants)
    bundle = _experiment_data(cfg)
    twin = bundle.twin
    seed = cfg["seed"]
    name_a, name_b = twin.lang_a.name, twin.lang_b.name
    ft, ft_batch = _opt_config(cfg, "finetune"), cfg["finetune"]["batch_size"]
    models = {}
    if variants:
        models = pretrain_variants(
            Seq2SeqModel.build(_model_config(cfg, len(twin.vocab)), seed=seed), bundle,
            variants, _opt_config(cfg, "stage1"), _opt_config(cfg, "stage2"),
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
        base = _read(args.init, load_checkpoint) if args.init else models["full"]
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
