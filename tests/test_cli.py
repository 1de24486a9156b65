import json
import shutil
import subprocess
import sys

import pytest

from crossgen.cli import main
from crossgen.model import checkpoint_digest

FAST = []
for kv in [
    "data.vocab_size_per_lang=10", "data.n_mono=50", "data.n_parallel=30",
    "data.task_train=8", "data.task_eval=4", "data.n_probe=4",
    "data.sentence_min_len=4", "data.sentence_max_len=7",
    "model.d_model=16", "model.n_heads=2", "model.d_ffn=32", "model.max_positions=32",
    "stage1.steps=6", "stage1.warmup_steps=2", "stage1.lr=1e-3", "stage1.batch_size=8",
    "stage2.steps=6", "stage2.warmup_steps=2", "stage2.lr=1e-3", "stage2.batch_size=8",
    "finetune.steps=4", "finetune.batch_size=8", "finetune.lr=1e-3",
    "decode.max_len=6", "decode.beam_size=2",
]:
    FAST += ["--set", kv]


def run(*argv):
    return main(list(argv))


def files_equal(a, b):
    return a.read_bytes() == b.read_bytes()


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One fast gen-data + stage1 + stage2 pipeline shared by the read-only tests."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "data"
    assert run(*FAST, "gen-data", "--out", str(data)) == 0
    ck1 = root / "stage1.ckpt"
    tr1 = root / "stage1.csv"
    assert run(*FAST, "pretrain", "--stage", "1", "--data", str(data),
               "--out", str(ck1), "--trace", str(tr1)) == 0
    ck2 = root / "stage2.ckpt"
    assert run(*FAST, "pretrain", "--stage", "2", "--data", str(data),
               "--init", str(ck1), "--out", str(ck2)) == 0
    return {"root": root, "data": data, "stage1": ck1, "stage2": ck2, "trace1": tr1}


def test_gen_data_is_deterministic_and_guarded(tmp_path, capsys):
    out1 = tmp_path / "nested" / "d1"   # missing parents are created
    out2 = tmp_path / "d2"
    assert run(*FAST, "gen-data", "--out", str(out1)) == 0
    assert run(*FAST, "gen-data", "--out", str(out2)) == 0
    names = sorted(p.name for p in out1.iterdir())
    assert "vocab.txt" in names and "parallel.jsonl" in names
    for name in names:
        assert files_equal(out1 / name, out2 / name), name

    # refuses to overwrite without --force
    assert run(*FAST, "gen-data", "--out", str(out1)) == 2
    err = capsys.readouterr().err
    assert "--force" in err
    assert run(*FAST, "gen-data", "--out", str(out1), "--force") == 0


def test_unknown_config_key_exits_2(tmp_path, capsys):
    code = run("--set", "stage1.bogus_knob=3", "gen-data", "--out", str(tmp_path / "x"))
    assert code == 2
    assert "stage1.bogus_knob" in capsys.readouterr().err


def test_non_integer_value_for_integer_key_exits_2(workspace, tmp_path, capsys):
    out = tmp_path / "s1.ckpt"
    code = run(*FAST, "--set", "stage1.steps=2.5", "pretrain", "--stage", "1",
               "--data", str(workspace["data"]), "--out", str(out))
    assert code == 2
    assert "stage1.steps" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("setting", ["data.sentence_min_len=0", "model.n_heads=3",
                                     "stage1.warmup_steps=5000", "noise.mask_rate=2.0"])
def test_out_of_range_config_value_exits_2(workspace, tmp_path, capsys, setting):
    section = setting.split(".")[0]
    out = tmp_path / "out"
    command = (["gen-data", "--out", str(out)] if section == "data" else
               ["pretrain", "--stage", "1", "--data", str(workspace["data"]), "--out", str(out)])
    assert run(*FAST, "--set", setting, *command) == 2
    assert f"config section {section}:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("weight", ["-1", "NaN"])
def test_negative_or_non_finite_stage2_weight_exits_2(workspace, tmp_path, capsys, weight):
    sets = [*FAST, "--set", f"stage2.dae_weight={weight}"]
    out, report = tmp_path / "s2.ckpt", tmp_path / "r.json"
    assert run(*sets, "pretrain", "--stage", "2", "--data", str(workspace["data"]),
               "--init", str(workspace["stage1"]), "--out", str(out)) == 2
    assert "config section stage2: dae_weight" in capsys.readouterr().err
    assert run(*sets, "ablate", "--which", "no_xae", "--report", str(report)) == 2
    assert "config section stage2: dae_weight" in capsys.readouterr().err
    assert not out.exists() and not report.exists()


def test_config_file_overlay(tmp_path):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"data": {"n_mono": 41}}))
    from crossgen.config import load_config
    cfg = load_config(cfg_file, ["data.n_parallel=11"])
    assert cfg["data"]["n_mono"] == 41
    assert cfg["data"]["n_parallel"] == 11


def test_learn_vocab_command(tmp_path, capsys):
    text = tmp_path / "corpus.txt"
    text.write_text("red cat\nred cat\nred dog\n")
    out = tmp_path / "vocab.txt"
    assert run("learn-vocab", "--input", str(text), "--out", str(out),
               "--merges", "1") == 0
    content = out.read_text()
    assert "red cat\t" in content  # merged token present

    char_out = tmp_path / "vocab_char.txt"
    text2 = tmp_path / "chars.txt"
    text2.write_text("ab ab ab\n")
    assert run("learn-vocab", "--input", str(text2), "--out", str(char_out),
               "--merges", "1", "--char-base") == 0
    assert "ab\t" in char_out.read_text()


def test_pretrain_artifacts_and_determinism(workspace, tmp_path):
    trace_lines = workspace["trace1"].read_text().strip().splitlines()
    assert trace_lines[0] == "step,objective,loss,lr"
    assert len(trace_lines) == 1 + 6  # header + steps

    rerun = tmp_path / "stage1_again.ckpt"
    assert run(*FAST, "pretrain", "--stage", "1", "--data", str(workspace["data"]),
               "--out", str(rerun)) == 0
    assert checkpoint_digest(rerun) == checkpoint_digest(workspace["stage1"])


def test_pretrain_save_every_writes_step_checkpoints(workspace, tmp_path):
    out = tmp_path / "ck" / "final.ckpt"
    assert run(*FAST, "pretrain", "--stage", "1", "--data", str(workspace["data"]),
               "--out", str(out), "--save-every", "3") == 0
    names = sorted(p.name for p in out.parent.iterdir())
    assert names == ["final.ckpt", "stage1_step000003.ckpt", "stage1_step000006.ckpt"]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_pretrain_stops_on_non_finite_loss(workspace, tmp_path, capsys):
    out = tmp_path / "s1.ckpt"
    code = run(*FAST, "--set", "stage1.lr=1e30", "pretrain", "--stage", "1",
               "--data", str(workspace["data"]), "--out", str(out))
    assert code == 1
    err = capsys.readouterr().err
    assert "non-finite loss" in err and "stage1" in err
    assert not out.exists()


def test_stage2_requires_stage1_checkpoint(workspace, tmp_path, capsys):
    code = run(*FAST, "pretrain", "--stage", "2", "--data", str(workspace["data"]),
               "--out", str(tmp_path / "s2.ckpt"))
    assert code == 2
    assert "--init" in capsys.readouterr().err


def test_finetune_strategies_and_rejection(workspace, tmp_path, capsys):
    task = workspace["data"] / "task_la_train.jsonl"
    out = tmp_path / "ft.ckpt"
    assert run(*FAST, "finetune", "--ckpt", str(workspace["stage2"]), "--task",
               str(task), "--strategy", "et", "--out", str(out)) == 0
    printed = capsys.readouterr().out
    assert "hash unchanged" in printed

    code = run(*FAST, "finetune", "--ckpt", str(workspace["stage2"]), "--task",
               str(task), "--strategy", "nope", "--out", str(tmp_path / "x.ckpt"))
    assert code == 2
    assert "strategy" in capsys.readouterr().err


def test_generate_evaluate_roundtrip(workspace, tmp_path, capsys):
    # manifest from two probe sentences, then score outputs against themselves:
    # identical hypothesis/reference pairs must give BLEU exactly 1
    probe = [json.loads(line) for line in
             (workspace["data"] / "probe_la.jsonl").read_text().splitlines()]
    manifest = tmp_path / "manifest.jsonl"
    with manifest.open("w") as fh:
        for rec in probe[:2]:
            fh.write(json.dumps({"input": rec["ids"], "src_lang": "la",
                                 "tgt_lang": "lb"}) + "\n")
    outputs = tmp_path / "outputs.jsonl"
    assert run(*FAST, "generate", "--ckpt", str(workspace["stage2"]), "--manifest",
               str(manifest), "--out", str(outputs)) == 0
    rows = [json.loads(line) for line in outputs.read_text().splitlines()]
    assert len(rows) == 2
    assert all("output" in r and "score" in r for r in rows)

    refs = tmp_path / "refs.jsonl"
    with refs.open("w") as fh:
        for r in rows:
            target = r["output"] if r["output"] else [6]
            fh.write(json.dumps({"input": [6, 2, 6], "target": target,
                                 "lang": "lb"}) + "\n")
    report_path = tmp_path / "report.json"
    nonempty = all(r["output"] for r in rows)
    assert run(*FAST, "evaluate", "--outputs", str(outputs), "--refs", str(refs),
               "--report", str(report_path),
               "--lexicon", str(workspace["data"] / "mono_lb.jsonl")) == 0
    report = json.loads(report_path.read_text())
    if nonempty:
        assert report["bleu4"] == pytest.approx(1.0)
        assert report["rouge1"] == pytest.approx(1.0)
    assert report["n_examples"] == 2
    assert "config" in report


def test_generate_with_restriction(workspace, tmp_path):
    manifest = tmp_path / "m.jsonl"
    manifest.write_text(json.dumps({"input": [6, 7], "src_lang": "la",
                                    "tgt_lang": "lb"}) + "\n")
    out = tmp_path / "o.jsonl"
    assert run(*FAST, "generate", "--ckpt", str(workspace["stage2"]),
               "--manifest", str(manifest), "--out", str(out),
               "--restrict", str(workspace["data"] / "mono_lb.jsonl")) == 0
    row = json.loads(out.read_text())
    allowed = set()
    for line in (workspace["data"] / "mono_lb.jsonl").read_text().splitlines():
        allowed.update(json.loads(line)["ids"])
    assert all(t in allowed for t in row["output"])


def test_generate_rejects_over_long_input(workspace, tmp_path, capsys):
    manifest = tmp_path / "long.jsonl"
    with manifest.open("w") as fh:
        for ids in ([6, 7], [6, 7] * 20):   # the second is longer than max_positions=32
            fh.write(json.dumps({"input": ids, "src_lang": "la", "tgt_lang": "lb"}) + "\n")
    out = tmp_path / "o.jsonl"
    code = run(*FAST, "generate", "--ckpt", str(workspace["stage2"]),
               "--manifest", str(manifest), "--out", str(out))
    assert code == 2
    err = capsys.readouterr().err
    assert str(manifest) in err and "input 1 has 40 tokens" in err
    assert not out.exists()


@pytest.mark.parametrize("bad", [-1, 999])
def test_generate_rejects_out_of_range_token_id(workspace, tmp_path, capsys, bad):
    manifest = tmp_path / "bad_id.jsonl"
    manifest.write_text(json.dumps({"input": [6, bad, 7], "src_lang": "la",
                                    "tgt_lang": "lb"}) + "\n")
    out = tmp_path / "o.jsonl"
    code = run(*FAST, "generate", "--ckpt", str(workspace["stage2"]),
               "--manifest", str(manifest), "--out", str(out))
    assert code == 2
    err = capsys.readouterr().err
    assert str(manifest) in err and f"token id {bad} outside" in err
    assert not out.exists()


def test_malformed_manifest_reports_line(workspace, tmp_path, capsys):
    manifest = tmp_path / "bad.jsonl"
    manifest.write_text('{"input": [6], "src_lang": "la", "tgt_lang": "lb"}\n{oops\n')
    code = run(*FAST, "generate", "--ckpt", str(workspace["stage2"]),
               "--manifest", str(manifest), "--out", str(tmp_path / "o.jsonl"))
    assert code == 2
    assert "line 2" in capsys.readouterr().err


@pytest.mark.parametrize("field", ["src_lang", "tgt_lang"])
def test_generate_rejects_unknown_language(workspace, tmp_path, capsys, field):
    row = {"input": [6, 7], "src_lang": "la", "tgt_lang": "lb", field: "lc"}
    manifest = tmp_path / "lang.jsonl"
    manifest.write_text(json.dumps(row) + "\n")
    out = tmp_path / "o.jsonl"
    code = run(*FAST, "generate", "--ckpt", str(workspace["stage2"]),
               "--manifest", str(manifest), "--out", str(out))
    assert code == 2
    err = capsys.readouterr().err
    assert str(manifest) in err and "input 0: unknown language 'lc'" in err
    assert not out.exists()


def test_finetune_rejects_unknown_language(workspace, tmp_path, capsys):
    task = tmp_path / "task.jsonl"
    task.write_text(json.dumps({"input": [6, 2, 6], "target": [6], "lang": "lc"}) + "\n")
    out = tmp_path / "ft.ckpt"
    code = run(*FAST, "finetune", "--ckpt", str(workspace["stage2"]), "--task", str(task),
               "--strategy", "et", "--out", str(out))
    assert code == 2
    assert f"{task}: unknown language 'lc'" in capsys.readouterr().err
    assert not out.exists()


def test_evaluate_rejects_bad_input_files(workspace, tmp_path, capsys):
    outputs = tmp_path / "outputs.jsonl"
    outputs.write_text(json.dumps({"output": [6]}) + "\n")
    refs = tmp_path / "refs.jsonl"
    refs.write_text(json.dumps({"input": [6, 2, 6], "target": [6], "lang": "lc"}) + "\n")
    report = tmp_path / "report.json"
    assert run(*FAST, "evaluate", "--outputs", str(outputs), "--refs", str(refs),
               "--report", str(report)) == 2
    assert f"{refs}: unknown language 'lc'" in capsys.readouterr().err

    bad_outputs = tmp_path / "bad_outputs.jsonl"
    bad_outputs.write_text('{"output": [6]}\n{oops\n')
    assert run(*FAST, "evaluate", "--outputs", str(bad_outputs),
               "--refs", str(workspace["data"] / "task_la_eval.jsonl"),
               "--report", str(report)) == 2
    err = capsys.readouterr().err
    assert str(bad_outputs) in err and "line 2" in err
    assert not report.exists()


def test_pretrain_rejects_unknown_corpus_language(workspace, tmp_path, capsys):
    data = tmp_path / "data"
    shutil.copytree(workspace["data"], data)
    mono = data / "mono_la.jsonl"
    mono.write_text(mono.read_text().replace('"lang":"la"', '"lang":"lc"'))
    out = tmp_path / "s1.ckpt"
    code = run(*FAST, "pretrain", "--stage", "1", "--data", str(data), "--out", str(out))
    assert code == 2
    assert f"{mono}: unknown language 'lc'" in capsys.readouterr().err
    assert not out.exists()


def test_generate_rejects_unknown_restrict_language(workspace, tmp_path, capsys):
    manifest = tmp_path / "m.jsonl"
    manifest.write_text(json.dumps({"input": [6, 7], "src_lang": "la",
                                    "tgt_lang": "lb"}) + "\n")
    restrict = tmp_path / "restrict.jsonl"
    restrict.write_text(json.dumps({"lang": "lc", "ids": [6, 7]}) + "\n")
    out = tmp_path / "o.jsonl"
    code = run(*FAST, "generate", "--ckpt", str(workspace["stage2"]), "--manifest",
               str(manifest), "--out", str(out), "--restrict", str(restrict))
    assert code == 2
    assert f"{restrict}: unknown language 'lc'" in capsys.readouterr().err
    assert not out.exists()


def test_generate_rejects_empty_restrict_file(workspace, tmp_path, capsys):
    manifest = tmp_path / "m.jsonl"
    manifest.write_text(json.dumps({"input": [6, 7], "src_lang": "la",
                                    "tgt_lang": "lb"}) + "\n")
    restrict = tmp_path / "empty.jsonl"
    restrict.write_text("")
    out = tmp_path / "o.jsonl"
    code = run(*FAST, "generate", "--ckpt", str(workspace["stage2"]), "--manifest",
               str(manifest), "--out", str(out), "--restrict", str(restrict))
    assert code == 2
    assert f"{restrict}: cannot restrict vocabulary from an empty corpus" in (
        capsys.readouterr().err)
    assert not out.exists()


def _forbid_training(monkeypatch):
    import crossgen.experiments as experiments

    def fail(*args, **kwargs):
        raise AssertionError("training started")
    monkeypatch.setattr(experiments, "pretrain_stage1", fail)


@pytest.mark.parametrize("sets, command, flags, key", [
    ([], "generate", ["--beam", "0"], "beam_size"),
    ([], "generate", ["--max-len", "0"], "max_len"),
    (["--set", "decode.beam_size=0"], "generate", [], "beam_size"),
    (["--set", "decode.beam_size=0"], "ablate", [], "beam_size"),
], ids=["generate-beam", "generate-max-len", "generate-config", "ablate-config"])
def test_bad_decode_setting_exits_2_before_any_work(workspace, tmp_path, capsys, monkeypatch,
                                                    sets, command, flags, key):
    _forbid_training(monkeypatch)
    manifest = tmp_path / "m.jsonl"
    manifest.write_text(json.dumps({"input": [6, 7], "src_lang": "la",
                                    "tgt_lang": "lb"}) + "\n")
    out = tmp_path / "out.json"
    paths = {"generate": ["--ckpt", str(workspace["stage2"]), "--manifest", str(manifest),
                          "--out", str(out)],
             "ablate": ["--which", "no_dae", "--report", str(out)]}
    assert run(*FAST, *sets, command, *paths[command], *flags) == 2
    assert f"config section decode: {key}" in capsys.readouterr().err
    assert not out.exists()


def test_ablate_checks_variant_weights_before_training(tmp_path, capsys, monkeypatch):
    _forbid_training(monkeypatch)
    report = tmp_path / "r.json"
    assert run(*FAST, "--set", "stage2.dae_weight=0", "ablate", "--which", "no_xae",
               "--report", str(report)) == 2
    assert ("config section stage2: a plan needs at least one active objective "
            "(stage-2 variant no_xae)") in capsys.readouterr().err
    assert not report.exists()


def test_truncated_checkpoint_is_a_usage_error(workspace, tmp_path, capsys):
    ckpt = tmp_path / "truncated.ckpt"
    ckpt.write_bytes(workspace["stage2"].read_bytes()[:-8])
    out = tmp_path / "ft.ckpt"
    code = run(*FAST, "finetune", "--ckpt", str(ckpt), "--task",
               str(workspace["data"] / "task_la_train.jsonl"), "--strategy", "et",
               "--out", str(out))
    assert code == 2
    err = capsys.readouterr().err
    assert str(ckpt) in err and "payload" in err
    assert not out.exists()


def test_gen_data_honours_language_names(tmp_path):
    sets = [*FAST, "--set", 'languages=["en","de"]']
    data = tmp_path / "data"
    assert run(*sets, "gen-data", "--out", str(data)) == 0
    assert {"mono_en.jsonl", "mono_de.jsonl", "task_de_eval.jsonl"} <= {
        p.name for p in data.iterdir()}
    assert json.loads((data / "mono_de.jsonl").read_text().splitlines()[0])["lang"] == "de"
    assert run(*sets, "pretrain", "--stage", "1", "--data", str(data),
               "--out", str(tmp_path / "s1.ckpt")) == 0


def test_ablate_strategies_report(workspace, tmp_path):
    report_path = tmp_path / "strategies.json"
    assert run(*FAST, "ablate", "--which", "strategies", "--init",
               str(workspace["stage2"]), "--report", str(report_path)) == 0
    report = json.loads(report_path.read_text())
    strategies = {row["strategy"] for row in report["rows"]}
    assert strategies == {"all", "enc", "dec", "et"}
    assert report["seed"] == 0
    assert report["config_echo"]["stage1"]["steps"] == 6


def test_ablate_objectives_report(tmp_path):
    report_path = tmp_path / "objectives.json"
    assert run(*FAST, "ablate", "--which", "no_xae,no_dae", "--report",
               str(report_path)) == 0
    report = json.loads(report_path.read_text())
    variants = [row["variant"] for row in report["rows"]]
    assert variants == ["full", "no_xae", "no_dae"]
    for row in report["rows"]:
        assert "zero_shot_bleu4" in row and "flipped_membership" in row


def test_ablate_trains_stage1_once(tmp_path, monkeypatch):
    import crossgen.experiments as experiments

    calls = []
    for name in ("pretrain_stage1", "pretrain_stage2"):
        def counted(*args, _name=name, _fn=getattr(experiments, name), **kwargs):
            calls.append(_name)
            return _fn(*args, **kwargs)
        monkeypatch.setattr(experiments, name, counted)
    assert run(*FAST, "ablate", "--which", "no_xae,no_dae,strategies", "--report",
               str(tmp_path / "r.json")) == 0
    assert calls.count("pretrain_stage1") == 1
    assert calls.count("pretrain_stage2") == 3   # full, no_xae, no_dae


@pytest.mark.parametrize("setting", ["stage2.batch_size=4", "stage2.dae_weight=1.0"])
def test_ablate_honours_stage2_settings(workspace, tmp_path, setting):
    """Pre-training inside `ablate` matches `pretrain --stage 2` under the same config."""
    sets = [*FAST, "--set", setting]
    ck2 = tmp_path / "stage2.ckpt"
    assert run(*sets, "pretrain", "--stage", "2", "--data", str(workspace["data"]),
               "--init", str(workspace["stage1"]), "--out", str(ck2)) == 0
    reports = []
    for init in (["--init", str(ck2)], []):
        path = tmp_path / f"r{len(reports)}.json"
        assert run(*sets, "ablate", "--which", "strategies", *init,
                   "--report", str(path)) == 0
        reports.append(json.loads(path.read_text())["rows"])
    assert reports[0] == reports[1]


def test_ablate_rejects_unknown_axis(tmp_path, capsys):
    assert run("ablate", "--which", "everything", "--report",
               str(tmp_path / "r.json")) == 2
    assert "everything" in capsys.readouterr().err


def test_console_entry_point_runs():
    proc = subprocess.run([sys.executable, "-m", "crossgen.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "gen-data" in proc.stdout
