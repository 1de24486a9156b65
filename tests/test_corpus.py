import json

import pytest

from oracles import recompute_task_target, ref_translate

from crossgen.corpus import (MonolingualCorpus, SynthConfig, TaskExample,
                             generate_twin_languages, load_mono_jsonl,
                             load_parallel_jsonl, load_task_jsonl, make_task_dataset,
                             save_mono_jsonl, save_parallel_jsonl, save_task_jsonl)
from crossgen.vocab import SEP_ID, LanguageTag


def small_cfg(**kw):
    base = dict(vocab_size_per_lang=12, sentence_len_range=(4, 9), n_mono=40,
                n_parallel=25, reorder_window=2, bigram_bias=0.5, seed=5)
    base.update(kw)
    return SynthConfig(**base)


def test_window_one_is_pure_relabeling():
    data = generate_twin_languages(small_cfg(reorder_window=1))
    for sent in data.mono_a.sentences[:10]:
        assert data.translate(sent) == [data.sigma[t] for t in sent]


def test_translate_is_a_bijection():
    data = generate_twin_languages(small_cfg(reorder_window=3))
    for sent in data.mono_a.sentences[:20]:
        assert data.translate_back(data.translate(sent)) == sent
    for x, y in data.parallel.pairs[:20]:
        assert data.translate(x) == y
        assert data.translate_back(y) == x


@pytest.mark.parametrize("window", [1, 2, 3, 5])
def test_translate_matches_reference_oracle(window):
    data = generate_twin_languages(small_cfg(reorder_window=window))
    for sent in data.mono_a.sentences[:15]:
        assert data.translate(sent) == ref_translate(sent, data.sigma, window)


def test_fixed_seed_reproduces_corpora():
    d1 = generate_twin_languages(small_cfg())
    d2 = generate_twin_languages(small_cfg())
    assert d1.mono_a.sentences == d2.mono_a.sentences
    assert d1.mono_b.sentences == d2.mono_b.sentences
    assert d1.parallel.pairs == d2.parallel.pairs
    assert d1.sigma == d2.sigma


def test_pools_are_disjoint():
    data = generate_twin_languages(small_cfg())
    mono_a = {tuple(s) for s in data.mono_a.sentences}
    par_src = {tuple(x) for x, _ in data.parallel.pairs}
    assert not mono_a & par_src
    mono_b = {tuple(s) for s in data.mono_b.sentences}
    par_tgt = {tuple(y) for _, y in data.parallel.pairs}
    assert not mono_b & par_tgt


def test_lexicons_disjoint_and_cover_sentences():
    data = generate_twin_languages(small_cfg())
    lex_a = data.lexicons[data.lang_a.name]
    lex_b = data.lexicons[data.lang_b.name]
    assert not lex_a & lex_b
    assert all(t in lex_a for s in data.mono_a.sentences for t in s)
    assert all(t in lex_b for s in data.mono_b.sentences for t in s)


def test_task_rule_smallest_cases():
    # sentence [t1 t2 t3], span [t2] -> input [t1 t2 t3 [S] t2], target [t2 m]
    t1, t2, t3, marker = 7, 8, 9, 10
    ex = TaskExample(input=[t1, t2, t3, SEP_ID, t2], target=[t2, marker],
                     lang=LanguageTag(0, "la"))
    assert recompute_task_target(ex.input, marker) == ex.target
    # span [t2 t3] -> target [t3 t2 m]
    assert recompute_task_target([t1, t2, t3, SEP_ID, t2, t3], marker) == [t3, t2, marker]


def test_make_task_dataset_targets_recomputable():
    data = generate_twin_languages(small_cfg())
    marker = data.marker_id(data.lang_a)
    ds = make_task_dataset(data.mono_a, 30, seed=3, marker_id=marker)
    assert len(ds) == 30
    for ex in ds:
        assert ex.input.count(SEP_ID) == 1
        assert ex.target == recompute_task_target(ex.input, marker)
        sep = ex.input.index(SEP_ID)
        sentence, span = ex.input[:sep], ex.input[sep + 1:]
        assert 1 <= len(span) <= 3
        # span is a contiguous slice of the sentence
        assert any(sentence[i:i + len(span)] == span
                   for i in range(len(sentence) - len(span) + 1))


def test_task_dataset_is_language_universal_up_to_sigma():
    # with window 1 the twin example is exactly the sigma-image of the original
    data = generate_twin_languages(small_cfg(reorder_window=1))
    sents_a = data.mono_a.sentences[:12]
    corpus_a = MonolingualCorpus(data.lang_a, sents_a)
    corpus_b = MonolingualCorpus(data.lang_b, [data.translate(s) for s in sents_a])
    ds_a = make_task_dataset(corpus_a, 12, seed=9, marker_id=data.marker_id(data.lang_a))
    ds_b = make_task_dataset(corpus_b, 12, seed=9, marker_id=data.marker_id(data.lang_b))
    sigma = dict(data.sigma)
    sigma[SEP_ID] = SEP_ID
    for ea, eb in zip(ds_a, ds_b):
        assert eb.input == [sigma[t] for t in ea.input]
        assert eb.target == [sigma[t] for t in ea.target]


def test_make_task_dataset_errors():
    data = generate_twin_languages(small_cfg())
    with pytest.raises(ValueError, match="requested"):
        make_task_dataset(data.mono_a, 10_000, seed=0, marker_id=data.marker_id(data.lang_a))
    with pytest.raises(ValueError, match="regular vocabulary token"):
        make_task_dataset(data.mono_a, 1, seed=0, marker_id=2)


def test_jsonl_roundtrips(tmp_path):
    data = generate_twin_languages(small_cfg())
    langs = {"la": data.lang_a, "lb": data.lang_b}

    mono_path = tmp_path / "mono.jsonl"
    save_mono_jsonl(data.mono_a, mono_path)
    loaded = load_mono_jsonl(mono_path, langs)
    assert loaded.sentences == data.mono_a.sentences
    assert loaded.lang == data.lang_a
    # save -> load -> save is byte identical
    mono2 = tmp_path / "mono2.jsonl"
    save_mono_jsonl(loaded, mono2)
    assert mono_path.read_bytes() == mono2.read_bytes()

    par_path = tmp_path / "par.jsonl"
    save_parallel_jsonl(data.parallel, par_path)
    par = load_parallel_jsonl(par_path, langs)
    assert par.pairs == data.parallel.pairs

    ds = make_task_dataset(data.mono_a, 5, seed=1, marker_id=data.marker_id(data.lang_a))
    task_path = tmp_path / "task.jsonl"
    save_task_jsonl(ds, task_path)
    back = load_task_jsonl(task_path, langs)
    assert [(e.input, e.target, e.lang) for e in back] == \
           [(e.input, e.target, e.lang) for e in ds]


def test_jsonl_empty_and_malformed(tmp_path):
    langs = {"la": LanguageTag(0, "la")}
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    assert load_mono_jsonl(empty, langs).sentences == []

    bad = tmp_path / "bad.jsonl"
    good_line = json.dumps({"lang": "la", "ids": [7, 8]})
    bad.write_text(good_line + "\n" + good_line[: len(good_line) // 2] + "\n")
    with pytest.raises(ValueError, match="line 2"):
        load_mono_jsonl(bad, langs)

    missing = tmp_path / "missing.jsonl"
    missing.write_text(json.dumps({"lang": "la"}) + "\n")
    with pytest.raises(ValueError, match="line 1"):
        load_mono_jsonl(missing, langs)


def test_synth_config_validation():
    with pytest.raises(ValueError):
        SynthConfig(sentence_len_range=(0, 4))
    with pytest.raises(ValueError):
        SynthConfig(reorder_window=0)
    with pytest.raises(ValueError):
        SynthConfig(bigram_bias=1.5)
