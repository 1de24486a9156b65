import numpy as np
import pytest

from oracles import exhaustive_decode, reference_beam

from crossgen import generation
from crossgen.autodiff import Tensor
from crossgen.corpus import MonolingualCorpus, TaskExample
from crossgen.evaluation import evaluate_corpus
from crossgen.experiments import eval_task
from crossgen.generation import DecodeConfig, beam_search, beam_search_many, restrict_vocab
from crossgen.model import ModelConfig, Seq2SeqModel
from crossgen.vocab import (BOS_ID, EOS_ID, MASK_ID, NUM_SPECIALS, PAD_ID, SEP_ID,
                            LanguageTag)

LA = LanguageTag(0, "la")
LB = LanguageTag(1, "lb")


def tiny_model(seed, vocab_size=10):
    cfg = ModelConfig(enc_layers=1, dec_layers=1, d_model=8, n_heads=2, d_ffn=16,
                      max_positions=16, vocab_size=vocab_size, num_languages=2,
                      dtype="float64")
    return Seq2SeqModel.build(cfg, seed=seed)


def test_decode_config_validation():
    with pytest.raises(ValueError, match="beam_size"):
        DecodeConfig(tgt_lang=LB, beam_size=0)
    with pytest.raises(ValueError, match="EOS"):
        DecodeConfig(tgt_lang=LB, allowed_vocab={7, 8})
    DecodeConfig(tgt_lang=LB, allowed_vocab={EOS_ID, 7})


def test_restrict_vocab_union_plus_eos():
    corpus = MonolingualCorpus(LA, [[7, 8]])
    assert restrict_vocab(corpus) == {7, 8, EOS_ID}

    c1 = MonolingualCorpus(LA, [[6, 7], [8]])
    c2 = MonolingualCorpus(LB, [[9, 10]])
    r1, r2 = restrict_vocab(c1), restrict_vocab(c2)
    assert r1 & r2 == {EOS_ID}
    for banned in (MASK_ID, PAD_ID, BOS_ID):
        assert banned not in r1 | r2

    full = MonolingualCorpus(LA, [list(range(NUM_SPECIALS, 10))])
    assert restrict_vocab(full) == set(range(NUM_SPECIALS, 10)) | {EOS_ID}

    with pytest.raises(ValueError, match="empty"):
        restrict_vocab(MonolingualCorpus(LA, []))


def test_empty_input_rejected():
    model = tiny_model(0)
    with pytest.raises(ValueError, match="empty"):
        beam_search(model, [], LA, DecodeConfig(tgt_lang=LB, max_len=3))


@pytest.mark.parametrize("bad", [-1, 10, 99])
def test_out_of_range_token_ids_are_rejected(bad):
    model = tiny_model(0)   # vocabulary of 10 ids
    cfg = DecodeConfig(tgt_lang=LB, max_len=3)
    with pytest.raises(ValueError, match=f"token id {bad} outside"):
        beam_search_many(model, [[7, 8], [7, bad, 9]], LA, cfg)
    cfg = DecodeConfig(tgt_lang=LB, max_len=3, allowed_vocab={EOS_ID, bad, 7})
    with pytest.raises(ValueError, match=f"allowed_vocab holds token id {bad}"):
        beam_search(model, [7, 8], LA, cfg)


def test_allowed_vocab_only_eos_gives_empty_output():
    model = tiny_model(1)
    out, score = beam_search(model, [7, 8], LA,
                             DecodeConfig(tgt_lang=LB, beam_size=3, max_len=4,
                                          allowed_vocab={EOS_ID}))
    assert out == []
    assert score <= 0.0


def greedy_chain(model, input_ids, src_lang, tgt_lang, max_len, allowed):
    """Stepwise argmax with smallest-id tie-breaking (independent of beam code)."""
    import math

    from crossgen.autodiff import no_grad

    with no_grad():
        src = np.asarray([input_ids])
        enc = model.encode(src, np.full_like(src, src_lang.id))
        prefix = [BOS_ID]
        total = 0.0
        for _ in range(max_len):
            logits = model.decode_forward(enc, None, np.asarray([prefix]), tgt_lang.id)
            row = logits.data[0, -1]
            m = row.max()
            logp = row - (m + math.log(np.exp(row - m).sum()))
            best = min(allowed, key=lambda t: (-logp[t], t))
            total += float(logp[best])
            prefix.append(int(best))
            if best == EOS_ID:
                return prefix[1:-1], total
        return prefix[1:], total


def test_beam_one_equals_greedy_argmax_chain():
    allowed = list(range(NUM_SPECIALS, 10)) + [EOS_ID]
    for seed in range(8):
        model = tiny_model(seed)
        out, score = beam_search(model, [6, 7, 8], LA,
                                 DecodeConfig(tgt_lang=LB, beam_size=1, max_len=5,
                                              allowed_vocab=set(allowed)))
        greedy_out, greedy_score = greedy_chain(model, [6, 7, 8], LA, LB, 5, allowed)
        assert out == greedy_out
        assert score == pytest.approx(greedy_score, abs=1e-9)


def test_beam_matches_exhaustive_enumeration_oracle():
    allowed = [EOS_ID, 6, 7, 8]  # three content tokens plus EOS
    for seed in range(12):
        model = tiny_model(seed, vocab_size=9)
        cfg = DecodeConfig(tgt_lang=LB, beam_size=len(allowed) ** 3, max_len=3,
                           allowed_vocab=set(allowed))
        out, score = beam_search(model, [6, 8], LA, cfg)
        ref_out, ref_score = exhaustive_decode(model, [6, 8], LA, LB.id, allowed, 3)
        assert out == ref_out, f"seed {seed}: {out} vs {ref_out}"
        assert score == pytest.approx(ref_score, abs=1e-9)


def test_beam_score_monotone_in_beam_size():
    """Wider beams never return a worse finished hypothesis.

    The property is checked where every width returns a finished hypothesis:
    the finished-over-unfinished return preference makes scores incomparable
    when a wider beam finds an EOS path that a narrow beam never kept.
    """
    allowed = {EOS_ID, 6, 7, 8}
    max_len = 6
    checked = 0
    for seed in range(20):
        model = tiny_model(seed)
        results = [beam_search(model, [7, 9], LA,
                               DecodeConfig(tgt_lang=LB, beam_size=b, max_len=max_len,
                                            allowed_vocab=allowed))
                   for b in (1, 2, 3, 4, 6)]
        if any(len(out) == max_len for out, _ in results):
            continue  # an unfinished fallback; outside the comparable regime
        checked += 1
        scores = [s for _, s in results]
        for a, b in zip(scores, scores[1:]):
            assert b >= a - 1e-12, f"seed {seed}: {scores}"
    assert checked >= 5


def test_outputs_respect_restriction_and_length():
    allowed = {EOS_ID, 6, 7}
    for seed in range(5):
        model = tiny_model(seed)
        out, _ = beam_search(model, [8, 9, 6], LA,
                             DecodeConfig(tgt_lang=LB, beam_size=3, max_len=4,
                                          allowed_vocab=allowed))
        assert len(out) <= 4
        assert all(t in allowed - {EOS_ID} for t in out)


def test_over_long_input_rejected():
    model = tiny_model(3)
    long_input = [6, 7, 8, 9] * 8  # longer than max_positions=16
    with pytest.raises(ValueError, match="input 0 has 32 tokens.*max_positions 16"):
        beam_search(model, long_input, LA, DecodeConfig(tgt_lang=LB, max_len=3))
    with pytest.raises(ValueError, match="input 1 has 32 tokens"):
        beam_search_many(model, [[6, 7], long_input], LA, DecodeConfig(tgt_lang=LB, max_len=3))
    # exactly max_positions tokens still decode
    out, _ = beam_search(model, long_input[:16], LA, DecodeConfig(tgt_lang=LB, max_len=3))
    assert len(out) <= 3


def test_max_len_must_fit_positions():
    model = tiny_model(3)
    with pytest.raises(ValueError, match="max_positions"):
        beam_search(model, [6], LA, DecodeConfig(tgt_lang=LB, max_len=16))


def test_hypothesis_scores_never_increase_with_length():
    model = tiny_model(4)
    # run a beam and track that any returned finished score <= its prefix scores
    out, score = beam_search(model, [6, 7], LA,
                             DecodeConfig(tgt_lang=LB, beam_size=3, max_len=5))
    assert score <= 0.0


def test_decoding_is_deterministic():
    model = tiny_model(5)
    cfg = DecodeConfig(tgt_lang=LB, beam_size=3, max_len=5)
    assert beam_search(model, [6, 7, 8], LA, cfg) == beam_search(model, [6, 7, 8], LA, cfg)


def _encode_padded(model, sources, src_tags):
    width = max(len(s) for s in sources)
    ids = np.full((len(sources), width), PAD_ID)
    pad = np.ones((len(sources), width), dtype=bool)
    for i, s in enumerate(sources):
        ids[i, :len(s)], pad[i, :len(s)] = s, False
    tags = np.repeat(np.asarray(src_tags)[:, None], width, axis=1)
    return model.encode(ids, tags, pad), pad


def test_incremental_decoder_matches_full_prefix_logits():
    """Two tokens, then one token per step through the K/V cache, with a row
    reorder midway, give the teacher-forced logits of every position."""
    from crossgen.autodiff import no_grad

    cfg = ModelConfig(enc_layers=1, dec_layers=2, d_model=8, n_heads=2, d_ffn=16,
                      max_positions=16, vocab_size=12, num_languages=2, dtype="float64")
    rng = np.random.default_rng(0)
    for seed in range(4):
        model = Seq2SeqModel.build(cfg, seed=seed)
        sources = [[6, 7, 8], [9, 10, 11, 6, 7], [8]]
        src_tags, tgt_tags = np.array([0, 1, 0]), np.array([1, 1, 0])
        targets = rng.integers(NUM_SPECIALS, 12, size=(3, 7))
        targets[:, 0] = BOS_ID
        reorder_at, rows = 3, np.array([2, 0, 0])
        with no_grad():
            enc, pad = _encode_padded(model, sources, src_tags)
            cache = model.start_decoding(enc, pad)
            for lo in [0, *range(2, targets.shape[1])]:
                hi = 2 if lo == 0 else lo + 1
                if lo == reorder_at:
                    cache.reorder(rows)
                    targets, tgt_tags = targets[rows], tgt_tags[rows]
                    enc, pad = Tensor(enc.data[rows]), pad[rows]
                step = model.decode_forward(None, None, targets[:, lo:hi], tgt_tags,
                                            cache=cache).data
                full = model.decode_forward(enc, pad, targets[:, :hi], tgt_tags).data[:, lo:]
                np.testing.assert_allclose(step, full, rtol=0, atol=1e-10)


@pytest.mark.parametrize("beam", [1, 3, 8])
@pytest.mark.parametrize("restricted", [False, True])
def test_batched_decode_equals_decoding_each_source_alone(monkeypatch, beam, restricted):
    monkeypatch.setattr(generation, "CHUNK_SOURCES", 4)   # several chunks, one partial
    allowed = {EOS_ID, 6, 7, 9} if restricted else None
    sources = [[6, 7, 8], [9], [8, 9, 6, 7, 9, 8], [7, 7], [6, 9, 8, 7], [9, 6],
               [8, 8, 8, 8, 8], [6], [7, 8, 9], [9, 9, 6, 6, 7, 8, 6]]
    src_langs = [LA if i % 2 else LB for i in range(len(sources))]
    tgt_langs = [LB if i % 3 else LA for i in range(len(sources))]
    for seed in range(3):
        model = tiny_model(seed)
        cfg = DecodeConfig(tgt_lang=tgt_langs, beam_size=beam, max_len=6,
                           allowed_vocab=allowed)
        batched = beam_search_many(model, sources, src_langs, cfg)
        for src, s_lang, t_lang, (out, score) in zip(sources, src_langs, tgt_langs, batched):
            alone, alone_score = beam_search(
                model, src, s_lang, DecodeConfig(tgt_lang=t_lang, beam_size=beam, max_len=6,
                                                 allowed_vocab=allowed))
            assert out == alone
            assert score == pytest.approx(alone_score, abs=1e-9)


def _tie_model(seed, bias):
    """With the final layer norm zeroed, every step's logits are exactly the
    output bias: equal integer biases give exactly tied candidates."""
    model = tiny_model(seed)
    for name in ("dec.final_ln.g", "dec.final_ln.b"):
        model.params[name].data[:] = 0.0
    model.params["out_bias"].data[:] = bias
    return model


def test_exact_ties_resolve_by_lexicographic_ids():
    bias = np.zeros(10)
    bias[[7, 8]] = 1.0
    model = _tie_model(0, bias)
    allowed = {EOS_ID, 7, 8}
    for beam in (1, 2):   # a third slot would admit [EOS], which then wins as finished
        cfg = DecodeConfig(tgt_lang=LB, beam_size=beam, max_len=3, allowed_vocab=allowed)
        results = beam_search_many(model, [[6, 9], [7]], LA, cfg)
        assert [out for out, _ in results] == [[7, 7, 7], [7, 7, 7]]
    # EOS (id 4) ties with 7 and wins on ids: the output is empty
    model.params["out_bias"].data[EOS_ID] = 1.0
    out, _ = beam_search(model, [6, 9], LA, DecodeConfig(tgt_lang=LB, beam_size=1, max_len=3,
                                                         allowed_vocab=allowed))
    assert out == []


def _step_model(seed):
    """Logits quantised to multiples of -50 with one 0 per row: every log-prob
    is an exact integer (exp(-50) vanishes beside 1), so candidates from
    parents of different scores tie exactly, and the logits still depend on
    the whole prefix."""
    model = tiny_model(seed)
    decode_forward = model.decode_forward

    def quantised(*args, **kwargs):
        logits = decode_forward(*args, **kwargs).data
        top = logits.argmax(-1)[..., None]
        q = np.minimum(50.0 * (np.floor(logits * 4) - np.floor(logits.max(-1) * 4)[..., None]),
                       -50.0)
        np.put_along_axis(q, top, 0.0, axis=-1)
        return Tensor(q)

    model.decode_forward = quantised
    return model


@pytest.mark.parametrize("beam", [1, 2, 3, 8])
@pytest.mark.parametrize("restricted", [False, True])
def test_beam_search_equals_reference_full_sort_beam(beam, restricted):
    """The array beam equals an uncached beam that fully sorts every candidate
    by (-score, ids), on random models and on models with exact ties."""
    rng = np.random.default_rng(beam)
    allowed = [EOS_ID, 6, 7, 8] if restricted else list(range(10))
    # EOS, 7 and 8 tie at every step: [EOS] finishes first, and with beam >= 2
    # [7, EOS] finishes a step later beside it
    three_way = np.zeros(10)
    three_way[[EOS_ID, 7, 8]] = 1.0
    models = ([tiny_model(seed) for seed in range(3)]
              + [_tie_model(3, three_way)]
              + [_tie_model(seed, rng.integers(-1, 2, size=10)) for seed in (4, 5)]
              + [_step_model(seed) for seed in range(6, 12)])
    sources = [[6, 7, 8], [9], [8, 9, 6, 7], [7, 7], [6, 9, 8, 7, 6]]
    src_langs = [LA if i % 2 else LB for i in range(len(sources))]
    tgt_langs = [LB if i % 3 else LA for i in range(len(sources))]
    cfg = DecodeConfig(tgt_lang=tgt_langs, beam_size=beam, max_len=5,
                       allowed_vocab=set(allowed) if restricted else None)
    for model in models:
        decoded = beam_search_many(model, sources, src_langs, cfg)
        for src, s_lang, t_lang, (out, score) in zip(sources, src_langs, tgt_langs, decoded):
            ref_out, ref_score = reference_beam(model, src, s_lang, t_lang.id, allowed,
                                                beam, 5)
            assert out == ref_out
            assert score == pytest.approx(ref_score, abs=1e-9)


def test_eval_task_equals_per_example_decoding(monkeypatch):
    monkeypatch.setattr(generation, "CHUNK_SOURCES", 3)
    rng = np.random.default_rng(5)
    def ids(lo, hi):
        return [int(t) for t in rng.integers(6, 10, size=rng.integers(lo, hi))]

    examples = [TaskExample(input=ids(1, 6) + [SEP_ID] + ids(1, 3), target=ids(1, 4),
                            lang=LA if i % 2 else LB)
                for i in range(8)]
    model = tiny_model(2)
    report = eval_task(model, examples, LB, beam_size=3, max_len=5, lexicon={6, 7})
    cfg = DecodeConfig(tgt_lang=LB, beam_size=3, max_len=5)
    hyps = [beam_search(model, ex.input, ex.lang, cfg)[0] for ex in examples]
    assert report == evaluate_corpus(hyps, [ex.target for ex in examples], lexicon={6, 7})
