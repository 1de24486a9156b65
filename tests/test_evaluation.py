import json
import math

import numpy as np
import pytest

from oracles import ref_bleu4, ref_rouge_l, ref_rouge_n

from crossgen.evaluation import (MetricReport, bleu4, evaluate_corpus,
                                 lang_membership, rouge_l, rouge_n, save_report)


def test_bleu_perfect_match_is_one():
    corpus = [[1, 2, 3, 4, 5], [7, 8], [9, 9, 9, 9, 9, 9]]
    assert bleu4(corpus, corpus) == pytest.approx(1.0)


def test_bleu_hand_computed_case():
    # hyp "a b c d" vs ref "a b c d e": all precisions perfect,
    # brevity penalty e^(1 - 5/4)
    hyp = [[10, 11, 12, 13]]
    ref = [[10, 11, 12, 13, 14]]
    assert bleu4(hyp, ref) == pytest.approx(math.exp(-0.25), abs=1e-9)
    assert bleu4(hyp, ref) == pytest.approx(0.7788, abs=1e-4)


def test_bleu_disjoint_vocab_is_zero():
    assert bleu4([[1, 2, 3]], [[7, 8, 9]]) == 0.0


def test_bleu_errors():
    with pytest.raises(ValueError, match="mismatch"):
        bleu4([[1]], [[1], [2]])
    with pytest.raises(ValueError, match="empty"):
        bleu4([], [])


def test_rouge_identical_is_one():
    assert rouge_n([4, 5, 6], [4, 5, 6], 1) == pytest.approx(1.0)
    assert rouge_n([4, 5, 6], [4, 5, 6], 2) == pytest.approx(1.0)
    assert rouge_l([4, 5, 6], [4, 5, 6]) == pytest.approx(1.0)


def test_rouge1_hand_case():
    # hyp "a b", ref "a c": one shared unigram, P = R = 1/2, F1 = 0.5
    assert rouge_n([1, 2], [1, 3], 1) == pytest.approx(0.5)


def test_rouge_l_hand_case():
    # LCS("a c b", "a b c") = 2 -> P = R = 2/3
    assert rouge_l([1, 3, 2], [1, 2, 3]) == pytest.approx(2 / 3)


def test_rouge_empty_hypothesis_scores_zero():
    assert rouge_n([], [1, 2], 1) == 0.0
    assert rouge_l([], [1, 2]) == 0.0
    with pytest.raises(ValueError, match="non-empty"):
        rouge_n([1], [], 1)


def test_rouge_short_reference_orders():
    # reference shorter than n has no n-grams to recall
    assert rouge_n([1, 2, 3], [5], 2) == 0.0


def test_metrics_match_reference_implementations():
    rng = np.random.default_rng(77)
    hyps, refs = [], []
    for _ in range(50):
        hyps.append([int(t) for t in rng.integers(6, 20, size=rng.integers(1, 12))])
        refs.append([int(t) for t in rng.integers(6, 20, size=rng.integers(1, 12))])
    assert bleu4(hyps, refs) == pytest.approx(ref_bleu4(hyps, refs), abs=1e-6)
    for h, r in zip(hyps, refs):
        assert rouge_n(h, r, 1) == pytest.approx(ref_rouge_n(h, r, 1), abs=1e-6)
        assert rouge_n(h, r, 2) == pytest.approx(ref_rouge_n(h, r, 2), abs=1e-6)
        assert rouge_l(h, r) == pytest.approx(ref_rouge_l(h, r), abs=1e-6)


def test_corpus_metrics_are_permutation_invariant():
    rng = np.random.default_rng(3)
    hyps = [[int(t) for t in rng.integers(6, 15, size=6)] for _ in range(20)]
    refs = [[int(t) for t in rng.integers(6, 15, size=7)] for _ in range(20)]
    base = evaluate_corpus(hyps, refs, lexicon=range(6, 12))
    perm = rng.permutation(20)
    shuffled = evaluate_corpus([hyps[i] for i in perm], [refs[i] for i in perm],
                               lexicon=range(6, 12))
    assert base.bleu4 == pytest.approx(shuffled.bleu4, abs=1e-12)
    assert base.rouge1 == pytest.approx(shuffled.rouge1, abs=1e-12)
    assert base.rouge2 == pytest.approx(shuffled.rouge2, abs=1e-12)
    assert base.rougeL == pytest.approx(shuffled.rougeL, abs=1e-12)
    assert base.lang_membership == pytest.approx(shuffled.lang_membership, abs=1e-12)


def test_lang_membership_cases():
    lexicon = {6, 7, 8}
    assert lang_membership([6, 7, 8, 6], lexicon) == 1.0
    assert lang_membership([], lexicon) == 0.0
    assert lang_membership([6, 9], lexicon) == 0.5


def test_empty_outputs_are_flagged_in_report():
    report = evaluate_corpus([[], [5, 6]], [[5, 6], [5, 6]], lexicon={5, 6})
    assert report.n_empty_outputs == 1
    assert report.n_examples == 2


def test_report_bounds_validated():
    with pytest.raises(ValueError):
        MetricReport(bleu4=1.2, rouge1=0, rouge2=0, rougeL=0, lang_membership=0,
                     n_examples=1)


def test_save_report_includes_provenance(tmp_path):
    report = evaluate_corpus([[5, 6]], [[5, 6]])
    path = tmp_path / "report.json"
    save_report(report, path, config_echo={"beam_size": 3, "seed": 1})
    payload = json.loads(path.read_text())
    assert payload["bleu4"] == pytest.approx(1.0)
    assert payload["config"]["beam_size"] == 3
    assert "bleu_smoothing" in payload["config"]


def test_save_report_failure_keeps_previous_report(tmp_path):
    path = tmp_path / "report.json"
    save_report(evaluate_corpus([[5, 6]], [[5, 6]]), path, config_echo={"seed": 1})
    before = path.read_text()
    with pytest.raises(TypeError):
        save_report(evaluate_corpus([[5]], [[6]]), path, config_echo={"seed": object()})
    assert path.read_text() == before
    assert [p.name for p in tmp_path.iterdir()] == ["report.json"]
