"""The benchmark's reference formulas, and each check failing on a corrupted output."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

import checks
from crossgen.evaluation import MetricReport
from crossgen.model import ModelConfig, Seq2SeqModel
from crossgen.generation import DecodeConfig, beam_search
from crossgen.training import TraceRow
from crossgen.vocab import BOS_ID, EOS_ID, LanguageTag


def test_bleu4_hand_computed():
    # hyp 1 2 3 4 vs ref 1 2 3 5: unigrams 3/4, bigrams 2/3, trigrams 1/2,
    # 4-grams 0/1; add-one above unigrams; equal lengths, no brevity penalty
    want = math.exp((math.log(3 / 4) + math.log(3 / 4) + math.log(2 / 3)
                     + math.log(1 / 2)) / 4)
    assert checks.ref_bleu4([[1, 2, 3, 4]], [[1, 2, 3, 5]]) == pytest.approx(want, abs=1e-15)
    # a two-token hypothesis against a four-token reference: BP = exp(1 - 4/2)
    want = math.exp(-1.0) * math.exp((0.0 + 0.0 + 0.0 + 0.0) / 4)
    assert checks.ref_bleu4([[7, 8]], [[7, 8, 9, 9]]) == pytest.approx(want, abs=1e-15)
    assert checks.ref_bleu4([[]], [[1]]) == 0.0
    assert checks.ref_bleu4([[2, 2]], [[1]]) == 0.0


def test_rouge_hand_computed():
    # hyp 1 1 2 vs ref 1 2 2: clipped unigram hits 2 of 3 each way
    assert checks.ref_rouge_n([1, 1, 2], [1, 2, 2], 1) == pytest.approx(2 / 3)
    # bigrams (1,1),(1,2) vs (1,2),(2,2): one hit, P = R = 1/2
    assert checks.ref_rouge_n([1, 1, 2], [1, 2, 2], 2) == pytest.approx(1 / 2)
    # LCS of 1 3 2 4 and 1 2 3 4 is 3: P = R = 3/4
    assert checks.ref_rouge_l([1, 3, 2, 4], [1, 2, 3, 4]) == pytest.approx(3 / 4)
    # P = 1/1, R = 1/3 -> F = 2 * 1/3 / (4/3) = 1/2
    assert checks.ref_rouge_l([5], [5, 6, 7]) == pytest.approx(1 / 2)
    assert checks.ref_rouge_n([], [1, 2], 1) == 0.0


def test_report_metrics_check_agrees_and_catches_a_perturbed_score():
    hyps, refs = [[1, 2, 3], [4, 5], []], [[1, 2, 4], [4, 5, 6], [7]]
    report = {
        "bleu4": checks.ref_bleu4(hyps, refs),
        "rouge1": sum(checks.ref_rouge_n(h, r, 1) for h, r in zip(hyps, refs)) / 3,
        "rouge2": sum(checks.ref_rouge_n(h, r, 2) for h, r in zip(hyps, refs)) / 3,
        "rougeL": sum(checks.ref_rouge_l(h, r) for h, r in zip(hyps, refs)) / 3,
    }
    assert checks.check_report_metrics(report, hyps, refs, "r") == []
    report["rouge2"] += 1e-6
    assert len(checks.check_report_metrics(report, hyps, refs, "r")) == 1


def test_lr_check_against_schedule():
    rows = [TraceRow(s, "mlm", 1.0, checks.ref_lr(s, 1e-3, 4, 10)) for s in range(1, 11)]
    assert rows[3].lr == pytest.approx(1e-3) and rows[-1].lr == 0.0
    assert checks.check_lr(rows, 1e-3, 4, 10) == []
    rows[6] = TraceRow(7, "mlm", 1.0, rows[6].lr * (1 + 1e-9))
    assert len(checks.check_lr(rows, 1e-3, 4, 10)) == 1


def test_nan_loss_and_non_falling_loss_are_caught():
    rows = [TraceRow(s, "dae", 10.0 - s, 0.0) for s in range(1, 9)]
    assert checks.check_finite(rows) == [] and checks.check_loss_falls(rows, 2) == []
    rows[5] = TraceRow(6, "dae", float("nan"), 0.0)
    assert len(checks.check_finite(rows)) == 1
    flat = [TraceRow(s, "xae", 3.0, 0.0) for s in range(1, 9)]
    assert len(checks.check_loss_falls(flat, 2)) == 1


def test_changed_frozen_parameter_is_caught():
    params = {"enc.w": SimpleNamespace(data=np.arange(6, dtype=np.float32)),
              "dec.w": SimpleNamespace(data=np.ones(3, dtype=np.float32))}
    before = checks.snapshot(params, lambda n: n.startswith("dec."))
    assert checks.check_frozen(before, params, "dec") == []
    params["enc.w"].data[0] = 9.0      # not frozen: allowed to change
    assert checks.check_frozen(before, params, "dec") == []
    params["dec.w"].data[2] = np.nextafter(np.float32(1.0), np.float32(2.0))
    assert len(checks.check_frozen(before, params, "dec")) == 1
    params["dec.w"].data[2] = 1.0
    params["dec.w"].data = params["dec.w"].data.astype(np.float64)
    assert len(checks.check_frozen(before, params, "dec")) == 1


def test_token_outside_restricted_set_and_overlong_output_are_caught():
    outputs = [[7, 8], [], [9, 7, 7]]
    assert checks.check_tokens_in(outputs, {7, 8, 9}, "g") == []
    assert len(checks.check_tokens_in([[7], [8, 10]], {7, 8, 9}, "g")) == 1
    assert checks.check_lengths(outputs, 3, "g") == []
    assert len(checks.check_lengths(outputs, 2, "g")) == 1


def test_membership_identity_is_caught_when_broken():
    ok = MetricReport(0.1, 0.2, 0.1, 0.2, lang_membership=0.75, n_examples=4,
                      n_empty_outputs=1)
    assert checks.check_membership_identity(ok, "z") == []
    bad = MetricReport(0.1, 0.2, 0.1, 0.2, lang_membership=0.7, n_examples=4,
                       n_empty_outputs=1)
    assert len(checks.check_membership_identity(bad, "z")) == 1


@pytest.mark.parametrize("max_len", [2, 6])
def test_score_recomputation_matches_beam_search_and_catches_perturbation(max_len):
    cfg = ModelConfig(enc_layers=1, dec_layers=1, d_model=16, n_heads=2, d_ffn=32,
                      max_positions=16, vocab_size=14)
    model = Seq2SeqModel.build(cfg, seed=3)
    la, lb = LanguageTag(0, "la"), LanguageTag(1, "lb")
    src = [6, 9, 11, 7]
    out, score = beam_search(model, src, la, DecodeConfig(lb, beam_size=3, max_len=max_len))
    want = checks.score_of(model, src, la.id, lb.id, out, max_len, BOS_ID, EOS_ID)
    assert checks.check_scores([score], [want], [len(out) + 1], "s") == []
    assert len(checks.check_scores([score + 0.01], [want], [len(out) + 1], "s")) == 1
