"""Automatic metrics over token-id sequences.

Corpus BLEU-4 with add-one smoothing on orders above 1, per-example averaged
ROUGE-1/2/L F1, and the language-membership diagnostic that quantifies
whether generated tokens come from the intended language's lexicon.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import asdict, dataclass
from typing import Iterable, Sequence

from .fileio import atomic_write


@dataclass
class MetricReport:
    bleu4: float
    rouge1: float
    rouge2: float
    rougeL: float
    lang_membership: float
    n_examples: int
    n_empty_outputs: int = 0

    def __post_init__(self):
        for name in ("bleu4", "rouge1", "rouge2", "rougeL", "lang_membership"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0 + 1e-12:
                raise ValueError(f"{name}={v} outside [0, 1]")


def _ngrams(seq: Sequence, n: int) -> Counter:
    return Counter(tuple(seq[i:i + n]) for i in range(len(seq) - n + 1))


def bleu4(hypotheses: Sequence[Sequence], references: Sequence[Sequence]) -> float:
    """Corpus-level BLEU-4: geometric mean of modified n-gram precisions
    (add-one smoothed for n >= 2) times the brevity penalty."""
    if len(hypotheses) != len(references):
        raise ValueError("hypothesis/reference count mismatch")
    if not hypotheses:
        raise ValueError("empty corpus")
    matches = [0] * 4
    totals = [0] * 4
    hyp_len = ref_len = 0
    for hyp, ref in zip(hypotheses, references):
        hyp_len += len(hyp)
        ref_len += len(ref)
        for n in range(1, 5):
            h_counts = _ngrams(hyp, n)
            r_counts = _ngrams(ref, n)
            matches[n - 1] += sum(min(c, r_counts[g]) for g, c in h_counts.items())
            totals[n - 1] += sum(h_counts.values())
    if hyp_len == 0 or totals[0] == 0 or matches[0] == 0:
        return 0.0
    log_p = [math.log(matches[0] / totals[0])]
    log_p += [math.log((matches[n] + 1) / (totals[n] + 1)) for n in range(1, 4)]
    bp = 1.0 if hyp_len >= ref_len else math.exp(1.0 - ref_len / hyp_len)
    return bp * math.exp(sum(log_p) / 4.0)


def rouge_n(hyp: Sequence, ref: Sequence, n: int) -> float:
    """N-gram overlap F1 for one hypothesis/reference pair."""
    if len(ref) == 0:
        raise ValueError("reference must be non-empty")
    h_counts = _ngrams(hyp, n)
    r_counts = _ngrams(ref, n)
    overlap = sum(min(c, r_counts[g]) for g, c in h_counts.items())
    h_total = sum(h_counts.values())
    r_total = sum(r_counts.values())
    if overlap == 0 or h_total == 0 or r_total == 0:
        return 0.0
    precision = overlap / h_total
    recall = overlap / r_total
    return 2 * precision * recall / (precision + recall)


def _lcs_length(a: Sequence, b: Sequence) -> int:
    if not a or not b:
        return 0
    prev = [0] * (len(b) + 1)
    for x in a:
        cur = [0]
        for j, y in enumerate(b, start=1):
            cur.append(prev[j - 1] + 1 if x == y else max(prev[j], cur[j - 1]))
        prev = cur
    return prev[-1]


def rouge_l(hyp: Sequence, ref: Sequence) -> float:
    """Longest-common-subsequence F1 for one pair."""
    if len(ref) == 0:
        raise ValueError("reference must be non-empty")
    lcs = _lcs_length(hyp, ref)
    if lcs == 0 or len(hyp) == 0:
        return 0.0
    precision = lcs / len(hyp)
    recall = lcs / len(ref)
    return 2 * precision * recall / (precision + recall)


def lang_membership(tokens: Sequence[int], lang_lexicon: Iterable[int]) -> float:
    """Fraction of tokens drawn from the lexicon; empty output counts as 0."""
    tokens = list(tokens)
    if not tokens:
        return 0.0
    lexicon = set(lang_lexicon)
    return sum(1 for t in tokens if t in lexicon) / len(tokens)


def evaluate_corpus(hypotheses: Sequence[Sequence[int]],
                    references: Sequence[Sequence[int]],
                    lexicon: Iterable[int] | None = None) -> MetricReport:
    """All metrics over a corpus. ROUGE scores are per-example averages;
    BLEU-4 is corpus-level; membership is averaged when a lexicon is given."""
    if len(hypotheses) != len(references):
        raise ValueError("hypothesis/reference count mismatch")
    if not hypotheses:
        raise ValueError("empty corpus")
    n = len(hypotheses)
    r1 = sum(rouge_n(h, r, 1) for h, r in zip(hypotheses, references)) / n
    r2 = sum(rouge_n(h, r, 2) for h, r in zip(hypotheses, references)) / n
    rl = sum(rouge_l(h, r) for h, r in zip(hypotheses, references)) / n
    membership = 0.0
    if lexicon is not None:
        lex = set(lexicon)
        membership = sum(lang_membership(h, lex) for h in hypotheses) / n
    return MetricReport(
        bleu4=bleu4(hypotheses, references),
        rouge1=r1, rouge2=r2, rougeL=rl,
        lang_membership=membership,
        n_examples=n,
        n_empty_outputs=sum(1 for h in hypotheses if len(h) == 0),
    )


def save_report(report: MetricReport, path, config_echo: dict | None = None) -> None:
    """Write the report as JSON with a provenance echo of the run settings."""
    payload = asdict(report)
    echo = dict(config_echo or {})
    echo.setdefault("bleu_smoothing", "add-one for n>1")
    payload["config"] = echo
    with atomic_write(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
