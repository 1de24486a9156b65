"""Correctness checks on the program's outputs.

Each check returns a list of problems, empty when the output is correct. The
checks compare against computations written here from the definitions (the
learning-rate schedule, log-softmax, BLEU-4 and ROUGE) or against properties
the method must have (frozen parameters stay bit-identical, losses fall,
restricted decodes stay inside the allowed set); never against stored copies
of an earlier run's output.
"""

from __future__ import annotations

import math
from collections import defaultdict

import numpy as np


# ---------------------------------------------------------------------------
# reference formulas

def ref_lr(step: int, base_lr: float, warmup: int, total: int) -> float:
    """Linear warm-up to base_lr over `warmup` steps, then linear decay to 0."""
    step = min(step, total)
    if warmup > 0 and step <= warmup:
        return base_lr * step / warmup
    return base_lr * (total - step) / (total - warmup)


def ref_log_softmax(logits: np.ndarray) -> np.ndarray:
    x = np.asarray(logits, dtype=np.float64)
    shifted = x - x.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def _grams(seq, n):
    return [tuple(seq[i:i + n]) for i in range(len(seq) - n + 1)]


def _clipped_hits(hyp, ref, n) -> int:
    left = defaultdict(int)
    for g in _grams(ref, n):
        left[g] += 1
    hits = 0
    for g in _grams(hyp, n):
        if left[g] > 0:
            left[g] -= 1
            hits += 1
    return hits


def ref_bleu4(hyps, refs) -> float:
    """Corpus BLEU-4: clipped n-gram precisions, add-one smoothed above n=1,
    geometric mean, brevity penalty exp(min(0, 1 - r/c))."""
    hits = [0] * 5
    total = [0] * 5
    c = r = 0
    for hyp, ref in zip(hyps, refs):
        c += len(hyp)
        r += len(ref)
        for n in range(1, 5):
            hits[n] += _clipped_hits(hyp, ref, n)
            total[n] += len(_grams(hyp, n))
    if c == 0 or total[1] == 0 or hits[1] == 0:
        return 0.0
    logs = [math.log(hits[1] / total[1])]
    logs += [math.log((hits[n] + 1) / (total[n] + 1)) for n in (2, 3, 4)]
    return math.exp(min(0.0, 1.0 - r / c)) * math.exp(sum(logs) / 4)


def _f1(hits, n_hyp, n_ref) -> float:
    if hits == 0 or n_hyp == 0 or n_ref == 0:
        return 0.0
    p, q = hits / n_hyp, hits / n_ref
    return 2 * p * q / (p + q)


def ref_rouge_n(hyp, ref, n) -> float:
    return _f1(_clipped_hits(hyp, ref, n), len(_grams(hyp, n)), len(_grams(ref, n)))


def ref_rouge_l(hyp, ref) -> float:
    table = [[0] * (len(ref) + 1) for _ in range(len(hyp) + 1)]
    for i, x in enumerate(hyp, 1):
        for j, y in enumerate(ref, 1):
            table[i][j] = (table[i - 1][j - 1] + 1 if x == y
                           else max(table[i - 1][j], table[i][j - 1]))
    return _f1(table[-1][-1], len(hyp), len(ref))


# ---------------------------------------------------------------------------
# training checks

def check_finite(rows) -> list[str]:
    bad = [r for r in rows if not math.isfinite(r.loss)]
    return [f"{len(bad)} non-finite losses, first at step {bad[0].step} "
            f"({bad[0].objective})"] if bad else []


def check_loss_falls(rows, window: int) -> list[str]:
    """Per objective, the mean of the last `window` losses is below the first."""
    by_obj = defaultdict(list)
    for r in rows:
        by_obj[r.objective].append(r.loss)
    problems = []
    for obj, losses in by_obj.items():
        k = min(window, len(losses) // 2)
        if k == 0:
            problems.append(f"{obj}: too few steps to compare")
            continue
        first, last = sum(losses[:k]) / k, sum(losses[-k:]) / k
        if not last < first:
            problems.append(f"{obj}: loss did not fall ({first:.4f} -> {last:.4f})")
    return problems


def check_lr(rows, base_lr: float, warmup: int, total: int) -> list[str]:
    bad = [r for r in rows if not math.isclose(r.lr, ref_lr(r.step, base_lr, warmup, total),
                                               rel_tol=1e-12, abs_tol=1e-15)]
    return [f"lr at step {bad[0].step} is {bad[0].lr!r}, schedule gives "
            f"{ref_lr(bad[0].step, base_lr, warmup, total)!r}"] if bad else []


def snapshot(params, keep) -> dict[str, np.ndarray]:
    """Copies of the parameter arrays whose name satisfies `keep`."""
    return {n: np.array(t.data, copy=True) for n, t in params.items() if keep(n)}


def check_frozen(before: dict[str, np.ndarray], after, what: str) -> list[str]:
    """Every snapshotted parameter is bit-identical in `after`, which maps names
    to arrays or to tensors."""
    if not before:
        return [f"{what}: no parameters to compare"]
    now = {n: after[n] if isinstance(after[n], np.ndarray) else after[n].data
           for n in before}
    changed = [n for n, arr in before.items()
               if now[n].dtype != arr.dtype or now[n].tobytes() != arr.tobytes()]
    return [f"{what}: {len(changed)} frozen parameters changed, e.g. {changed[0]}"] \
        if changed else []


# ---------------------------------------------------------------------------
# decoding checks

def check_membership_identity(report, what: str) -> list[str]:
    """Under a restricted vocabulary scored against that same vocabulary, every
    non-empty output has membership 1 and every empty output 0."""
    expected = 1.0 - report.n_empty_outputs / report.n_examples
    if not math.isclose(report.lang_membership, expected, abs_tol=1e-12):
        return [f"{what}: membership {report.lang_membership!r} != "
                f"1 - empty/n = {expected!r}"]
    return []


def check_lengths(outputs, max_len: int, what: str) -> list[str]:
    long = [i for i, o in enumerate(outputs) if len(o) > max_len]
    return [f"{what}: {len(long)} outputs longer than {max_len}, first at row {long[0]}"] \
        if long else []


def check_tokens_in(outputs, allowed, what: str) -> list[str]:
    allowed = set(allowed)
    for i, out in enumerate(outputs):
        stray = [t for t in out if t not in allowed]
        if stray:
            return [f"{what}: row {i} has token {stray[0]} outside the allowed set"]
    return []


def score_of(model, src_ids, src_lang_id, tgt_lang_id, output, max_len, bos, eos) -> float:
    """Log-probability of `output` (plus EOS when shorter than max_len) from one
    teacher-forced decode_forward over the whole sequence."""
    from crossgen.autodiff import no_grad

    scored = list(output) + ([eos] if len(output) < max_len else [])
    dec_in = np.asarray([[bos] + scored[:-1]], dtype=np.int64)
    src = np.asarray([list(src_ids)], dtype=np.int64)
    with no_grad():
        enc = model.encode(src, np.full_like(src, src_lang_id))
        logits = model.decode_forward(enc, None, dec_in, tgt_lang_id).data[0]
    logp = ref_log_softmax(logits)
    return float(sum(logp[t, tok] for t, tok in enumerate(scored)))


def score_tolerance(score: float, n_tokens: int) -> float:
    """float32 logits carry ~1e-7 relative error; allow it per scored token."""
    return 2e-5 * (n_tokens + 1) * (1.0 + abs(score) / max(n_tokens, 1))


def check_scores(reported, recomputed, lengths, what: str) -> list[str]:
    for i, (got, want, n) in enumerate(zip(reported, recomputed, lengths)):
        if not abs(got - want) <= score_tolerance(want, n):
            return [f"{what}: row {i} score {got!r} but the output's "
                    f"log-probability is {want!r}"]
    return []


def check_report_metrics(report: dict, hyps, refs, what: str) -> list[str]:
    want = {
        "bleu4": ref_bleu4(hyps, refs),
        "rouge1": sum(ref_rouge_n(h, r, 1) for h, r in zip(hyps, refs)) / len(hyps),
        "rouge2": sum(ref_rouge_n(h, r, 2) for h, r in zip(hyps, refs)) / len(hyps),
        "rougeL": sum(ref_rouge_l(h, r) for h, r in zip(hyps, refs)) / len(hyps),
    }
    return [f"{what}: {k} {report[k]!r} but the direct formula gives {v!r}"
            for k, v in want.items() if not math.isclose(report[k], v, abs_tol=1e-9)]
