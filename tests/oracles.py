"""Independent reference implementations used as test oracles.

Everything here is deliberately written from the definitions, separately from
the package code paths it checks: brute-force pair counting, the task rule, a
re-derived twin-language translation, central finite differences, exhaustive
decode enumeration, an uncached full-sort beam search, and direct-formula
BLEU/ROUGE.
"""

from __future__ import annotations

import math
from collections import defaultdict

import numpy as np

from crossgen import autodiff as ad
from crossgen.vocab import BOS_ID, EOS_ID, SEP_ID


def brute_force_pair_counts(streams):
    """Adjacent-pair frequencies, the slow obvious way."""
    counts = defaultdict(int)
    for stream in streams:
        for i in range(len(stream) - 1):
            counts[(stream[i], stream[i + 1])] += 1
    return dict(counts)


def recompute_task_target(input_ids, marker_id):
    """The task rule from its definition: the span after [S], reversed, then
    the language marker."""
    sep = list(input_ids).index(SEP_ID)
    return list(reversed(input_ids[sep + 1:])) + [marker_id]


def ref_translate(ids, sigma, window):
    """Reference twin translation: map through sigma, then swap pairs at even
    offsets of each window block (re-derived, not shared with the package)."""
    mapped = [sigma[i] for i in ids]
    out = []
    for start in range(0, len(mapped), window):
        block = mapped[start:start + window]
        j = 0
        while j + 1 < len(block):
            block[j], block[j + 1] = block[j + 1], block[j]
            j += 2
        out.extend(block)
    return out


def finite_diff_max_rel_err(loss_fn, params, rng, samples_per_tensor=12,
                            h=1e-5, denom_floor=1e-4):
    """Central-difference check of d(loss)/d(param) on sampled coordinates.

    Every tensor in `params` is probed at up to `samples_per_tensor` seeded
    coordinates. The relative error uses max(|fd|, |analytic|, denom_floor)
    as denominator: central differences carry roundoff noise of roughly
    |loss| * eps / h (~1e-9 here), so the floor turns the relative tolerance
    into an absolute one for coordinates whose true gradient sits below it.
    Returns the worst relative error across all probes.
    """
    ad.zero_grads(params.values())
    loss = loss_fn()
    loss.backward()
    grads = {name: (np.zeros_like(t.data) if t.grad is None else t.grad.copy())
             for name, t in params.items()}

    worst = 0.0
    for name, tensor in sorted(params.items()):
        flat = tensor.data.reshape(-1)
        n = flat.size
        k = min(samples_per_tensor, n)
        idx = rng.choice(n, size=k, replace=False)
        for i in idx:
            i = int(i)
            orig = flat[i]
            flat[i] = orig + h
            f_plus = loss_fn().item()
            flat[i] = orig - h
            f_minus = loss_fn().item()
            flat[i] = orig
            fd = (f_plus - f_minus) / (2.0 * h)
            an = grads[name].reshape(-1)[i]
            denom = max(abs(fd), abs(an), denom_floor)
            worst = max(worst, abs(fd - an) / denom)
    return worst


def exhaustive_decode(model, input_ids, src_lang, tgt_lang_id, allowed, max_len):
    """Enumerate every decode path of at most max_len steps and pick the best.

    Finished sequences (EOS emitted within the budget) beat unfinished ones of
    exactly max_len tokens; ties break on lexicographic token order. Returns
    (content ids, score) exactly like a beam wide enough to hold everything.
    """
    with ad.no_grad():
        src = np.asarray([list(input_ids)], dtype=np.int64)
        tags = np.full_like(src, src_lang.id)
        enc = model.encode(src, tags)

        def step_logp(prefix):
            logits = model.decode_forward(enc, None, np.asarray([prefix]), tgt_lang_id)
            row = logits.data[0, -1, :]
            m = row.max()
            return row - (m + math.log(np.exp(row - m).sum()))

        finished = []
        unfinished = []

        def walk(prefix, score):
            logp = step_logp(prefix)
            for tok in allowed:
                s = score + float(logp[tok])
                seq = prefix + [int(tok)]
                if tok == EOS_ID:
                    finished.append((s, seq))
                elif len(seq) - 1 == max_len:
                    unfinished.append((s, seq))
                else:
                    walk(seq, s)

        walk([BOS_ID], 0.0)

    pool = finished if finished else unfinished
    score, seq = min(pool, key=lambda r: (-r[0], tuple(r[1])))
    content = seq[1:]
    if finished:
        content = content[:-1]
    return content, score


def reference_beam(model, input_ids, src_lang, tgt_lang_id, allowed, k, max_len):
    """Beam search the plain way: no cache (each step decodes the full prefix),
    and each step fully sorts every candidate by (-score, ids) and keeps k.

    Finished hypotheses ride along unextended; the best one that survived a
    selection wins, else the best of the last beam. Returns (content ids, score).
    """
    def key(h):
        return -h[0], tuple(h[1])

    with ad.no_grad():
        src = np.asarray([list(input_ids)], dtype=np.int64)
        enc = model.encode(src, np.full_like(src, src_lang.id))
        beam = [(0.0, [BOS_ID], False)]   # (score, BOS-prefixed ids, finished)
        best = None
        for _ in range(max_len):
            if all(done for _, _, done in beam):
                break
            candidates = [h for h in beam if h[2]]
            for score, seq, done in beam:
                if done:
                    continue
                logits = model.decode_forward(enc, None, np.asarray([seq]), tgt_lang_id)
                row = logits.data[0, -1, :]
                m = row.max()
                logp = row - (m + math.log(np.exp(row - m).sum()))
                candidates += [(score + float(logp[tok]), seq + [int(tok)], tok == EOS_ID)
                               for tok in allowed]
            beam = sorted(candidates, key=key)[:k]
            for h in beam:
                if h[2] and (best is None or key(h) < key(best)):
                    best = h
    score, seq, done = best if best is not None else beam[0]
    return (seq[1:-1] if done else seq[1:]), score


def _ref_ngram_list(seq, n):
    return [tuple(seq[i:i + n]) for i in range(len(seq) - n + 1)]


def ref_bleu4(hyps, refs):
    """Direct-formula corpus BLEU-4 with add-one smoothing above unigrams."""
    clipped = {n: 0 for n in range(1, 5)}
    total = {n: 0 for n in range(1, 5)}
    c = r = 0
    for hyp, ref in zip(hyps, refs):
        c += len(hyp)
        r += len(ref)
        for n in range(1, 5):
            ref_grams = _ref_ngram_list(ref, n)
            remaining = defaultdict(int)
            for g in ref_grams:
                remaining[g] += 1
            for g in _ref_ngram_list(hyp, n):
                total[n] += 1
                if remaining.get(g, 0) > 0:
                    remaining[g] -= 1
                    clipped[n] += 1
    if total[1] == 0 or clipped[1] == 0 or c == 0:
        return 0.0
    precisions = [clipped[1] / total[1]]
    for n in range(2, 5):
        precisions.append((clipped[n] + 1) / (total[n] + 1))
    geo = math.exp(sum(math.log(p) for p in precisions) / 4)
    bp = math.exp(min(0.0, 1.0 - r / c))
    return bp * geo


def ref_rouge_n(hyp, ref, n):
    remaining = defaultdict(int)
    for g in _ref_ngram_list(ref, n):
        remaining[g] += 1
    hits = 0
    hyp_grams = _ref_ngram_list(hyp, n)
    for g in hyp_grams:
        if remaining.get(g, 0) > 0:
            remaining[g] -= 1
            hits += 1
    ref_total = max(len(ref) - n + 1, 0)
    if hits == 0 or not hyp_grams or ref_total == 0:
        return 0.0
    p = hits / len(hyp_grams)
    r = hits / ref_total
    return 2 * p * r / (p + r)


def ref_rouge_l(hyp, ref):
    la, lb = len(hyp), len(ref)
    table = [[0] * (lb + 1) for _ in range(la + 1)]
    for i in range(1, la + 1):
        for j in range(1, lb + 1):
            if hyp[i - 1] == ref[j - 1]:
                table[i][j] = table[i - 1][j - 1] + 1
            else:
                table[i][j] = max(table[i - 1][j], table[i][j - 1])
    lcs = table[la][lb]
    if lcs == 0 or la == 0 or lb == 0:
        return 0.0
    p = lcs / la
    r = lcs / lb
    return 2 * p * r / (p + r)
