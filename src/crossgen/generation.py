"""Language-controlled autoregressive decoding.

Beam search with accumulated log-probability scores (no length
normalization), deterministic lexicographic tie-breaking, an optional
allowed-vocabulary restriction, and target-language tag forcing on every
decoder call. Sources are decoded in padded batches by an incremental
decoder that caches attention keys and values.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .autodiff import no_grad
from .corpus import MonolingualCorpus
from .model import Seq2SeqModel, pad_batch
from .vocab import BOS_ID, EOS_ID, NUM_SPECIALS, LanguageTag


@dataclass
class BeamHypothesis:
    ids: list[int]          # BOS-prefixed partial target
    score: float            # accumulated log-probability
    finished: bool = False

    def sort_key(self):
        # higher score first; ties resolved by lexicographic token-id order
        return (-self.score, tuple(self.ids))


@dataclass
class DecodeConfig:
    tgt_lang: LanguageTag | Sequence[LanguageTag]   # one tag, or one per input
    beam_size: int = 3
    max_len: int = 80
    allowed_vocab: set[int] | None = None

    def __post_init__(self):
        if self.beam_size < 1:
            raise ValueError("beam_size must be >= 1")
        if self.max_len < 1:
            raise ValueError("max_len must be >= 1")
        if self.allowed_vocab is not None and EOS_ID not in self.allowed_vocab:
            raise ValueError("allowed_vocab must contain EOS")


def restrict_vocab(corpus: MonolingualCorpus) -> set[int]:
    """Token ids occurring in `corpus`, plus EOS; special ids are excluded."""
    if not corpus.sentences:
        raise ValueError("cannot restrict vocabulary from an empty corpus")
    ids = {int(t) for s in corpus.sentences for t in s if t >= NUM_SPECIALS}
    ids.add(EOS_ID)
    return ids


# Sources decoded together in one padded batch; bounds the decoder's key/value
# cache and score arrays to CHUNK_SOURCES * beam_size hypotheses.
CHUNK_SOURCES = 64


def beam_search(model: Seq2SeqModel, input_ids: Sequence[int], src_lang: LanguageTag,
                cfg: DecodeConfig) -> tuple[list[int], float]:
    """Decode one sequence; returns (output ids without BOS/EOS, score).
    See `beam_search_many`."""
    return beam_search_many(model, [input_ids], src_lang, cfg)[0]


def beam_search_many(model: Seq2SeqModel, inputs: Sequence[Sequence[int]],
                     src_lang: LanguageTag | Sequence[LanguageTag],
                     cfg: DecodeConfig) -> list[tuple[list[int], float]]:
    """Decode every input; returns one (output ids without BOS/EOS, score) each.

    `src_lang` and `cfg.tgt_lang` are each one tag for every input or a
    sequence of one tag per input. Each step extends every live hypothesis
    over the allowed vocabulary and keeps the top beam_size candidates
    (finished hypotheses ride along unextended). The best finished hypothesis
    that ever entered the beam wins; if none finished within max_len steps,
    the best partial is returned. With beam_size 1 this reduces exactly to a
    greedy argmax chain.

    Inputs are decoded CHUNK_SOURCES at a time as one padded batch, with one
    incremental decoder call per step for the live hypotheses of every
    unfinished source; each result equals decoding its input alone, up to
    float summation order.
    """
    inputs = [list(ids) for ids in inputs]
    src_tags = _per_input(src_lang, len(inputs), "src_lang")
    tgt_tags = _per_input(cfg.tgt_lang, len(inputs), "tgt_lang")
    limit = model.config.max_positions
    for i, ids in enumerate(inputs):
        if not ids:
            raise ValueError(f"cannot decode from an empty input (input {i})")
        if len(ids) > limit:
            raise ValueError(f"input {i} has {len(ids)} tokens, more than the model's "
                             f"max_positions {limit}")
    if cfg.max_len + 1 > limit:
        raise ValueError("max_len + BOS exceeds the model's max_positions")

    vocab = model.config.vocab_size
    if cfg.allowed_vocab is not None:
        allowed = np.array(sorted(cfg.allowed_vocab), dtype=np.int64)
        if allowed[0] < 0 or allowed[-1] >= vocab:
            bad = allowed[0] if allowed[0] < 0 else allowed[-1]
            raise ValueError(f"allowed_vocab holds token id {bad}, outside the "
                             f"vocabulary [0, {vocab})")
    else:
        allowed = np.arange(vocab, dtype=np.int64)

    out = []
    with no_grad():
        for lo in range(0, len(inputs), CHUNK_SOURCES):
            hi = lo + CHUNK_SOURCES
            out += _decode_chunk(model, inputs[lo:hi], src_tags[lo:hi], tgt_tags[lo:hi],
                                 allowed, cfg)
    return out


def _per_input(tags, n: int, what: str) -> list[LanguageTag]:
    if isinstance(tags, LanguageTag):
        return [tags] * n
    tags = list(tags)
    if len(tags) != n:
        raise ValueError(f"{what}: {len(tags)} tags for {n} inputs")
    return tags


def _decode_chunk(model: Seq2SeqModel, inputs: list[list[int]], src_tags, tgt_tags,
                  allowed: np.ndarray, cfg: DecodeConfig) -> list[tuple[list[int], float]]:
    n_src = len(inputs)
    src, pad = pad_batch(inputs)
    pad = pad if pad.any() else None
    src_ids = np.array([t.id for t in src_tags], dtype=np.int64)
    enc = model.encode(src, np.broadcast_to(src_ids[:, None], src.shape), pad)
    cache = model.start_decoding(enc, pad)
    tgt_ids = np.array([t.id for t in tgt_tags], dtype=np.int64)

    beams = [[BeamHypothesis([BOS_ID], 0.0)] for _ in range(n_src)]
    best: list[BeamHypothesis | None] = [None] * n_src
    active = list(range(n_src))   # sources with a live hypothesis
    parents = None                # cache row of each live hypothesis's parent
    for _ in range(cfg.max_len):
        if not active:
            break
        if parents is not None:
            cache.reorder(np.asarray(parents, dtype=np.int64))
        live = [[h for h in beams[s] if not h.finished] for s in active]
        rows = [h for hyps in live for h in hyps]   # in cache-row order
        last = np.array([[h.ids[-1]] for h in rows], dtype=np.int64)
        row_tags = np.repeat(tgt_ids[active], [len(hyps) for hyps in live])
        logits = model.decode_forward(None, None, last, row_tags, cache=cache).data[:, -1, :]
        logp = logits - _logsumexp(logits)
        scores = (np.array([h.score for h in rows])[:, None]
                  + logp[:, allowed].astype(np.float64))

        parents, still_active, first = [], [], 0
        for s, hyps in zip(active, live):
            finished = [h for h in beams[s] if h.finished]
            picked = _top_k(finished, hyps, scores[first:first + len(hyps)], first,
                            allowed, cfg.beam_size)
            first += len(hyps)
            beams[s] = [h for h, _ in picked]
            for hyp, row in picked:
                if not hyp.finished:
                    parents.append(row)
                # only hypotheses that survive beam selection count as finished
                elif best[s] is None or hyp.sort_key() < best[s].sort_key():
                    best[s] = hyp
            if any(not h.finished for h in beams[s]):
                still_active.append(s)
        active = still_active

    results = []
    for s in range(n_src):
        winner = best[s] if best[s] is not None else min(beams[s], key=BeamHypothesis.sort_key)
        out = winner.ids[1:]
        if winner.finished:
            out = out[:-1]
        results.append((out, winner.score))
    return results


def _top_k(finished: list[BeamHypothesis], live: list[BeamHypothesis], scores: np.ndarray,
           first_row: int, allowed: np.ndarray, k: int):
    """The k best of `finished` and every extension of `live` by an allowed
    token (scores: (len(live), len(allowed))), ordered by
    BeamHypothesis.sort_key; returns (hypothesis, parent's cache row) pairs.
    Only candidates scoring at least the k-th best score can be among the k
    best, so only those are built and sorted."""
    flat = np.concatenate([np.array([h.score for h in finished]), scores.ravel()])
    if flat.size > k:
        keep = np.flatnonzero(flat >= np.partition(flat, -k)[-k])
    else:
        keep = np.arange(flat.size)
    picked = []
    for i in keep.tolist():
        if i < len(finished):
            picked.append((finished[i], None))
        else:
            j, a = divmod(i - len(finished), len(allowed))
            tok = int(allowed[a])
            picked.append((BeamHypothesis(live[j].ids + [tok], float(flat[i]), tok == EOS_ID),
                           first_row + j))
    picked.sort(key=lambda pair: pair[0].sort_key())
    return picked[:k]


def _logsumexp(x: np.ndarray) -> np.ndarray:
    m = x.max(axis=-1, keepdims=True)
    return m + np.log(np.exp(x - m).sum(axis=-1, keepdims=True))
