"""Language-controlled autoregressive decoding.

Beam search with accumulated log-probability scores (no length
normalization), deterministic lexicographic tie-breaking, an optional
allowed-vocabulary restriction, and target-language tag forcing on every
decoder call. Sources are decoded in padded batches by an incremental
decoder that caches attention keys and values. The beam of a batch is held
in arrays (ids, scores, live flags), and each step selects the next beam of
every source at once: one partition finds each source's k-th best score and
one lexsort orders the candidates at or above it.
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
    n, k, n_tok = len(inputs), cfg.beam_size, len(allowed)
    src, pad = pad_batch(inputs)
    pad = pad if pad.any() else None
    src_ids = np.array([t.id for t in src_tags], dtype=np.int64)
    enc = model.encode(src, np.broadcast_to(src_ids[:, None], src.shape), pad)
    cache = model.start_decoding(enc, pad)
    tgt_ids = np.array([t.id for t in tgt_tags], dtype=np.int64)

    # The beam: ids (n, k, t) start with BOS, and a finished hypothesis gets a
    # -1 per later step, so it sorts before any longer sequence it prefixes;
    # score is -inf in empty slots; live slots, in flat order, are the cache rows.
    ids = np.full((n, k, 1), BOS_ID, dtype=np.int64)
    score = np.full((n, k), -np.inf)
    score[:, 0] = 0.0
    live = np.isfinite(score)
    best: list[tuple | None] = [None] * n   # (-score, ids) of the best finished
    parents = None                           # cache row of each live slot's parent
    for t in range(1, cfg.max_len + 1):
        if not live.any():
            break
        if parents is not None:
            cache.reorder(parents)
        rows = np.flatnonzero(live)
        logits = model.decode_forward(None, None, ids.reshape(n * k, t)[rows, -1:],
                                      tgt_ids[rows // k], cache=cache).data[:, -1, :]
        logp = logits - _logsumexp(logits)
        ext = np.full((n * k, n_tok), -np.inf)
        ext[rows] = score.ravel()[rows, None] + logp[:, allowed].astype(np.float64)
        # per source: its finished slots, then every extension of its live slots
        cand = np.concatenate([np.where(live, -np.inf, score), ext.reshape(n, k * n_tok)], 1)
        kth = np.partition(cand, -k, axis=1)[:, -k]
        src_of, col = np.nonzero(np.isfinite(cand) & (cand >= kth[:, None]))
        slot = np.where(col < k, col, (col - k) // n_tok)
        tok = np.where(col < k, -1, allowed[(col - k) % n_tok])
        cand_ids = np.concatenate([ids[src_of, slot], tok[:, None]], axis=1)
        cand_score = cand[src_of, col]
        # by source, then higher score, then lexicographic ids; k per source
        order = np.lexsort((*cand_ids.T[::-1], -cand_score, src_of))
        rank = np.arange(len(order)) - np.searchsorted(src_of[order], src_of[order])
        order, rank = order[rank < k], rank[rank < k]
        src_of, slot, tok = src_of[order], slot[order], tok[order]
        cand_ids, cand_score = cand_ids[order], cand_score[order]
        grow = (tok >= 0) & (tok != EOS_ID)
        # the kept candidates are in (source, rank) order, so the growing ones
        # are in cache-row order; a parent's cache row is its slot's place in rows
        parents = np.searchsorted(rows, (src_of * k + slot)[grow])
        ids = np.full((n, k, t + 1), -1, dtype=np.int64)
        score = np.full((n, k), -np.inf)
        live = np.zeros((n, k), dtype=bool)
        ids[src_of, rank], score[src_of, rank] = cand_ids, cand_score
        live[src_of, rank] = grow
        # only hypotheses that survive beam selection count as finished
        for i in np.flatnonzero(tok == EOS_ID).tolist():
            s = int(src_of[i])
            key = (-float(cand_score[i]), tuple(cand_ids[i].tolist()))
            if best[s] is None or key < best[s]:
                best[s] = key
    return [(list(b[1][1:-1]), -b[0]) if b is not None
            else (ids[s, 0, 1:].tolist(), float(score[s, 0])) for s, b in enumerate(best)]


def _logsumexp(x: np.ndarray) -> np.ndarray:
    m = x.max(axis=-1, keepdims=True)
    return m + np.log(np.exp(x - m).sum(axis=-1, keepdims=True))
