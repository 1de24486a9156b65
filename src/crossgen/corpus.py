"""Synthetic twin-language corpora and downstream task datasets.

Two languages with disjoint lexicons are related by a token bijection plus a
bounded local reorder, so an exact reference translation exists for every
sentence and zero-shot transfer has a known ceiling. Monolingual pools stand
in for web-scale text, the parallel pool for a translation corpus.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .fileio import atomic_write
from .seeding import named_rng
from .vocab import NUM_SPECIALS, SEP_ID, SPECIAL_TOKENS, LanguageTag, Vocab


@dataclass
class MonolingualCorpus:
    lang: LanguageTag
    sentences: list[list[int]]

    def __post_init__(self):
        for s in self.sentences:
            if len(s) == 0:
                raise ValueError("monolingual corpus contains an empty sentence")


@dataclass
class ParallelCorpus:
    src_lang: LanguageTag
    tgt_lang: LanguageTag
    pairs: list[tuple[list[int], list[int]]]

    def __post_init__(self):
        for x, y in self.pairs:
            if len(x) == 0 or len(y) == 0:
                raise ValueError("parallel corpus contains an empty side")


@dataclass
class TaskExample:
    """Span-extraction instance: input = sentence [S] span, target = reversed span + marker."""

    input: list[int]
    target: list[int]
    lang: LanguageTag

    def __post_init__(self):
        if self.input.count(SEP_ID) != 1:
            raise ValueError("task input must contain exactly one [S]")


@dataclass
class SynthConfig:
    vocab_size_per_lang: int = 50
    sentence_len_range: tuple[int, int] = (5, 12)
    n_mono: int = 5000
    n_parallel: int = 1500
    reorder_window: int = 2
    bigram_bias: float = 0.5
    seed: int = 0

    def __post_init__(self):
        lo, hi = self.sentence_len_range
        if lo < 1 or hi < lo:
            raise ValueError("sentence_len_range must satisfy 1 <= min <= max")
        if self.reorder_window < 1:
            raise ValueError("reorder_window must be >= 1")
        if self.vocab_size_per_lang < 2:
            raise ValueError("need at least 2 symbols per language for a usable bijection")
        if not 0.0 <= self.bigram_bias <= 1.0:
            raise ValueError("bigram_bias must lie in [0, 1]")


@dataclass
class TwinData:
    """Everything generate_twin_languages produces, id-space included."""

    vocab: Vocab
    lang_a: LanguageTag
    lang_b: LanguageTag
    mono_a: MonolingualCorpus
    mono_b: MonolingualCorpus
    parallel: ParallelCorpus
    sigma: dict[int, int]              # id bijection A -> B (markers included)
    reorder_window: int
    lexicons: dict[str, set[int]] = field(default_factory=dict)

    def translate(self, ids: Sequence[int]) -> list[int]:
        """Exact reference translation A -> B."""
        return _reorder([self.sigma[t] for t in ids], self.reorder_window)

    def translate_back(self, ids: Sequence[int]) -> list[int]:
        inv = {b: a for a, b in self.sigma.items()}
        return [inv[t] for t in _reorder(list(ids), self.reorder_window)]

    def marker_id(self, lang: LanguageTag) -> int:
        name = "atask" if lang.name == self.lang_a.name else "btask"
        return self.vocab.token_to_id[name]


def _reorder(ids: list[int], window: int) -> list[int]:
    """Swap adjacent tokens at even offsets inside consecutive `window` blocks.

    Self-inverse; window=1 is the identity. No token moves across a block
    boundary, so displacement is bounded by 1 position.
    """
    out = list(ids)
    for start in range(0, len(out), window):
        end = min(start + window, len(out))
        for i in range(start, end - 1, 2):
            out[i], out[i + 1] = out[i + 1], out[i]
    return out


def _sample_sentence(rng: np.random.Generator, symbol_ids: np.ndarray,
                     preferred_next: np.ndarray, length: int, bias: float) -> list[int]:
    """Uniform sampling with a bigram preference: structure for MLM/DAE to learn."""
    n = len(symbol_ids)
    sent = [int(symbol_ids[rng.integers(n)])]
    pos = {int(t): k for k, t in enumerate(symbol_ids)}
    while len(sent) < length:
        if rng.random() < bias:
            sent.append(int(symbol_ids[preferred_next[pos[sent[-1]]]]))
        else:
            sent.append(int(symbol_ids[rng.integers(n)]))
    return sent


def generate_twin_languages(cfg: SynthConfig,
                             lang_names: tuple[str, str] = ("la", "lb")) -> TwinData:
    """Build the vocab, two monolingual corpora, and an exact parallel corpus.

    Language A sentences come from a seeded bigram-biased sampler; every
    language B sentence is the deterministic translation (bijection sigma then
    local reorder) of a fresh language A sample. The three pools are pairwise
    disjoint at the sentence level.
    """
    n_sym = cfg.vocab_size_per_lang
    symbols_a = [f"a{i:03d}" for i in range(n_sym)] + ["atask"]
    symbols_b = [f"b{i:03d}" for i in range(n_sym)] + ["btask"]
    vocab = Vocab(list(SPECIAL_TOKENS) + sorted(symbols_a + symbols_b))
    lang_a = LanguageTag(0, lang_names[0])
    lang_b = LanguageTag(1, lang_names[1])

    # markers participate in ordinary sentences so the pre-training stages
    # cover their embeddings and cross-lingual alignment
    ids_a = np.array([vocab.token_to_id[s] for s in symbols_a])
    ids_b = np.array([vocab.token_to_id[s] for s in symbols_b])

    rng_map = named_rng(cfg.seed, "twin.sigma")
    perm = rng_map.permutation(n_sym)
    sigma = {int(a): int(ids_b[perm[k]]) for k, a in enumerate(ids_a[:-1])}
    sigma[vocab.token_to_id["atask"]] = vocab.token_to_id["btask"]

    rng_sent = named_rng(cfg.seed, "twin.sentences")
    preferred = rng_sent.permutation(n_sym + 1)
    lo, hi = cfg.sentence_len_range

    seen: set[tuple[int, ...]] = set()

    def draw() -> list[int]:
        while True:
            length = int(rng_sent.integers(lo, hi + 1))
            s = _sample_sentence(rng_sent, ids_a, preferred, length, cfg.bigram_bias)
            if tuple(s) not in seen:
                seen.add(tuple(s))
                return s

    data = TwinData(
        vocab=vocab, lang_a=lang_a, lang_b=lang_b,
        mono_a=MonolingualCorpus(lang_a, []), mono_b=MonolingualCorpus(lang_b, []),
        parallel=ParallelCorpus(lang_a, lang_b, []),
        sigma=sigma, reorder_window=cfg.reorder_window,
    )
    data.mono_a.sentences.extend(draw() for _ in range(cfg.n_mono))
    data.mono_b.sentences.extend(data.translate(draw()) for _ in range(cfg.n_mono))
    for _ in range(cfg.n_parallel):
        a = draw()
        data.parallel.pairs.append((a, data.translate(a)))

    data.lexicons = {
        lang_a.name: {int(i) for i in ids_a} | {vocab.token_to_id["atask"]},
        lang_b.name: {int(i) for i in ids_b} | {vocab.token_to_id["btask"]},
    }
    return data


def make_task_dataset(corpus: MonolingualCorpus, n: int, seed: int,
                      marker_id: int) -> list[TaskExample]:
    """Carve answer spans from the first `n` sentences of `corpus`.

    Each example keeps a contiguous span of length 1..3 as the "answer":
    input = sentence + [S] + span, target = reversed span + language marker.
    Targets are a pure function of inputs, so an oracle can re-derive them.
    """
    if n > len(corpus.sentences):
        raise ValueError(f"requested {n} examples but corpus has {len(corpus.sentences)} sentences")
    if marker_id < NUM_SPECIALS:
        raise ValueError("marker_id must be a regular vocabulary token")
    # language-independent stream: twin corpora built with the same seed get
    # identical span choices, keeping the task rule universal up to sigma
    rng = named_rng(seed, "task")
    examples = []
    for sent in corpus.sentences[:n]:
        span_len = int(rng.integers(1, min(3, len(sent)) + 1))
        start = int(rng.integers(0, len(sent) - span_len + 1))
        span = sent[start:start + span_len]
        examples.append(TaskExample(
            input=list(sent) + [SEP_ID] + list(span),
            target=list(reversed(span)) + [marker_id],
            lang=corpus.lang,
        ))
    return examples


# ---------------------------------------------------------------------------
# JSONL persistence. One record per line; round trips are bit-exact.

def write_jsonl(records, path) -> None:
    with atomic_write(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True, separators=(",", ":")) + "\n")


def read_jsonl(path, required_keys: Sequence[str]) -> list[dict]:
    records = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}: malformed JSONL at line {lineno}: {exc}") from None
            missing = [k for k in required_keys if k not in rec]
            if missing:
                raise ValueError(f"{path}: line {lineno} missing keys {missing}")
            records.append(rec)
    return records


def lookup_language(languages: Mapping[str, LanguageTag], name, where) -> LanguageTag:
    """The language called `name`. An unknown name raises an error that names
    `where` it was read: a file, or a row of one."""
    try:
        return languages[name]
    except (KeyError, TypeError):
        raise ValueError(f"{where}: unknown language {name!r}; expected one of "
                         f"{sorted(languages)}") from None


def save_mono_jsonl(corpus: MonolingualCorpus, path) -> None:
    write_jsonl(({"lang": corpus.lang.name, "ids": s} for s in corpus.sentences), path)


def load_mono_jsonl(path, languages: Mapping[str, LanguageTag]) -> MonolingualCorpus:
    records = read_jsonl(path, ("lang", "ids"))
    if not records:
        return MonolingualCorpus(next(iter(languages.values())), [])
    lang = lookup_language(languages, records[0]["lang"], path)
    sentences = []
    for rec in records:
        if rec["lang"] != lang.name:
            raise ValueError(f"{path}: mixed languages in monolingual file")
        sentences.append([int(i) for i in rec["ids"]])
    return MonolingualCorpus(lang, sentences)


def save_parallel_jsonl(corpus: ParallelCorpus, path) -> None:
    write_jsonl(
        ({"src": x, "tgt": y, "src_lang": corpus.src_lang.name,
          "tgt_lang": corpus.tgt_lang.name} for x, y in corpus.pairs),
        path,
    )


def load_parallel_jsonl(path, languages: Mapping[str, LanguageTag]) -> ParallelCorpus:
    records = read_jsonl(path, ("src", "tgt", "src_lang", "tgt_lang"))
    if not records:
        tags = list(languages.values())
        return ParallelCorpus(tags[0], tags[-1], [])
    src_lang = lookup_language(languages, records[0]["src_lang"], path)
    tgt_lang = lookup_language(languages, records[0]["tgt_lang"], path)
    pairs = [([int(i) for i in r["src"]], [int(i) for i in r["tgt"]]) for r in records]
    return ParallelCorpus(src_lang, tgt_lang, pairs)


def save_task_jsonl(examples: Sequence[TaskExample], path) -> None:
    write_jsonl(
        ({"input": ex.input, "target": ex.target, "lang": ex.lang.name} for ex in examples),
        path,
    )


def load_task_jsonl(path, languages: Mapping[str, LanguageTag]) -> list[TaskExample]:
    records = read_jsonl(path, ("input", "target", "lang"))
    return [
        TaskExample([int(i) for i in r["input"]], [int(i) for i in r["target"]],
                    lookup_language(languages, r["lang"], path))
        for r in records
    ]
