"""Shared subword vocabulary: special tokens, language tags, and BPE merges.

Every other component works on integer token ids drawn from one shared id
space. Ids 0..5 are reserved for the special tokens, in this fixed order:

    0 [M]    mask
    1 [P]    pad
    2 [S]    separator (bilingual concatenation, passage/answer boundary)
    3 [BOS]  decoder start
    4 [EOS]  decoder stop
    5 [UNK]  unknown symbol
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

MASK_ID = 0
PAD_ID = 1
SEP_ID = 2
BOS_ID = 3
EOS_ID = 4
UNK_ID = 5

SPECIAL_TOKENS = ("[M]", "[P]", "[S]", "[BOS]", "[EOS]", "[UNK]")
NUM_SPECIALS = len(SPECIAL_TOKENS)

MERGES_HEADER = "#MERGES"


@dataclass(frozen=True)
class LanguageTag:
    """A language identity: dense id (0..num_languages-1) plus a short name."""

    id: int
    name: str


class Vocab:
    """Immutable token <-> id bijection plus an ordered BPE merge list.

    `char_base` only controls how a merged token is *named*: word-mode merges
    join their parts with a single space (base symbols are whitespace-delimited
    and can never contain one, so names cannot collide with base symbols);
    char-mode merges concatenate directly, e.g. ("a", "b") -> "ab".
    """

    def __init__(self, tokens: Sequence[str], merges: Sequence[tuple[str, str]] = (),
                 char_base: bool = False):
        if tuple(tokens[:NUM_SPECIALS]) != SPECIAL_TOKENS:
            raise ValueError("vocabulary must start with the six special tokens")
        self.id_to_token = list(tokens)
        self.token_to_id = {t: i for i, t in enumerate(self.id_to_token)}
        if len(self.token_to_id) != len(self.id_to_token):
            raise ValueError("duplicate token in vocabulary")
        self.merges = [tuple(m) for m in merges]
        self.char_base = char_base
        self._joiner = "" if char_base else " "
        # merged-token name -> (left, right); drives decode-time expansion
        self._expansions = {}
        for left, right in self.merges:
            out = left + self._joiner + right
            if out not in self.token_to_id:
                raise ValueError(f"merge output {out!r} missing from vocabulary")
            self._expansions[out] = (left, right)

    def __len__(self) -> int:
        return len(self.id_to_token)

    def merge_output(self, pair: tuple[str, str]) -> str:
        return pair[0] + self._joiner + pair[1]

    def encode(self, tokens: Sequence[str]) -> list[int]:
        """Map a base-token stream to ids, applying merges in learned order.

        Unknown symbols map to [UNK]. Empty input encodes to [].
        """
        units = list(tokens)
        for pair in self.merges:
            units = _apply_merge(units, pair, self.merge_output(pair))
        return [self.token_to_id.get(u, UNK_ID) for u in units]

    def decode(self, ids: Sequence[int]) -> list[str]:
        """Inverse of encode on in-vocab text: expands merges back to base tokens."""
        out: list[str] = []
        for i in ids:
            i = int(i)
            if not 0 <= i < len(self.id_to_token):
                raise ValueError(f"token id {i} out of range for vocabulary of size {len(self)}")
            out.extend(self._expand(self.id_to_token[i]))
        return out

    def _expand(self, token: str) -> list[str]:
        pair = self._expansions.get(token)
        if pair is None:
            return [token]
        return self._expand(pair[0]) + self._expand(pair[1])

    def save(self, path) -> None:
        """Write the line-oriented vocabulary file (token<TAB>id, then merges)."""
        lines = [f"{tok}\t{i}" for i, tok in enumerate(self.id_to_token)]
        lines.append(MERGES_HEADER)
        lines.extend(f"{left}\t{right}" for left, right in self.merges)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")

    @classmethod
    def load(cls, path) -> "Vocab":
        with open(path, encoding="utf-8") as fh:
            raw = fh.read().splitlines()
        try:
            split = raw.index(MERGES_HEADER)
        except ValueError:
            raise ValueError(f"{path}: missing {MERGES_HEADER} section") from None
        tokens: list[str] = []
        for n, line in enumerate(raw[:split], start=1):
            tok, _, idx = line.partition("\t")
            if not idx or int(idx) != n - 1:
                raise ValueError(f"{path}: bad vocabulary line {n}: {line!r}")
            tokens.append(tok)
        merges = []
        for n, line in enumerate(raw[split + 1:], start=split + 2):
            left, sep, right = line.partition("\t")
            if not sep:
                raise ValueError(f"{path}: bad merge line {n}: {line!r}")
            merges.append((left, right))
        token_set = set(tokens)
        char_base = bool(merges) and not any(
            left + " " + right in token_set for left, right in merges)
        return cls(tokens, merges, char_base=char_base)


def _apply_merge(units: list[str], pair: tuple[str, str], output: str) -> list[str]:
    """Greedy left-to-right replacement of adjacent `pair` occurrences."""
    if len(units) < 2:
        return units
    left, right = pair
    out = []
    i = 0
    while i < len(units):
        if i + 1 < len(units) and units[i] == left and units[i + 1] == right:
            out.append(output)
            i += 2
        else:
            out.append(units[i])
            i += 1
    return out


def learn_vocab(corpora: Iterable[Sequence[str]], num_merges: int,
                char_base: bool = False) -> Vocab:
    """Learn a shared vocabulary from base-token streams.

    Pair counts are pooled over all streams; each round merges the most
    frequent adjacent pair, ties broken by lexicographic pair order. Stops
    early when no pair occurs at least twice.
    """
    if num_merges < 0:
        raise ValueError("num_merges must be >= 0")
    streams = [list(s) for s in corpora]
    if not streams or all(len(s) == 0 for s in streams):
        raise ValueError("empty training data")

    base = sorted({u for s in streams for u in s})
    joiner = "" if char_base else " "

    merges: list[tuple[str, str]] = []
    merged_tokens: list[str] = []
    for _ in range(num_merges):
        counts: Counter = Counter()
        for s in streams:
            for a, b in zip(s, s[1:]):
                counts[(a, b)] += 1
        if not counts:
            break
        top = max(counts.values())
        if top < 2:
            break
        pair = min(p for p, c in counts.items() if c == top)
        output = pair[0] + joiner + pair[1]
        merges.append(pair)
        if output not in merged_tokens and output not in base:
            merged_tokens.append(output)
        streams = [_apply_merge(s, pair, output) for s in streams]

    tokens = list(SPECIAL_TOKENS) + base + merged_tokens
    return Vocab(tokens, merges, char_base=char_base)
