"""Transformer encoder-decoder with token/position/language-tag embeddings.

Pre-norm residual layout, learned positions, exact GELU, and an output
projection tied to the token embedding table. Parameters are plain tensors in
a flat name -> Tensor map; names encode the freeze group they belong to.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, fields
from enum import Enum
from typing import Iterable, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .fileio import atomic_write
from .seeding import named_rng
from .vocab import PAD_ID

NEG_INF = -1e9


@dataclass(frozen=True)
class ModelConfig:
    enc_layers: int = 2
    dec_layers: int = 2
    d_model: int = 64
    n_heads: int = 4
    d_ffn: int = 256
    max_positions: int = 64
    vocab_size: int = 32
    num_languages: int = 2
    dtype: str = "float32"

    def __post_init__(self):
        if self.d_model % self.n_heads != 0:
            raise ValueError("d_model must be divisible by n_heads")
        if self.dtype not in ("float32", "float64"):
            raise ValueError("dtype must be float32 or float64")

    @property
    def np_dtype(self):
        return np.float64 if self.dtype == "float64" else np.float32


class ParamGroup(Enum):
    WORD_EMBEDDINGS = "WordEmbeddings"
    ENCODER_LAYERS = "EncoderLayers"
    DECODER_LAYERS = "DecoderLayers"
    OUTPUT_HEAD = "OutputHead"
    TAG_AND_POSITION_EMBEDDINGS = "TagAndPositionEmbeddings"


def group_of(name: str) -> ParamGroup:
    """Freeze group a parameter belongs to, derived from its name."""
    if name == "tok_emb":
        return ParamGroup.WORD_EMBEDDINGS
    if name in ("pos_emb", "lang_emb"):
        return ParamGroup.TAG_AND_POSITION_EMBEDDINGS
    if name == "out_bias":
        return ParamGroup.OUTPUT_HEAD
    if name.startswith("enc."):
        return ParamGroup.ENCODER_LAYERS
    if name.startswith("dec."):
        return ParamGroup.DECODER_LAYERS
    raise KeyError(f"unknown parameter {name!r}")


def param_specs(config: ModelConfig) -> list[tuple[str, tuple[int, ...], str]]:
    """Name, shape and initialiser ("normal", "zeros" or "ones") of every
    parameter, in creation order (the order of `build`'s random draws)."""
    d, f = config.d_model, config.d_ffn
    specs = [("tok_emb", (config.vocab_size, d), "normal"),
             ("pos_emb", (config.max_positions, d), "normal"),
             ("lang_emb", (config.num_languages, d), "normal"),
             ("out_bias", (config.vocab_size,), "zeros")]

    def attn_block(prefix):
        specs.extend((f"{prefix}.{w}", (d, d), "normal") for w in ("wq", "wk", "wv", "wo"))
        specs.extend((f"{prefix}.{b}", (d,), "zeros") for b in ("bq", "bk", "bv", "bo"))

    def ln_block(prefix):
        specs.extend([(f"{prefix}.g", (d,), "ones"), (f"{prefix}.b", (d,), "zeros")])

    def ffn_block(prefix):
        specs.extend([(f"{prefix}.w1", (d, f), "normal"), (f"{prefix}.b1", (f,), "zeros"),
                      (f"{prefix}.w2", (f, d), "normal"), (f"{prefix}.b2", (d,), "zeros")])

    for i in range(config.enc_layers):
        ln_block(f"enc.{i}.ln1")
        attn_block(f"enc.{i}.attn")
        ln_block(f"enc.{i}.ln2")
        ffn_block(f"enc.{i}.ffn")
    ln_block("enc.final_ln")

    for i in range(config.dec_layers):
        ln_block(f"dec.{i}.ln1")
        attn_block(f"dec.{i}.self_attn")
        ln_block(f"dec.{i}.ln2")
        attn_block(f"dec.{i}.cross_attn")
        ln_block(f"dec.{i}.ln3")
        ffn_block(f"dec.{i}.ffn")
    ln_block("dec.final_ln")
    return specs


def _as_batch(arr, what: str) -> np.ndarray:
    arr = np.asarray(arr, dtype=np.int64)
    if arr.ndim != 2:
        raise ValueError(f"{what} must be a batch of sequences (2-D), not {arr.ndim}-D")
    return arr


def pad_batch(seqs: Sequence[Sequence[int]],
              pad_value: int = PAD_ID) -> tuple[np.ndarray, np.ndarray]:
    """Right-pad to a rectangle; returns (ids, pad_mask) with True at pads."""
    width = max(len(s) for s in seqs)
    ids = np.full((len(seqs), width), pad_value, dtype=np.int64)
    pad = np.ones((len(seqs), width), dtype=bool)
    for b, s in enumerate(seqs):
        ids[b, :len(s)] = s
        pad[b, :len(s)] = False
    return ids, pad


class Seq2SeqModel:
    """Encoder-decoder over a shared subword vocabulary.

    Forward methods take a padded batch: (B, T) token ids, language tags and
    pad masks, and (B, Ts, d) encoder states. `pad_mask` marks padded
    positions with True.
    """

    def __init__(self, config: ModelConfig, params: dict[str, Tensor]):
        self.config = config
        self.params = params

    # ------------------------------------------------------------------
    # construction

    @classmethod
    def build(cls, config: ModelConfig, seed: int = 0) -> "Seq2SeqModel":
        rng = named_rng(seed, "model.init")
        dt = config.np_dtype
        params: dict[str, Tensor] = {}
        for name, shape, init in param_specs(config):
            if init == "normal":
                data = rng.normal(0.0, 0.02, shape)
            else:
                data = np.zeros(shape) if init == "zeros" else np.ones(shape)
            params[name] = Tensor(data.astype(dt), requires_grad=True)
        return cls(config, params)

    # ------------------------------------------------------------------
    # parameter bookkeeping

    def partition_params(self) -> dict[ParamGroup, list[str]]:
        """Disjoint, exhaustive name partition used by freeze plans."""
        out: dict[ParamGroup, list[str]] = {g: [] for g in ParamGroup}
        for name in self.params:
            out[group_of(name)].append(name)
        return out

    def tensors(self, groups: Iterable[ParamGroup] | None = None) -> dict[str, Tensor]:
        if groups is None:
            return dict(self.params)
        wanted = set(groups)
        return {n: t for n, t in self.params.items() if group_of(n) in wanted}

    def group_digest(self, group: ParamGroup) -> str:
        """Content hash of one freeze group (bit-identity checks)."""
        h = hashlib.sha256()
        for name in sorted(self.partition_params()[group]):
            h.update(name.encode())
            h.update(self.params[name].data.tobytes())
        return h.hexdigest()

    # ------------------------------------------------------------------
    # forward passes

    def embed(self, ids, lang_tags, start: int = 0) -> Tensor:
        """token + position + language-tag embeddings, summed per position;
        positions count from `start`."""
        ids, tags = _as_batch(ids, "ids"), _as_batch(lang_tags, "lang_tags")
        if ids.shape != tags.shape:
            raise ValueError("ids and lang_tags must have identical shape")
        n = start + ids.shape[1]
        if n > self.config.max_positions:
            raise ValueError(f"sequence length {n} exceeds max_positions "
                             f"{self.config.max_positions}")
        vocab = self.config.vocab_size
        bad = ids[(ids < 0) | (ids >= vocab)]
        if bad.size:
            raise ValueError(f"token id {bad[0]} outside the vocabulary [0, {vocab})")
        if tags.size and (tags.min() < 0 or tags.max() >= self.config.num_languages):
            raise ValueError("language tag id out of range")
        P = self.params
        x = ad.gather_rows(P["tok_emb"], ids)
        x = ad.add(x, ad.gather_rows(P["pos_emb"], np.arange(start, n)))
        return ad.add(x, ad.gather_rows(P["lang_emb"], tags))

    def _proj(self, prefix: str, x: Tensor, which: str) -> Tensor:
        """x @ `{prefix}.w{which}` + `{prefix}.b{which}`."""
        P = self.params
        return ad.add(ad.matmul(x, P[f"{prefix}.w{which}"]), P[f"{prefix}.b{which}"])

    def _attention(self, prefix: str, q_in: Tensor, k: Tensor, v: Tensor,
                   bias: np.ndarray | None) -> Tensor:
        """Multi-head attention of q_in (B, Tq, d) over keys and values already
        projected, (B, Tk, d); `bias` is added to the scores (B, H, Tq, Tk)."""
        ctx = ad.attention(self._proj(prefix, q_in, "q"), k, v, bias, self.config.n_heads)
        return self._proj(prefix, ctx, "o")

    def _ffn(self, prefix: str, x: Tensor) -> Tensor:
        return self._proj(prefix, ad.gelu(self._proj(prefix, x, "1")), "2")

    def _ln(self, prefix: str, x: Tensor) -> Tensor:
        return ad.layer_norm(x, self.params[f"{prefix}.g"], self.params[f"{prefix}.b"])

    def encode(self, ids, lang_tags, pad_mask=None) -> Tensor:
        """Bidirectional encoding; padded positions are never attended to."""
        x = self.embed(ids, lang_tags)
        bias = _pad_bias(pad_mask)
        if bias is not None and (bias.shape[0], bias.shape[-1]) != x.shape[:2]:
            raise ValueError("pad_mask shape mismatch")
        for i in range(self.config.enc_layers):
            prefix, normed = f"enc.{i}.attn", self._ln(f"enc.{i}.ln1", x)
            k, v = self._proj(prefix, normed, "k"), self._proj(prefix, normed, "v")
            x = ad.add(x, self._attention(prefix, normed, k, v, bias))
            x = ad.add(x, self._ffn(f"enc.{i}.ffn", self._ln(f"enc.{i}.ln2", x)))
        return self._ln("enc.final_ln", x)

    def start_decoding(self, encoder_states: Tensor, src_pad_mask=None) -> DecoderCache:
        """An empty cache for decoding a batch of encoded sources (B, Ts, d):
        each decoder layer's cross-attention keys and values are computed
        here, once per source."""
        if len(encoder_states.shape) != 3:
            raise ValueError("encoder_states must be (B, Ts, d)")
        kv = {}
        for i in range(self.config.dec_layers):
            prefix = f"dec.{i}.cross_attn"
            kv[prefix] = (self._proj(prefix, encoder_states, "k"),
                          self._proj(prefix, encoder_states, "v"))
        return DecoderCache(kv, _pad_bias(src_pad_mask), encoder_states.shape[0])

    def decode_forward(self, encoder_states: Tensor | None, src_pad_mask, target_ids,
                       tgt_lang, cache: DecoderCache | None = None) -> Tensor:
        """Causal decoding over BOS-prefixed targets; logits[:, t] sees
        targets[:, 0..t]. `tgt_lang` is one language id for every row or one
        per row. Without a `cache`, the targets are decoded from a fresh
        `start_decoding(encoder_states, src_pad_mask)` cache.

        Incremental mode (no-grad decoding only): with a `cache` from
        `start_decoding`, `encoder_states` and `src_pad_mask` are None and
        `target_ids` continue the cached prefixes. They take the positions
        after the cached ones and attend to those too; the cache then holds
        them as well. Either way there is one target row per cache row.
        """
        tgt = _as_batch(target_ids, "target_ids")
        B, T = tgt.shape
        if cache is None:
            cache = self.start_decoding(encoder_states, src_pad_mask)
        elif encoder_states is not None or src_pad_mask is not None:
            raise ValueError("a cached decoder takes its sources from the cache")
        if B != cache.rows:
            raise ValueError(f"{B} target rows for {cache.rows} sources; "
                             "need one target row per source row")
        lang = np.asarray(tgt_lang, dtype=np.int64)
        if lang.shape not in ((), (B,)):
            raise ValueError("tgt_lang must be one language id or one per example")
        start = cache.length
        y = self.embed(tgt, np.broadcast_to(lang[..., None], (B, T)), start)

        # position start + t sees positions 0..start + t
        causal = np.where(np.triu(np.ones((T, start + T), dtype=bool), k=start + 1),
                          NEG_INF, 0.0)

        for i in range(self.config.dec_layers):
            prefix, normed = f"dec.{i}.self_attn", self._ln(f"dec.{i}.ln1", y)
            k, v = cache.extend(prefix, self._proj(prefix, normed, "k"),
                                self._proj(prefix, normed, "v"))
            y = ad.add(y, self._attention(prefix, normed, k, v, causal))
            prefix = f"dec.{i}.cross_attn"
            y = ad.add(y, self._attention(prefix, self._ln(f"dec.{i}.ln2", y),
                                          *cache.kv[prefix], cache.cross_bias))
            y = ad.add(y, self._ffn(f"dec.{i}.ffn", self._ln(f"dec.{i}.ln3", y)))
        cache.length += T
        return self.output_logits(self._ln("dec.final_ln", y))

    def output_logits(self, states: Tensor) -> Tensor:
        """Project hidden states through the tied token embedding table."""
        w = ad.swapaxes(self.params["tok_emb"], 0, 1)
        return ad.add(ad.matmul(states, w), self.params["out_bias"])


class DecoderCache:
    """Keys and values of the positions decoded so far, per attention layer:
    projected (rows, T, d) tensors under the layer's parameter prefix. Cross-attention
    entries are computed once by `Seq2SeqModel.start_decoding`; self-attention
    entries grow with each `decode_forward` call. A fresh cache hands the first
    call's keys and values back as they are, so gradients reach them."""

    def __init__(self, kv: dict[str, tuple[Tensor, Tensor]], cross_bias: np.ndarray | None,
                 rows: int):
        self.kv = kv
        self.cross_bias = cross_bias
        self.rows = rows
        self.length = 0

    def extend(self, prefix: str, k: Tensor, v: Tensor) -> tuple[Tensor, Tensor]:
        """Append new positions' keys and values; returns the whole sequence's."""
        if prefix in self.kv:
            old_k, old_v = self.kv[prefix]
            k = Tensor(np.concatenate([old_k.data, k.data], axis=1))
            v = Tensor(np.concatenate([old_v.data, v.data], axis=1))
        self.kv[prefix] = (k, v)
        return k, v

    def reorder(self, rows: np.ndarray) -> None:
        """Keep, repeat or permute rows: new row i is old row rows[i]."""
        self.kv = {p: (Tensor(k.data[rows]), Tensor(v.data[rows]))
                   for p, (k, v) in self.kv.items()}
        self.rows = len(rows)
        if self.cross_bias is not None:
            self.cross_bias = self.cross_bias[rows]


def _pad_bias(pad_mask) -> np.ndarray | None:
    """Additive attention bias (B, 1, 1, T) that hides padded key positions."""
    if pad_mask is None:
        return None
    pm = _as_batch(pad_mask, "pad_mask")
    return np.where(pm.astype(bool), NEG_INF, 0.0)[:, None, None, :]


# ---------------------------------------------------------------------------
# Checkpoint container: one JSON header line (format, config, sha256), then
# every parameter in `param_specs(config)` order as raw little-endian arrays of
# the config's dtype. The sha256 covers the canonical config JSON and the
# payload. Deterministic byte-for-byte so rerun checkpoints hash identically.

CKPT_FORMAT = "crossgen-ckpt-v2"


def _checksum(config: ModelConfig, payload: bytes) -> str:
    h = hashlib.sha256(json.dumps(asdict(config), sort_keys=True,
                                  separators=(",", ":")).encode("utf-8"))
    h.update(payload)
    return h.hexdigest()


def save_checkpoint(model: Seq2SeqModel, path) -> None:
    config = model.config
    le = np.dtype(config.np_dtype).newbyteorder("<")
    blobs = []
    for name, shape, _ in param_specs(config):
        arr = model.params[name].data
        if arr.shape != shape or arr.dtype != config.np_dtype:
            raise ValueError(f"parameter {name} is {arr.dtype} {arr.shape}, but the config "
                             f"lays out {config.dtype} {shape}")
        blobs.append(arr.astype(le, copy=False).tobytes())
    payload = b"".join(blobs)
    header = json.dumps({"format": CKPT_FORMAT, "config": asdict(config),
                         "sha256": _checksum(config, payload)},
                        sort_keys=True, separators=(",", ":"))
    with atomic_write(path, "wb") as fh:
        fh.write(header.encode("utf-8") + b"\n")
        fh.write(payload)


def load_checkpoint(path) -> Seq2SeqModel:
    """Load and verify a checkpoint: the payload must be exactly as long as
    the header's config lays out and match the header's sha256."""
    with open(path, "rb") as fh:
        header_line = fh.readline()
        payload = fh.read()
    try:
        header = json.loads(header_line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ValueError(f"{path}: not a checkpoint file: {exc}") from None
    fmt = header.get("format") if isinstance(header, dict) else None
    if fmt != CKPT_FORMAT:
        raise ValueError(f"{path}: unsupported checkpoint format {fmt!r}")
    keys = {f.name for f in fields(ModelConfig)}
    if not isinstance(header.get("config"), dict) or set(header["config"]) != keys:
        raise ValueError(f"{path}: checkpoint config must have exactly the keys {sorted(keys)}")
    try:
        config = ModelConfig(**header["config"])
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: bad checkpoint config: {exc}") from None
    specs = param_specs(config)
    sizes = [math.prod(shape) for _, shape, _ in specs]
    le = np.dtype(config.np_dtype).newbyteorder("<")
    if len(payload) != sum(sizes) * le.itemsize:
        raise ValueError(f"{path}: payload holds {len(payload)} bytes but the config lays "
                         f"out {sum(sizes) * le.itemsize}")
    if header.get("sha256") != _checksum(config, payload):
        raise ValueError(f"{path}: config and payload do not match the header's sha256")
    flat = np.frombuffer(payload, dtype=le).astype(config.np_dtype)
    chunks = np.split(flat, np.cumsum(sizes)[:-1])
    return Seq2SeqModel(config, {name: Tensor(chunk.reshape(shape), requires_grad=True)
                                 for (name, shape, _), chunk in zip(specs, chunks)})


def checkpoint_digest(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        h.update(fh.read())
    return h.hexdigest()
