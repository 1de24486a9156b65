"""Transformer encoder-decoder with token/position/language-tag embeddings.

Pre-norm residual layout, learned positions, exact GELU, and an output
projection tied to the token embedding table. Parameters are plain tensors in
a flat name -> Tensor map; names encode the freeze group they belong to.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass
from enum import Enum
from typing import Iterable

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .seeding import named_rng
from .vocab import LanguageTag

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

    @property
    def head_dim(self) -> int:
        return self.d_model // self.n_heads


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


def _as_batch(ids) -> tuple[np.ndarray, bool]:
    arr = np.asarray(ids, dtype=np.int64)
    if arr.ndim == 1:
        return arr[None, :], True
    if arr.ndim == 2:
        return arr, False
    raise ValueError("expected a sequence or a batch of sequences")


class Seq2SeqModel:
    """Encoder-decoder over a shared subword vocabulary.

    All forward methods accept a single sequence (1D) or a batch (2D); a 1D
    input yields an output without the batch axis. `pad_mask` marks padded
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

    def num_params(self) -> int:
        return sum(t.data.size for t in self.params.values())

    def group_digest(self, group: ParamGroup) -> str:
        """Content hash of one freeze group (bit-identity checks)."""
        h = hashlib.sha256()
        for name in sorted(self.partition_params()[group]):
            h.update(name.encode())
            h.update(self.params[name].data.tobytes())
        return h.hexdigest()

    # ------------------------------------------------------------------
    # forward passes

    def _check_positions(self, n: int) -> None:
        if n > self.config.max_positions:
            raise ValueError(f"sequence length {n} exceeds max_positions "
                             f"{self.config.max_positions}")

    def embed(self, ids, lang_tags, start: int = 0) -> Tensor:
        """token + position + language-tag embeddings, summed per position;
        positions count from `start`."""
        ids, squeeze = _as_batch(ids)
        tags, _ = _as_batch(lang_tags)
        if ids.shape != tags.shape:
            raise ValueError("ids and lang_tags must have identical shape")
        self._check_positions(start + ids.shape[1])
        if tags.size and (tags.min() < 0 or tags.max() >= self.config.num_languages):
            raise ValueError("language tag id out of range")
        P = self.params
        x = ad.gather_rows(P["tok_emb"], ids)
        x = ad.add(x, ad.take_rows(P["pos_emb"], np.arange(start, start + ids.shape[1])))
        x = ad.add(x, ad.gather_rows(P["lang_emb"], tags))
        return _squeeze0(x) if squeeze else x

    def _heads(self, prefix: str, x: Tensor, which: str) -> Tensor:
        """Project (B, T, d) states with `{prefix}.w{which}` and split the
        result into heads: (B, H, T, dh)."""
        P, cfg = self.params, self.config
        y = ad.add(ad.matmul(x, P[f"{prefix}.w{which}"]), P[f"{prefix}.b{which}"])
        return ad.swapaxes(ad.reshape(y, (x.shape[0], x.shape[1], cfg.n_heads, cfg.head_dim)),
                           1, 2)

    def _attention(self, prefix: str, q_in: Tensor, kv_in: Tensor | None,
                   bias: np.ndarray | None, cache: DecoderCache | None = None) -> Tensor:
        """Multi-head attention of q_in over kv_in. With a cache, the keys and
        values projected from kv_in extend the cached ones, or, when kv_in is
        None (cross-attention), the cached keys and values are used as they are."""
        cfg = self.config
        B, Tq = q_in.shape[0], q_in.shape[1]
        q = self._heads(prefix, q_in, "q")
        if kv_in is None:
            k, v = cache.kv[prefix]
        else:
            k, v = self._heads(prefix, kv_in, "k"), self._heads(prefix, kv_in, "v")
            if cache is not None:
                k, v = cache.extend(prefix, k, v)
        scores = ad.mul(ad.matmul(q, ad.swapaxes(k, -1, -2)), 1.0 / np.sqrt(cfg.head_dim))
        if bias is not None:
            scores = ad.add(scores, bias.astype(cfg.np_dtype))
        ctx = ad.matmul(ad.softmax(scores), v)
        merged = ad.reshape(ad.swapaxes(ctx, 1, 2), (B, Tq, cfg.d_model))
        return ad.add(ad.matmul(merged, self.params[f"{prefix}.wo"]), self.params[f"{prefix}.bo"])

    def _ffn(self, prefix: str, x: Tensor) -> Tensor:
        P = self.params
        h = ad.gelu(ad.add(ad.matmul(x, P[f"{prefix}.w1"]), P[f"{prefix}.b1"]))
        return ad.add(ad.matmul(h, P[f"{prefix}.w2"]), P[f"{prefix}.b2"])

    def _ln(self, prefix: str, x: Tensor) -> Tensor:
        return ad.layer_norm(x, self.params[f"{prefix}.g"], self.params[f"{prefix}.b"])

    def encode(self, ids, lang_tags, pad_mask=None) -> Tensor:
        """Bidirectional encoding; padded positions are never attended to."""
        ids2, squeeze = _as_batch(ids)
        tags2, _ = _as_batch(lang_tags)
        x = self.embed(ids2, tags2)
        bias = _pad_bias(pad_mask)
        if bias is not None and (bias.shape[0], bias.shape[-1]) != ids2.shape:
            raise ValueError("pad_mask shape mismatch")
        for i in range(self.config.enc_layers):
            normed = self._ln(f"enc.{i}.ln1", x)
            x = ad.add(x, self._attention(f"enc.{i}.attn", normed, normed, bias))
            x = ad.add(x, self._ffn(f"enc.{i}.ffn", self._ln(f"enc.{i}.ln2", x)))
        x = self._ln("enc.final_ln", x)
        return _squeeze0(x) if squeeze else x

    def start_decoding(self, encoder_states: Tensor, src_pad_mask=None) -> DecoderCache:
        """An empty cache for incremental decoding of a batch of encoded
        sources (B, Ts, d): each decoder layer's cross-attention keys and
        values are computed here, once per source."""
        kv = {}
        for i in range(self.config.dec_layers):
            prefix = f"dec.{i}.cross_attn"
            kv[prefix] = (self._heads(prefix, encoder_states, "k"),
                          self._heads(prefix, encoder_states, "v"))
        return DecoderCache(kv, _pad_bias(src_pad_mask))

    def decode_forward(self, encoder_states: Tensor | None, src_pad_mask, target_ids,
                       tgt_lang, cache: DecoderCache | None = None) -> Tensor:
        """Causal decoding over BOS-prefixed targets; logits[t] sees targets[0..t].

        Incremental mode (no-grad decoding only): with a `cache` from
        `start_decoding`, `encoder_states` and `src_pad_mask` are None and
        `target_ids` continue the cached prefixes, one row per cache row. They
        take the positions after the cached ones and attend to those too; the
        cache then holds them as well.
        """
        tgt, squeeze = _as_batch(target_ids)
        B, T = tgt.shape
        enc = encoder_states
        if cache is not None:
            if encoder_states is not None or src_pad_mask is not None:
                raise ValueError("a cached decoder takes its sources from the cache")
            start, cross_bias = cache.length, cache.cross_bias
        else:
            if len(enc.shape) == 2:
                enc = _unsqueeze0(enc)
            if enc.shape[0] != B:
                raise ValueError("batch mismatch between targets and encoder states")
            start, cross_bias = 0, _pad_bias(src_pad_mask)
        self._check_positions(start + T)
        if isinstance(tgt_lang, LanguageTag):
            tags = np.full((B, T), tgt_lang.id, dtype=np.int64)
        else:
            arr = np.asarray(tgt_lang, dtype=np.int64)
            if arr.ndim == 0:
                tags = np.full((B, T), int(arr), dtype=np.int64)
            elif arr.shape == (B,):
                tags = np.repeat(arr[:, None], T, axis=1)
            else:
                raise ValueError("tgt_lang must be a tag, a scalar, or one id per example")
        y = self.embed(tgt, tags, start)

        # position start + t sees positions 0..start + t
        causal = np.where(np.triu(np.ones((T, start + T), dtype=bool), k=start + 1),
                          NEG_INF, 0.0)
        causal = causal[None, None, :, :]

        for i in range(self.config.dec_layers):
            normed = self._ln(f"dec.{i}.ln1", y)
            y = ad.add(y, self._attention(f"dec.{i}.self_attn", normed, normed, causal, cache))
            y = ad.add(y, self._attention(f"dec.{i}.cross_attn", self._ln(f"dec.{i}.ln2", y),
                                          enc, cross_bias, cache))
            y = ad.add(y, self._ffn(f"dec.{i}.ffn", self._ln(f"dec.{i}.ln3", y)))
        y = self._ln("dec.final_ln", y)
        if cache is not None:
            cache.length += T
        logits = self.output_logits(y)
        return _squeeze0(logits) if squeeze else logits

    def output_logits(self, states: Tensor) -> Tensor:
        """Project hidden states through the tied token embedding table."""
        w = ad.swapaxes(self.params["tok_emb"], 0, 1)
        return ad.add(ad.matmul(states, w), self.params["out_bias"])

    def mlm_head(self, encoder_states: Tensor, positions) -> Tensor:
        """Logits at selected positions of a single encoded sequence."""
        if len(encoder_states.shape) != 2:
            raise ValueError("mlm_head expects states for a single sequence (T, d)")
        positions = np.asarray(positions, dtype=np.intp)
        if positions.size and (positions.min() < 0
                               or positions.max() >= encoder_states.shape[0]):
            raise ValueError("mlm position out of range")
        return self.output_logits(ad.take_rows(encoder_states, positions))


class DecoderCache:
    """Keys and values of the positions decoded so far, per attention layer:
    (rows, H, T, dh) arrays under the layer's parameter prefix. Cross-attention
    entries are computed once by `Seq2SeqModel.start_decoding`; self-attention
    entries grow by one position per decoding step."""

    def __init__(self, kv: dict[str, tuple[Tensor, Tensor]], cross_bias: np.ndarray | None):
        self.kv = kv
        self.cross_bias = cross_bias
        self.length = 0

    def extend(self, prefix: str, k: Tensor, v: Tensor) -> tuple[Tensor, Tensor]:
        """Append new positions' keys and values; returns the whole sequence's."""
        if prefix in self.kv:
            old_k, old_v = self.kv[prefix]
            k = Tensor(np.concatenate([old_k.data, k.data], axis=2))
            v = Tensor(np.concatenate([old_v.data, v.data], axis=2))
        self.kv[prefix] = (k, v)
        return k, v

    def reorder(self, rows: np.ndarray) -> None:
        """Keep, repeat or permute rows: new row i is old row rows[i]."""
        self.kv = {p: (Tensor(k.data[rows]), Tensor(v.data[rows]))
                   for p, (k, v) in self.kv.items()}
        if self.cross_bias is not None:
            self.cross_bias = self.cross_bias[rows]


def _pad_bias(pad_mask) -> np.ndarray | None:
    """Additive attention bias (B, 1, 1, T) that hides padded key positions."""
    if pad_mask is None:
        return None
    pm, _ = _as_batch(pad_mask)
    return np.where(pm.astype(bool), NEG_INF, 0.0)[:, None, None, :]


def _squeeze0(t: Tensor) -> Tensor:
    return ad.reshape(t, t.shape[1:])


def _unsqueeze0(t: Tensor) -> Tensor:
    return ad.reshape(t, (1, *t.shape))


# ---------------------------------------------------------------------------
# Checkpoint container: one JSON header line, then raw little-endian arrays.
# Deterministic byte-for-byte so rerun checkpoints hash identically.

CKPT_FORMAT = "crossgen-ckpt-v1"


def save_checkpoint(model: Seq2SeqModel, path) -> None:
    names = list(model.params)
    manifest = []
    offset = 0
    blobs = []
    for name in names:
        arr = model.params[name].data
        le_dtype = np.dtype(arr.dtype).newbyteorder("<")
        raw = np.ascontiguousarray(arr, dtype=le_dtype).tobytes()
        manifest.append({
            "name": name,
            "shape": list(arr.shape),
            "dtype": le_dtype.str,
            "group": group_of(name).value,
            "offset": offset,
            "nbytes": len(raw),
        })
        blobs.append(raw)
        offset += len(raw)
    header = json.dumps(
        {"format": CKPT_FORMAT, "config": asdict(model.config), "params": manifest},
        sort_keys=True, separators=(",", ":"),
    )
    with open(path, "wb") as fh:
        fh.write(header.encode("utf-8") + b"\n")
        for raw in blobs:
            fh.write(raw)


def load_checkpoint(path) -> Seq2SeqModel:
    """Load and verify a checkpoint; any shape/config mismatch fails loudly."""
    with open(path, "rb") as fh:
        header_line = fh.readline()
        payload = fh.read()
    try:
        header = json.loads(header_line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ValueError(f"{path}: not a checkpoint file: {exc}") from None
    if header.get("format") != CKPT_FORMAT:
        raise ValueError(f"{path}: unsupported checkpoint format {header.get('format')!r}")
    config = ModelConfig(**header["config"])
    shapes = {name: shape for name, shape, _ in param_specs(config)}
    listed = sum(entry["nbytes"] for entry in header["params"])
    if len(payload) != listed:
        raise ValueError(f"{path}: payload holds {len(payload)} bytes but the header "
                         f"lists {listed}")
    params: dict[str, Tensor] = {}
    for entry in header["params"]:
        name = entry["name"]
        if name not in shapes:
            raise ValueError(f"{path}: unexpected parameter {name!r}")
        expected = shapes[name]
        if tuple(entry["shape"]) != expected:
            raise ValueError(f"{path}: shape mismatch for {name}: "
                             f"{entry['shape']} vs expected {list(expected)}")
        if entry["group"] != group_of(name).value:
            raise ValueError(f"{path}: group mismatch for {name}")
        raw = payload[entry["offset"]:entry["offset"] + entry["nbytes"]]
        if len(raw) != entry["nbytes"]:
            raise ValueError(f"{path}: truncated payload for {name}")
        arr = np.frombuffer(raw, dtype=np.dtype(entry["dtype"])).reshape(entry["shape"])
        params[name] = Tensor(arr.astype(config.np_dtype), requires_grad=True)
    missing = set(shapes) - set(params)
    if missing:
        raise ValueError(f"{path}: missing parameters {sorted(missing)[:3]}...")
    return Seq2SeqModel(config, params)


def checkpoint_digest(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        h.update(fh.read())
    return h.hexdigest()
