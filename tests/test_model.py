import json

import numpy as np
import pytest

from oracles import finite_diff_max_rel_err

from crossgen import autodiff as ad
from crossgen.model import (ModelConfig, ParamGroup, Seq2SeqModel, checkpoint_digest,
                            group_of, load_checkpoint, save_checkpoint)
from crossgen.vocab import BOS_ID, NUM_SPECIALS

V = 23


def seq(rng, n):
    """A batch of one random sequence of n regular tokens: (1, n)."""
    return rng.integers(NUM_SPECIALS, V, size=(1, n))


def zeros(n):
    return np.zeros((1, n), dtype=int)


def test_config_validation():
    with pytest.raises(ValueError, match="divisible"):
        ModelConfig(d_model=10, n_heads=3)
    with pytest.raises(ValueError, match="dtype"):
        ModelConfig(dtype="float16")


def test_embed_zeroed_tables_give_zero_vectors(verify_model, rng):
    for name in ("tok_emb", "pos_emb", "lang_emb"):
        verify_model.params[name].data[:] = 0.0
    out = verify_model.embed(seq(rng, 5), zeros(5))
    np.testing.assert_array_equal(out.data, np.zeros((1, 5, 16)))


def test_embed_lang_tag_changes_output_by_embedding_delta(verify_model, rng):
    ids = seq(rng, 6)
    out0 = verify_model.embed(ids, zeros(6)).data
    out1 = verify_model.embed(ids, zeros(6) + 1).data
    lang = verify_model.params["lang_emb"].data
    delta = lang[1] - lang[0]
    np.testing.assert_allclose(out1 - out0, np.tile(delta, (1, 6, 1)), atol=1e-12)


def test_embed_gradient_matches_finite_differences(verify_model, rng):
    ids = seq(rng, 5)
    tags = np.array([[0, 0, 1, 1, 0]])
    w = rng.standard_normal((1, 5, 16))

    def loss():
        return ad.tsum(ad.mul(verify_model.embed(ids, tags), w))

    params = {n: verify_model.params[n] for n in ("tok_emb", "pos_emb", "lang_emb")}
    assert finite_diff_max_rel_err(loss, params, rng) <= 1e-4


def test_embed_errors(verify_model, rng):
    with pytest.raises(ValueError, match="max_positions"):
        verify_model.embed(seq(rng, 41), zeros(41))
    with pytest.raises(ValueError, match="tag"):
        verify_model.embed(seq(rng, 3), np.array([[0, 1, 2]]))


@pytest.mark.parametrize("bad", [-1, V, 99])
def test_embed_rejects_out_of_range_token_ids(verify_model, bad):
    with pytest.raises(ValueError, match=f"token id {bad} outside"):
        verify_model.embed(np.array([[7, bad, 9]]), zeros(3))
    with pytest.raises(ValueError, match=f"token id {bad} outside"):
        verify_model.encode(np.array([[7, 8], [bad, 9]]), np.zeros((2, 2), dtype=int))


def test_forward_methods_take_batches_only(verify_model, rng):
    ids = seq(rng, 4)
    with pytest.raises(ValueError, match="2-D"):
        verify_model.embed(ids[0], zeros(4)[0])
    with pytest.raises(ValueError, match="2-D"):
        verify_model.encode(ids[0], zeros(4)[0])
    enc = verify_model.encode(ids, zeros(4))
    tgt = np.array([[BOS_ID, 7]])
    with pytest.raises(ValueError, match="2-D"):
        verify_model.decode_forward(enc, None, tgt[0], 0)
    with pytest.raises(ValueError, match="encoder_states"):
        verify_model.decode_forward(ad.reshape(enc, (4, 16)), None, tgt, 0)
    with pytest.raises(ValueError, match="tgt_lang"):
        verify_model.decode_forward(enc, None, tgt, [0, 1])


def test_decoder_needs_one_target_row_per_source_row(verify_model, rng):
    ids = np.concatenate([seq(rng, 4) for _ in range(3)])
    enc = verify_model.encode(ids, np.zeros_like(ids))
    tgt = np.array([[BOS_ID, 7]])
    with pytest.raises(ValueError, match="1 target rows for 3 sources"):
        verify_model.decode_forward(enc, None, tgt, 0)
    with ad.no_grad():
        cache = verify_model.start_decoding(enc)
        with pytest.raises(ValueError, match="1 target rows for 3 sources"):
            verify_model.decode_forward(None, None, tgt, 0, cache=cache)
        cache.reorder(np.array([2]))
        assert verify_model.decode_forward(None, None, tgt, 0, cache=cache).shape == (1, 2, V)


def test_encode_single_token_shape(verify_model):
    out = verify_model.encode([[7]], [[0]])
    assert out.shape == (1, 1, 16)


def test_encode_is_pure(verify_model, rng):
    ids = seq(rng, 8)
    tags = zeros(8)
    a = verify_model.encode(ids, tags).data
    b = verify_model.encode(ids, tags).data
    assert np.array_equal(a, b)


def test_encode_pad_invariance(verify_model, rng):
    ids = seq(rng, 7)
    tags = zeros(7)
    plain = verify_model.encode(ids, tags, pad_mask=np.zeros((1, 7), dtype=bool)).data

    padded_ids = np.concatenate([ids, [[1, 1, 1]]], axis=1)
    pad_mask = np.array([[False] * 7 + [True] * 3])
    padded = verify_model.encode(padded_ids, zeros(10), pad_mask=pad_mask).data
    np.testing.assert_allclose(padded[:, :7], plain, atol=1e-6)

    # pad-position token ids are irrelevant to non-pad outputs
    padded_ids2 = np.concatenate([ids, [[9, 12, 20]]], axis=1)
    padded2 = verify_model.encode(padded_ids2, zeros(10), pad_mask=pad_mask).data
    np.testing.assert_allclose(padded2[:, :7], padded[:, :7], atol=1e-6)


def test_decoder_causality(verify_model, rng):
    src = seq(rng, 6)
    enc = verify_model.encode(src, zeros(6))
    tgt = np.concatenate([[[BOS_ID]], seq(rng, 7)], axis=1)
    logits = verify_model.decode_forward(enc, None, tgt, 0).data
    assert logits.shape == (1, 8, V)
    for t in range(7):
        mutated = tgt.copy()
        mutated[:, t + 1:] = ((mutated[:, t + 1:] + 3 - NUM_SPECIALS) % (V - NUM_SPECIALS)
                              + NUM_SPECIALS)
        logits2 = verify_model.decode_forward(enc, None, mutated, 0).data
        np.testing.assert_allclose(logits2[:, : t + 1], logits[:, : t + 1], atol=1e-6)


def test_decoder_language_tag_pathway_is_live(verify_model, rng):
    src = seq(rng, 5)
    enc = verify_model.encode(src, zeros(5))
    tgt = np.concatenate([[[BOS_ID]], seq(rng, 4)], axis=1)
    l0 = verify_model.decode_forward(enc, None, tgt, 0).data
    l1 = verify_model.decode_forward(enc, None, tgt, 1).data
    assert np.abs(l0 - l1).max() > 1e-6


def test_partition_is_disjoint_and_exhaustive(verify_model):
    parts = verify_model.partition_params()
    names = [n for group in parts.values() for n in group]
    assert sorted(names) == sorted(verify_model.params)
    assert len(names) == len(set(names))
    for n in parts[ParamGroup.ENCODER_LAYERS]:
        assert "emb" not in n
    assert parts[ParamGroup.WORD_EMBEDDINGS] == ["tok_emb"]
    assert sorted(parts[ParamGroup.TAG_AND_POSITION_EMBEDDINGS]) == ["lang_emb", "pos_emb"]
    assert parts[ParamGroup.OUTPUT_HEAD] == ["out_bias"]


def test_parameter_counts_match_closed_form():
    cfg = ModelConfig(enc_layers=1, dec_layers=1, d_model=8, n_heads=2, d_ffn=16,
                      max_positions=12, vocab_size=10, num_languages=3, dtype="float64")
    model = Seq2SeqModel.build(cfg, seed=0)
    d, f = 8, 16
    attn = 4 * d * d + 4 * d
    ln = 2 * d
    ffn = d * f + f + f * d + d
    per_enc_layer = attn + 2 * ln + ffn
    per_dec_layer = 2 * attn + 3 * ln + ffn
    counts = {g: sum(model.params[n].data.size for n in names)
              for g, names in model.partition_params().items()}
    assert counts[ParamGroup.WORD_EMBEDDINGS] == 10 * d
    assert counts[ParamGroup.TAG_AND_POSITION_EMBEDDINGS] == 12 * d + 3 * d
    assert counts[ParamGroup.OUTPUT_HEAD] == 10
    assert counts[ParamGroup.ENCODER_LAYERS] == per_enc_layer + ln
    assert counts[ParamGroup.DECODER_LAYERS] == per_dec_layer + ln


def test_tied_projection_shares_token_embedding(verify_model, rng):
    v = 9
    ids = np.array([[v, v + 1]])
    tags = zeros(2)
    emb_before = verify_model.embed(ids, tags).data[0].copy()
    states = verify_model.encode(seq(rng, 4), zeros(4))
    logits_before = verify_model.output_logits(states).data.copy()

    verify_model.params["tok_emb"].data[v] += 0.5
    emb_after = verify_model.embed(ids, tags).data[0]
    logits_after = verify_model.output_logits(verify_model.encode(seq(rng, 4), zeros(4))).data

    assert np.abs(emb_after[0] - emb_before[0]).max() > 0.1   # encoding of v moved
    assert np.abs(emb_after[1] - emb_before[1]).max() == 0.0  # other rows untouched
    assert np.abs(logits_after[..., v] - logits_before[..., v]).max() > 0.0


def test_group_of_rejects_unknown():
    with pytest.raises(KeyError):
        group_of("mystery.weight")


def test_checkpoint_roundtrip(tmp_path, verify_model):
    path = tmp_path / "model.ckpt"
    save_checkpoint(verify_model, path)
    loaded = load_checkpoint(path)
    assert loaded.config == verify_model.config
    for name, tensor in verify_model.params.items():
        np.testing.assert_array_equal(loaded.params[name].data, tensor.data)
    # deterministic bytes
    path2 = tmp_path / "model2.ckpt"
    save_checkpoint(verify_model, path2)
    assert checkpoint_digest(path) == checkpoint_digest(path2)


def _rewrite(path, edit_header=None, edit_payload=None):
    header_raw, _, payload = path.read_bytes().partition(b"\n")
    header = json.loads(header_raw)
    if edit_header:
        edit_header(header)
    if edit_payload:
        payload = edit_payload(bytearray(payload))
    tampered = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    path.write_bytes(tampered + b"\n" + bytes(payload))


def test_checkpoint_header_is_format_config_and_sha256(tmp_path):
    cfg = ModelConfig(enc_layers=1, dec_layers=1, d_model=8, n_heads=2, d_ffn=16,
                      max_positions=12, vocab_size=10, num_languages=2, dtype="float32")
    model = Seq2SeqModel.build(cfg, seed=0)
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, path)
    header_raw = path.read_bytes().partition(b"\n")[0]
    assert set(json.loads(header_raw)) == {"format", "config", "sha256"}
    n_params = sum(t.data.size for t in model.params.values())
    assert path.stat().st_size == len(header_raw) + 1 + 4 * n_params
    loaded = load_checkpoint(path)
    for name, tensor in model.params.items():
        assert loaded.params[name].data.dtype == np.float32
        assert loaded.params[name].data.tobytes() == tensor.data.tobytes()


def test_checkpoint_refuses_a_parameter_the_config_does_not_lay_out(tmp_path, verify_model):
    verify_model.params["out_bias"].data = verify_model.params["out_bias"].data.astype(np.float32)
    path = tmp_path / "model.ckpt"
    with pytest.raises(ValueError, match="parameter out_bias is float32"):
        save_checkpoint(verify_model, path)
    assert not path.exists()


@pytest.mark.parametrize("key, value", [("d_model", 8), ("dtype", "float32")])
def test_checkpoint_config_edit_that_changes_payload_length_is_rejected(
        tmp_path, verify_model, key, value):
    path = tmp_path / "model.ckpt"
    save_checkpoint(verify_model, path)
    _rewrite(path, edit_header=lambda header: header["config"].update({key: value}))
    with pytest.raises(ValueError, match="payload holds .* bytes but the config lays out"):
        load_checkpoint(path)


def test_checkpoint_config_edit_that_keeps_payload_length_is_rejected(tmp_path, verify_model):
    path = tmp_path / "model.ckpt"
    save_checkpoint(verify_model, path)
    assert verify_model.config.n_heads == 2
    _rewrite(path, edit_header=lambda header: header["config"].update(n_heads=4))
    with pytest.raises(ValueError, match="sha256"):
        load_checkpoint(path)


@pytest.mark.parametrize("edit", ["unknown", "missing"])
def test_checkpoint_config_keys_must_match_model_config(tmp_path, verify_model, edit):
    path = tmp_path / "model.ckpt"
    save_checkpoint(verify_model, path)

    def change_keys(header):
        if edit == "unknown":
            header["config"]["dropout"] = 0.1
        else:
            del header["config"]["num_languages"]

    _rewrite(path, edit_header=change_keys)
    with pytest.raises(ValueError, match=f"{path.name}: checkpoint config must have"):
        load_checkpoint(path)


@pytest.mark.parametrize("edit", ["append", "cut"])
def test_checkpoint_payload_length_must_match_header(tmp_path, verify_model, edit):
    path = tmp_path / "model.ckpt"
    save_checkpoint(verify_model, path)
    blob = path.read_bytes()
    path.write_bytes(blob + b"\x00" * 22 if edit == "append" else blob[:-22])
    with pytest.raises(ValueError, match="payload"):
        load_checkpoint(path)


def test_checkpoint_rejects_garbage(tmp_path):
    path = tmp_path / "junk.ckpt"
    path.write_bytes(b"\x00\x01\x02 not a checkpoint\n")
    with pytest.raises(ValueError):
        load_checkpoint(path)


def test_checkpoint_rejects_another_format(tmp_path, verify_model):
    path = tmp_path / "model.ckpt"
    save_checkpoint(verify_model, path)
    _rewrite(path, edit_header=lambda header: header.update(format="crossgen-ckpt-v1"))
    with pytest.raises(ValueError, match="unsupported checkpoint format 'crossgen-ckpt-v1'"):
        load_checkpoint(path)


def test_checkpoint_rejects_a_flipped_payload_byte(tmp_path, verify_model):
    path = tmp_path / "model.ckpt"
    save_checkpoint(verify_model, path)

    def flip(payload):
        payload[len(payload) // 2] ^= 0x01
        return payload

    _rewrite(path, edit_payload=flip)
    with pytest.raises(ValueError, match="sha256"):
        load_checkpoint(path)
