import functools
import hashlib
import json
import os
import struct
import tempfile
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shuffleformer import (SHUFFLE_MODES, CheckpointError, ModelConfig, Rng, Tensor,
                           build_variant,
                           load_checkpoint, load_tensor, model_forward, named_buffers,
                           named_parameters, read_container, save_checkpoint,
                           save_tensor, write_container, init_model_params)
from shuffleformer.model import NWC_POSITIONS, state_shapes


def small_config(**overrides):
    base = dict(channels=8, depths=(2,), num_classes=4, resolution=16,
                window=2, head_dim=4)
    base.update(overrides)
    return ModelConfig(**base)


def _wide_model():
    """T-stage width, so the payload (~5 MB) outweighs the header."""
    cfg = ModelConfig(channels=96, depths=(2, 2), num_classes=10, resolution=32,
                      window=4, head_dim=32)
    return init_model_params(cfg, Rng(0)), cfg


def _without_maps(params):
    """`params` with the frozen maps of its one random-mode block cleared."""
    params.stages[0].blocks[1].shuffle_perms = None
    return params


def _traced_peak(fn) -> int:
    """Peak bytes that tracemalloc traces while `fn` runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture
def saved(tmp_path):
    cfg = small_config()
    params = init_model_params(cfg, Rng(0))
    path = tmp_path / "model.sfc"
    save_checkpoint(path, params, cfg)
    return path, params, cfg


class TestContainer:
    def test_round_trip_arrays(self, tmp_path):
        path = tmp_path / "t.sfc"
        rng = Rng(0)
        tensors = {"a": rng.normal((3, 4), dtype=np.float32),
                   "b": rng.normal((2,), dtype=np.float64)}
        write_container(path, tensors, {"kind": "misc"})
        meta, loaded = read_container(path)
        assert meta == {"kind": "misc"}
        for name in tensors:
            assert loaded[name].dtype == tensors[name].dtype
            assert np.array_equal(loaded[name], tensors[name])

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.sfc"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 16)
        with pytest.raises(CheckpointError):
            read_container(path)

    def test_bad_version_rejected(self, tmp_path):
        path = tmp_path / "bad.sfc"
        path.write_bytes(b"SHFCONT1" + struct.pack("<II", 99, 0))
        with pytest.raises(CheckpointError):
            read_container(path)

    def test_truncated_payload_rejected(self, tmp_path):
        path = tmp_path / "t.sfc"
        write_container(path, {"a": np.zeros(10, dtype=np.float32)}, {})
        raw = path.read_bytes()
        path.write_bytes(raw[:-8])
        with pytest.raises(CheckpointError):
            read_container(path)


def write_raw(path, header, payload=b""):
    """A container with an arbitrary JSON header, bypassing write_container."""
    text = json.dumps(header).encode()
    path.write_bytes(b"SHFCONT1" + struct.pack("<II", 1, len(text)) + text + payload)
    return path


GOOD_ENTRY = {"name": "a", "dtype": "float32", "shape": [4], "offset": 0, "nbytes": 16}


class TestMalformedHeader:
    @pytest.mark.parametrize("header", [
        {"meta": {}},
        [GOOD_ENTRY],
        {"meta": [], "tensors": [GOOD_ENTRY]},
        {"meta": {}, "tensors": [{k: v for k, v in GOOD_ENTRY.items() if k != "name"}]},
        {"meta": {}, "tensors": [dict(GOOD_ENTRY, offset=-4)]},
        {"meta": {}, "tensors": [dict(GOOD_ENTRY, shape=[-1], nbytes=-4)]},
        {"meta": {}, "tensors": [dict(GOOD_ENTRY, shape=[4.0])]},
        {"meta": {}, "tensors": [dict(GOOD_ENTRY, offset=True)]},
        {"meta": {}, "tensors": [dict(GOOD_ENTRY, dtype=["float32"])]},
        {"meta": {}, "tensors": [dict(GOOD_ENTRY, name=7)]},
        {"meta": {}, "tensors": ["a"]},
        {"meta": {}, "tensors": [dict(GOOD_ENTRY, shape=[2 ** 40, 0, 2 ** 40], nbytes=0)]},
        {"meta": {}, "tensors": [dict(GOOD_ENTRY, shape=[0] * 33, nbytes=0)]},
        {"meta": {}, "tensors": [GOOD_ENTRY, GOOD_ENTRY]},
    ], ids=["no-tensors", "list-header", "list-meta", "no-name", "negative-offset",
            "negative-shape", "float-dim", "bool-offset", "list-dtype", "int-name",
            "string-entry", "empty-but-too-big", "33-dims", "duplicate-name"])
    def test_rejected_with_checkpoint_error(self, tmp_path, header):
        path = write_raw(tmp_path / "bad.sfc", header, b"\x00" * 16)
        with pytest.raises(CheckpointError):
            read_container(path)

    @pytest.mark.parametrize("text", [b'{"meta":{},"tensors":[' + b"1" * 5000 + b"]}",
                                      b"[" * 200_000 + b"]" * 200_000],
                             ids=["int-past-digit-limit", "nested-200000-deep"])
    @pytest.mark.parametrize("call", [read_container, load_checkpoint, load_tensor],
                             ids=["read_container", "load_checkpoint", "load_tensor"])
    def test_unparsable_header_rejected(self, tmp_path, call, text):
        # Python refuses both, as a ValueError and a RecursionError
        path = tmp_path / "bad.sfc"
        path.write_bytes(b"SHFCONT1" + struct.pack("<II", 1, len(text)) + text)
        with pytest.raises(CheckpointError, match="corrupt header"):
            call(path)

    def test_payload_cut_after_the_size_check_rejected(self, tmp_path, monkeypatch):
        # a file that reports 8 bytes more than it holds, as one cut between
        # the header's size check and the read would
        path = write_raw(tmp_path / "cut.sfc", {"meta": {}, "tensors": [GOOD_ENTRY]},
                         b"\x00" * 8)
        fstat = os.fstat
        monkeypatch.setattr(os, "fstat", lambda fd: SimpleNamespace(st_size=fstat(fd).st_size + 8))
        with pytest.raises(CheckpointError, match="payload is truncated"):
            read_container(path)

    def test_well_formed_raw_header_reads(self, tmp_path):
        path = write_raw(tmp_path / "ok.sfc", {"meta": {}, "tensors": [GOOD_ENTRY]},
                         np.arange(4, dtype="<f4").tobytes())
        meta, tensors = read_container(path)
        assert meta == {}
        assert tensors["a"].tolist() == [0.0, 1.0, 2.0, 3.0]


class TestMalformedModelMeta:
    def _rewrite(self, saved, tmp_path, edit):
        path, _, _ = saved
        meta, tensors = read_container(path)
        edit(meta)
        bad = tmp_path / "bad_meta.sfc"
        write_container(bad, tensors, meta)
        return bad

    @pytest.mark.parametrize("edit", [
        lambda m: m["config"].update(sneaky=1),
        lambda m: m["config"].update(depths=5),
        lambda m: m["config"].update(depths=["2"]),
        lambda m: m["config"].update(window=0),
        lambda m: m["config"].update(shuffle_mode="identity"),
        lambda m: m["config"].pop("channels"),
        lambda m: m.pop("config"),
        lambda m: m.update(config=[1, 2]),
        lambda m: m["config"].update(channels=1, head_dim=1),
    ], ids=["unknown-key", "int-depths", "string-depths", "zero-window",
            "identity-mode", "no-channels", "no-config", "list-config", "one-channel"])
    def test_bad_config_rejected(self, saved, tmp_path, edit):
        with pytest.raises(CheckpointError) as err:
            load_checkpoint(self._rewrite(saved, tmp_path, edit))
        assert "config" in str(err.value)

    @pytest.fixture
    def saved_random(self, tmp_path):
        cfg = small_config(shuffle_mode="random")
        params = init_model_params(cfg, Rng(3))
        path = tmp_path / "rand.sfc"
        save_checkpoint(path, params, cfg)
        return path, params, cfg

    @pytest.mark.parametrize("edit", [
        lambda p: p.update({"stage0.block1": [0, 1, 2, 3]}),
        lambda p: p["stage0.block1"].pop("h"),
        lambda p: p["stage0.block1"].pop("mode"),
        lambda p: p["stage0.block1"].update(h=[0, 0, 1, 2]),
        lambda p: p["stage0.block1"].update(h=[0, 1, 2]),
        lambda p: p["stage0.block1"].update(w=[0, 1, 2, 3, 4, 5, 6, 7]),
        lambda p: p["stage0.block1"].update(w=["0", "1", "2", "3"]),
        lambda p: p["stage0.block1"].update(w=[True, False, 2, 3]),
        lambda p: p["stage0.block1"].update(h=[2 ** 70, 1, 2, 3]),
        lambda p: p["stage0.block1"].update(mode="none"),
    ], ids=["list-entry", "no-h", "no-mode", "repeat", "short", "long", "strings",
            "bools", "huge", "mode-none"])
    def test_bad_shuffle_perms_rejected(self, saved_random, tmp_path, edit):
        bad = self._rewrite(saved_random, tmp_path, lambda m: edit(m["shuffle_perms"]))
        with pytest.raises(CheckpointError) as err:
            load_checkpoint(bad)
        assert "stage0.block1" in str(err.value)

    def test_header_with_fixed_keys_loads(self, saved, tmp_path):
        # headers written before attention biases, the MLP ratio and the input
        # channels were fixed store them, at the values every model used
        path, params, _ = saved
        old = self._rewrite(saved, tmp_path, lambda m: m["config"].update(
            attn_bias=True, mlp_ratio=4, in_channels=3))
        loaded, cfg, _ = load_checkpoint(old)
        for (name, want), (_, got) in zip(named_parameters(params), named_parameters(loaded)):
            assert np.array_equal(got.data, want.data), name
        again = tmp_path / "again.sfc"
        save_checkpoint(again, loaded, cfg)
        assert again.read_bytes() == path.read_bytes()

    @pytest.mark.parametrize("key, value", [("attn_bias", False), ("attn_bias", 1),
                                            ("mlp_ratio", 2), ("in_channels", 1)])
    def test_fixed_key_at_another_value_rejected(self, saved, tmp_path, key, value):
        bad = self._rewrite(saved, tmp_path, lambda m: m["config"].update({key: value}))
        with pytest.raises(CheckpointError, match=key):
            load_checkpoint(bad)

    def test_shuffle_perms_must_be_an_object(self, saved_random, tmp_path):
        bad = self._rewrite(saved_random, tmp_path, lambda m: m.update(shuffle_perms=[]))
        with pytest.raises(CheckpointError):
            load_checkpoint(bad)

    def test_frozen_map_checked_against_stage_side_before_building(self, saved_random,
                                                                   tmp_path):
        # a stage side of 2**40 costs nothing in parameters; the short stored
        # maps must be rejected without building anything that long
        bad = self._rewrite(saved_random, tmp_path,
                            lambda m: m["config"].update(resolution=2 ** 42))
        with pytest.raises(CheckpointError) as err:
            load_checkpoint(bad)
        assert "stage0.block1" in str(err.value)

    def test_bad_frozen_map_refused_before_building(self, tmp_path):
        cfg = ModelConfig(channels=96, depths=(2, 2), num_classes=10, resolution=32,
                          window=4, head_dim=32, shuffle_mode="random")
        path = tmp_path / "wide.sfc"
        save_checkpoint(path, init_model_params(cfg, Rng(0)), cfg)
        meta, tensors = read_container(path)
        maps = meta["shuffle_perms"]["stage1.block1"]
        maps["w"][0] = maps["w"][1]  # a repeat: not a permutation
        bad = tmp_path / "bad.sfc"
        write_container(bad, tensors, meta)
        held = sum(arr.nbytes for arr in tensors.values())
        assert held > 4_000_000

        def load():
            with pytest.raises(CheckpointError, match="stage1.block1"):
                load_checkpoint(bad)

        # the refusal comes before the skeleton is allocated or a payload read
        assert _traced_peak(load) <= 0.05 * held

    def test_small_file_cannot_request_a_large_skeleton(self, tmp_path):
        config = small_config(channels=2 ** 20, head_dim=32, nwc_position="none").to_dict()
        path = write_raw(tmp_path / "huge.sfc",
                         {"meta": {"kind": "model", "config": config}, "tensors": []})
        assert path.stat().st_size < 300
        with pytest.raises(CheckpointError) as err:
            load_checkpoint(path)
        assert "values" in str(err.value)


class TestCheckpoint:
    # sha256 of the saved bytes of a seeded init, measured with NumPy 2.4.6:
    # any change to the draw order, a shape, a starting value or the frozen
    # maps of a random-mode block changes the file
    @pytest.mark.parametrize("cfg, seed, digest", [
        (build_variant("T"), 0,
         "935cdd575acfef945a6bcdcc93e47c68e12f3cf6817d164a6039d5e59a3246d3"),
        (ModelConfig(channels=8, depths=(2, 2), num_classes=5, resolution=32, window=2,
                     head_dim=4, shuffle_mode="random", nwc_position="C"), 3,
         "6cb6e02cf1013890a6c9c6f13abe8093f224f3e5cd6bc1071047c91668e912e8"),
    ], ids=["T", "random-nwc-C"])
    def test_seeded_init_bytes_are_pinned(self, tmp_path, cfg, seed, digest):
        path = tmp_path / "seeded.sfc"
        save_checkpoint(path, init_model_params(cfg, Rng(seed)), cfg)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    def test_save_load_save_byte_identical(self, saved, tmp_path):
        path, params, cfg = saved
        loaded, cfg2, _ = load_checkpoint(path)
        again = tmp_path / "again.sfc"
        save_checkpoint(again, loaded, cfg2)
        assert path.read_bytes() == again.read_bytes()

    def test_numpy_integer_sizes_round_trip(self, saved, tmp_path):
        path, params, _ = saved
        cfg = small_config(channels=np.int64(8), depths=(np.int32(2),),
                           resolution=np.uint16(16), window=np.int64(2))
        first, again = tmp_path / "numpy.sfc", tmp_path / "again.sfc"
        save_checkpoint(first, params, cfg)
        loaded, cfg2, _ = load_checkpoint(first)
        save_checkpoint(again, loaded, cfg2)
        assert first.read_bytes() == again.read_bytes() == path.read_bytes()

    def test_loaded_model_reproduces_logits(self, saved):
        path, params, cfg = saved
        loaded, cfg2, _ = load_checkpoint(path)
        x = Tensor(Rng(5).normal((2, 3, 16, 16)))
        a = model_forward(x, params, cfg).data
        b = model_forward(x, loaded, cfg2).data
        assert a.tobytes() == b.tobytes()

    def test_loaded_parameters_are_frozen(self, saved):
        path, _, _ = saved
        loaded, cfg, _ = load_checkpoint(path)
        assert all(p.requires_grad is False for _, p in named_parameters(loaded))
        logits = model_forward(Tensor(Rng(5).normal((2, 3, 16, 16), dtype=np.float32)),
                               loaded, cfg, training=False)
        assert not logits.requires_grad and logits._parents == ()

    def test_save_holds_no_copy_of_the_payload(self, tmp_path):
        params, cfg = _wide_model()
        path = tmp_path / "wide.sfc"
        peak = _traced_peak(lambda: save_checkpoint(path, params, cfg))
        assert peak <= 0.1 * path.stat().st_size

    def test_load_copies_the_payload_once(self, tmp_path):
        params, cfg = _wide_model()
        path = tmp_path / "wide.sfc"
        save_checkpoint(path, params, cfg)
        # the loaded arrays alone: each tensor is read straight into its own array
        assert _traced_peak(lambda: load_checkpoint(path)) <= 1.2 * path.stat().st_size

    @pytest.mark.parametrize("dtype", [np.float16, np.int32, "foo"])
    def test_load_into_another_dtype_refused(self, saved, dtype):
        # the weights would become float32 tensors and the running stats not
        with pytest.raises(CheckpointError, match="float32 or float64"):
            load_checkpoint(saved[0], dtype=dtype)

    @pytest.mark.parametrize("file_dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("load_dtype", [np.float32, np.float64])
    def test_load_fills_every_slot_with_the_stored_values(self, tmp_path, file_dtype,
                                                          load_dtype):
        cfg = small_config(shuffle_mode="random")
        params = init_model_params(cfg, Rng(6), dtype=file_dtype)
        rng = Rng(7)
        for _, buf in named_buffers(params):  # non-trivial running statistics
            buf[...] = rng.normal(buf.shape, dtype=file_dtype) ** 2
        path = tmp_path / "model.sfc"
        save_checkpoint(path, params, cfg)
        _, stored = read_container(path)
        loaded, _, _ = load_checkpoint(path, dtype=load_dtype)
        slots = [*((n, t.data) for n, t in named_parameters(loaded)), *named_buffers(loaded)]
        assert sorted(name for name, _ in slots) == sorted(stored)
        for name, value in slots:
            assert value.dtype == load_dtype
            assert value.tobytes() == stored[name].astype(load_dtype).tobytes(), name
        if file_dtype == load_dtype:
            again = tmp_path / "again.sfc"
            save_checkpoint(again, loaded, cfg)
            assert path.read_bytes() == again.read_bytes()

    def test_tampered_shape_rejected_with_name(self, saved, tmp_path):
        path, _, _ = saved
        raw = bytearray(path.read_bytes())
        header_len = struct.unpack("<I", raw[12:16])[0]
        header = json.loads(raw[16:16 + header_len].decode())
        target = next(e for e in header["tensors"] if e["name"] == "head.bias")
        target["shape"] = [999]
        target["nbytes"] = 999 * 4
        new_header = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
        bad = tmp_path / "tampered.sfc"
        bad.write_bytes(raw[:12] + struct.pack("<I", len(new_header)) + new_header
                        + raw[16 + header_len:] + b"\x00" * (999 * 4))
        with pytest.raises(CheckpointError) as err:
            load_checkpoint(bad)
        assert "head.bias" in str(err.value)

    def test_missing_parameter_rejected(self, saved, tmp_path):
        path, params, cfg = saved
        state = {name: t.data for name, t in named_parameters(params)}
        state.pop("head.weight")
        bad = tmp_path / "missing.sfc"
        write_container(bad, state, {"kind": "model", "config": cfg.to_dict(),
                                     "shuffle_perms": {}})
        with pytest.raises(CheckpointError) as err:
            load_checkpoint(bad)
        assert "head.weight" in str(err.value) or "running" in str(err.value)

    def test_unexpected_parameter_rejected(self, saved, tmp_path):
        path, params, cfg = saved
        meta, tensors = read_container(path)
        tensors["sneaky.extra"] = np.zeros(3, dtype=np.float32)
        bad = tmp_path / "extra.sfc"
        write_container(bad, tensors, meta)
        with pytest.raises(CheckpointError) as err:
            load_checkpoint(bad)
        assert "sneaky.extra" in str(err.value)

    def test_random_mode_perms_survive_round_trip(self, tmp_path):
        cfg = small_config(shuffle_mode="random")
        params = init_model_params(cfg, Rng(3))
        path = tmp_path / "rand.sfc"
        save_checkpoint(path, params, cfg)
        loaded, cfg2, _ = load_checkpoint(path)
        x = Tensor(Rng(4).normal((1, 3, 16, 16)))
        a = model_forward(x, params, cfg).data
        b = model_forward(x, loaded, cfg2).data
        assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("mode", SHUFFLE_MODES)
    def test_load_draws_nothing_and_round_trips(self, mode, tmp_path, monkeypatch):
        cfg = small_config(shuffle_mode=mode)
        first = tmp_path / "first.sfc"
        save_checkpoint(first, init_model_params(cfg, Rng(5)), cfg)

        def no_draws(*args, **kwargs):
            raise AssertionError("load_checkpoint drew from an Rng")

        for method in ("normal", "trunc_normal", "integers", "permutation"):
            monkeypatch.setattr(Rng, method, no_draws)
        params, loaded_cfg, _ = load_checkpoint(first)
        second = tmp_path / "second.sfc"
        save_checkpoint(second, params, loaded_cfg)
        assert first.read_bytes() == second.read_bytes()

    # field order is the file format: these lists pin each entry's name and place
    BLOCK_ENTRIES = ["bn1.gamma", "bn1.beta", "attn.wq", "attn.bq", "attn.wk", "attn.bk",
                     "attn.wv", "attn.bv", "attn.wo", "attn.bo", "nwc.kernel", "nwc.bias",
                     "bn2.gamma", "bn2.beta", "mlp.w1", "mlp.b1", "mlp.w2", "mlp.b2"]
    NO_NWC_BLOCK_ENTRIES = [name for name in BLOCK_ENTRIES if not name.startswith("nwc.")]

    @pytest.mark.parametrize("overrides, block, perm_keys", [
        (dict(shuffle_mode="random", nwc_position="C"), BLOCK_ENTRIES,
         ["stage0.block1", "stage1.block1"]),
        (dict(nwc_position="none"), NO_NWC_BLOCK_ENTRIES, []),
    ], ids=["random-nwc-C", "no-nwc"])
    def test_entry_names_and_order(self, tmp_path, overrides, block, perm_keys):
        cfg = small_config(depths=(2, 2), resolution=32, **overrides)
        path = tmp_path / "model.sfc"
        save_checkpoint(path, init_model_params(cfg, Rng(0)), cfg)
        meta, tensors = read_container(path)
        blocks = [f"stage{s}.block{i}" for s in range(2) for i in range(2)]
        bns = ["embed.bn1", "embed.bn2", *(f"{b}.bn{j}" for b in blocks for j in (1, 2)),
               "head.bn"]
        assert list(tensors) == [
            "embed.conv1.weight", "embed.conv1.bias", "embed.bn1.gamma", "embed.bn1.beta",
            "embed.conv2.weight", "embed.conv2.bias", "embed.bn2.gamma", "embed.bn2.beta",
            *(f"{b}.{name}" for b in blocks[:2] for name in block),
            "stage1.merge.weight", "stage1.merge.bias",
            *(f"{b}.{name}" for b in blocks[2:] for name in block),
            "head.bn.gamma", "head.bn.beta", "head.weight", "head.bias",
            *(f"{bn}.running_{stat}" for bn in bns for stat in ("mean", "var"))]
        assert sorted(meta["shuffle_perms"]) == perm_keys
        assert all(p["mode"] == "random" for p in meta["shuffle_perms"].values())

    @pytest.mark.parametrize("mode", ["long-range", "random"])
    @pytest.mark.parametrize("position", NWC_POSITIONS)
    def test_state_shapes_list_the_skeleton(self, mode, position):
        cfg = small_config(depths=(2, 2), resolution=32, shuffle_mode=mode,
                           nwc_position=position)
        seeded = init_model_params(cfg, Rng(0))
        entries = [(name, t.shape) for name, t in named_parameters(seeded)]
        entries += [(name, buf.shape) for name, buf in named_buffers(seeded)]
        assert list(state_shapes(cfg).items()) == entries

    @pytest.mark.parametrize("params, cfg", [
        (lambda: None, small_config),
        (lambda: init_model_params(small_config(), Rng(0)), lambda: None),
        (lambda: init_model_params(small_config(), Rng(0)),
         lambda: small_config(channels=16)),
        (lambda: init_model_params(small_config(), Rng(0)),
         lambda: small_config(nwc_position="none")),
        (lambda: init_model_params(small_config(), Rng(0)),
         lambda: small_config(depths=(2, 2), resolution=32)),
        (lambda: _without_maps(init_model_params(small_config(shuffle_mode="random"), Rng(0))),
         lambda: small_config(shuffle_mode="random")),
        (lambda: init_model_params(small_config(), Rng(0)),
         lambda: small_config(shuffle_mode="random")),
    ], ids=["none-params", "none-config", "other-width", "other-nwc", "other-depths",
            "random-skeleton", "random-without-maps"])
    def test_save_refuses_what_load_would_refuse(self, tmp_path, params, cfg):
        path = tmp_path / "model.sfc"
        with pytest.raises(CheckpointError):
            save_checkpoint(path, params(), cfg())
        assert not path.exists()

    def test_missing_file_is_a_checkpoint_error(self, tmp_path):
        with pytest.raises(CheckpointError):
            read_container(tmp_path / "absent.sfc")

    def test_wrong_kind_rejected(self, tmp_path):
        path = tmp_path / "t.sfc"
        save_tensor(path, np.zeros((2, 2), dtype=np.float32))
        with pytest.raises(CheckpointError):
            load_checkpoint(path)


class TestPathArguments:
    """open() takes an int as a file descriptor and closes it; paths must be paths."""

    @pytest.mark.parametrize("call", [
        read_container, load_checkpoint, load_tensor,
        lambda fd: save_tensor(fd, np.zeros(2, np.float32)),
        lambda fd: write_container(fd, {}, {}),
    ], ids=["read_container", "load_checkpoint", "load_tensor", "save_tensor",
            "write_container"])
    def test_descriptor_rejected_and_left_open(self, saved, call):
        path, _, _ = saved
        fd = os.open(path, os.O_RDONLY)
        try:
            with pytest.raises(CheckpointError):
                call(fd)
            assert os.lseek(fd, 0, os.SEEK_CUR) == 0  # still open and unread
        finally:
            os.close(fd)

    @pytest.mark.parametrize("path", [3.5, True], ids=["float", "bool"])
    @pytest.mark.parametrize("call", [
        read_container, load_checkpoint, load_tensor,
        lambda p: save_tensor(p, np.zeros(2, np.float32)),
        lambda p: save_checkpoint(p, init_model_params(small_config(), Rng(0)),
                                  small_config()),
    ], ids=["read_container", "load_checkpoint", "load_tensor", "save_tensor",
            "save_checkpoint"])
    def test_non_path_rejected(self, call, path):
        with pytest.raises(CheckpointError):
            call(path)

    @pytest.mark.parametrize("where", ["missing-directory", "directory"])
    @pytest.mark.parametrize("call", [
        lambda p: write_container(p, {}, {}),
        lambda p: save_tensor(p, np.zeros(2, np.float32)),
        lambda p: save_checkpoint(p, init_model_params(small_config(), Rng(0)),
                                  small_config()),
    ], ids=["write_container", "save_tensor", "save_checkpoint"])
    def test_unwritable_path_rejected(self, tmp_path, call, where):
        with pytest.raises(CheckpointError):
            call(tmp_path / "absent" / "x.sfc" if where == "missing-directory" else tmp_path)


class TestTensorIO:
    def test_tensor_round_trip(self, tmp_path):
        path = tmp_path / "x.sfc"
        arr = Rng(0).normal((2, 3, 4, 4), dtype=np.float32)
        save_tensor(path, arr, extra_meta={"note": "input"})
        loaded, meta = load_tensor(path)
        assert np.array_equal(loaded, arr)
        assert meta["note"] == "input"

    def test_scalar_round_trips(self, tmp_path):
        path = tmp_path / "s.sfc"
        save_tensor(path, np.array(3.0))
        loaded, _ = load_tensor(path)
        assert loaded.shape == () and loaded.dtype == np.float64 and loaded == 3.0

    def test_unsupported_dtype_rejected_on_write(self, tmp_path):
        path = tmp_path / "x.sfc"
        with pytest.raises(CheckpointError, match="unsupported dtype int64"):
            write_container(path, {"a": np.arange(3, dtype=np.int64)}, {})
        assert not path.exists()

    @pytest.mark.skipif(np.lib.NumpyVersion(np.__version__) < "2.0.0",
                        reason="NumPy 1 arrays have at most 32 dimensions")
    def test_more_than_32_dimensions_rejected_on_write(self, tmp_path):
        with pytest.raises(CheckpointError):
            save_tensor(tmp_path / "x.sfc", np.zeros((1,) * 33, np.float32))

    @pytest.mark.parametrize("meta", [{"k": object()}, {"kind": "other"}, "ab"],
                             ids=["object-value", "kind-key", "text"])
    @pytest.mark.parametrize("call", [
        lambda p, meta: save_tensor(p, np.zeros(2, np.float32), extra_meta=meta),
        lambda p, meta: save_checkpoint(p, init_model_params(small_config(), Rng(0)),
                                        small_config(), extra_meta=meta),
    ], ids=["save_tensor", "save_checkpoint"])
    def test_bad_extra_meta_rejected(self, tmp_path, call, meta):
        # JSON cannot hold an object; a "kind" key would give a file the load refuses
        path = tmp_path / "x.sfc"
        with pytest.raises(CheckpointError):
            call(path, meta)
        assert not path.exists()

    def test_model_container_is_not_a_tensor(self, saved):
        path, _, _ = saved
        with pytest.raises(CheckpointError):
            load_tensor(path)


@functools.cache
def _mutation_base() -> tuple[bytes, int, list]:
    """A small saved random-mode checkpoint, its header length and JSON paths."""
    cfg = ModelConfig(channels=4, depths=(2,), num_classes=2, resolution=16, window=2,
                      head_dim=4, shuffle_mode="random")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "base.sfc"
        save_checkpoint(path, init_model_params(cfg, Rng(9)), cfg)
        raw = path.read_bytes()
    header_len = struct.unpack("<I", raw[12:16])[0]
    return raw, header_len, list(_json_paths(json.loads(raw[16:16 + header_len])))[1:]


def _json_paths(node, path=()):
    """Every position in a JSON document, as a key/index path from the root."""
    yield path
    items = node.items() if isinstance(node, dict) else enumerate(node) \
        if isinstance(node, list) else ()
    for key, child in items:
        yield from _json_paths(child, path + (key,))


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2**40, 2**40) | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner,
                                                                max_size=3),
    max_leaves=6)


def _mutations():
    """Header-value and header-text edits, byte flips, header lengths, truncations."""
    raw, header_len, paths = _mutation_base()
    return st.one_of(
        st.tuples(st.just("header-value"), st.integers(0, len(paths) - 1), JSON_VALUES),
        st.tuples(st.just("header-splice"), st.integers(0, header_len), st.integers(0, 8),
                  st.binary(max_size=8)),
        st.tuples(st.just("byte-flip"),
                  st.integers(0, len(raw) - 1) | st.integers(16 + header_len, len(raw) - 1),
                  st.integers(1, 255)),
        st.tuples(st.just("header-length"),
                  st.integers(0, header_len + 64) | st.integers(0, 2**32 - 1)),
        st.tuples(st.just("truncate"), st.integers(0, len(raw) - 1)))


def _mutate(mutation) -> bytes:
    raw, header_len, paths = _mutation_base()
    kind, *args = mutation
    header, payload = raw[16:16 + header_len], raw[16 + header_len:]
    if kind == "header-value":
        index, value = args
        doc = json.loads(header)
        *parents, last = paths[index]
        node = doc
        for key in parents:
            node = node[key]
        node[last] = value
        header = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
    elif kind == "header-splice":
        start, length, text = args
        header = header[:start] + text + header[start + length:]
    elif kind == "byte-flip":
        index, mask = args
        return raw[:index] + bytes([raw[index] ^ mask]) + raw[index + 1:]
    elif kind == "header-length":
        return raw[:12] + struct.pack("<I", args[0]) + raw[16:]
    else:
        return raw[:args[0]]
    return raw[:12] + struct.pack("<I", len(header)) + header + payload


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.data())
def test_mutated_checkpoint_round_trips_or_is_rejected(data):
    mutation = data.draw(_mutations(), label="mutation")
    with tempfile.TemporaryDirectory() as tmp:
        path, once, twice = (Path(tmp) / name for name in ("in.sfc", "once.sfc", "twice.sfc"))
        path.write_bytes(_mutate(mutation))
        try:
            params, cfg, _ = load_checkpoint(path)
        except CheckpointError:
            return
        save_checkpoint(once, params, cfg)
        params, cfg, _ = load_checkpoint(once)
        save_checkpoint(twice, params, cfg)
        assert once.read_bytes() == twice.read_bytes()
