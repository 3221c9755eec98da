import os
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from shuffleformer import (BlockSpec, InvalidConfigError, PartitionError, ReachabilitySet, Rng,
                           Tensor, block_forward, named_parameters, reachability_probe,
                           reachability_report, render_mask, symbolic_reachability)
from shuffleformer.reachability import (_apply_nwc, _blas_threads, _probe_columns,
                                        _probe_workers, _random_block, dump_report)
from shuffleformer.windowing import SHUFFLE_MODES

from oracles import window_index_oracle


def use_cpus(monkeypatch, count, affinity=True, blas=1):
    """Show the probe `count` usable CPUs, through the affinity mask or, where
    there is none, the CPU count, and a BLAS running `blas` threads."""
    monkeypatch.setattr("shuffleformer.reachability._blas_threads", lambda: blas)
    if affinity:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)),
                            raising=False)
    else:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: count)


def members_of(mask):
    return frozenset((int(h), int(w)) for h, w in zip(*np.nonzero(mask)))


class TestScenarios:
    def test_two_plain_blocks_reach_only_their_window(self):
        stack = [BlockSpec(2), BlockSpec(2)]
        probe = (3, 3)
        fd = reachability_probe(stack, (8, 8), probe)
        sym = symbolic_reachability(stack, (8, 8), probe)
        window = frozenset({(2, 2), (2, 3), (3, 2), (3, 3)})
        assert fd.members == window
        assert sym.members == window

    def test_shuffle_pair_full_grid_when_window_sq_covers_axis(self):
        stack = [BlockSpec(2), BlockSpec(2, "long-range")]
        fd = reachability_probe(stack, (4, 4), (1, 2))
        sym = symbolic_reachability(stack, (4, 4), (1, 2))
        assert len(fd) == 16 and fd.members == sym.members

    def test_grid_issue_and_nwc_enlargement(self):
        probe = (5, 5)
        plain = [BlockSpec(2), BlockSpec(2, "long-range")]
        fd = reachability_probe(plain, (16, 16), probe)
        sym = symbolic_reachability(plain, (16, 16), probe)
        assert fd.members == sym.members
        assert 0 < len(fd) < 256  # strict subset of the grid
        # strided structure: reached rows/cols form two separated bands
        rows = sorted({h for h, _ in fd.members})
        assert rows == [4, 5, 12, 13]
        with_nwc = [BlockSpec(2, nwc=True), BlockSpec(2, "long-range", nwc=True)]
        fd2 = reachability_probe(with_nwc, (16, 16), probe)
        sym2 = symbolic_reachability(with_nwc, (16, 16), probe)
        assert fd2.members == sym2.members
        assert fd.members < fd2.members  # strictly enlarged
        assert len(fd2) < 256


class TestPairComparison:
    def test_shuffled_pair_strictly_outreaches_plain_pair(self):
        probe = (3, 3)
        plain = [BlockSpec(2), BlockSpec(2)]
        shuffled = [BlockSpec(2), BlockSpec(2, "long-range")]
        plain_fd = reachability_probe(plain, (8, 8), probe)
        shuffled_fd = reachability_probe(shuffled, (8, 8), probe)
        assert plain_fd.members < shuffled_fd.members
        assert symbolic_reachability(plain, (8, 8), probe).members \
            < symbolic_reachability(shuffled, (8, 8), probe).members


class TestSymbolicRelations:
    def test_single_wmsa_relation_is_window_equivalence(self):
        for probe in [(0, 0), (3, 5), (7, 2)]:
            sym = symbolic_reachability([BlockSpec(4)], (8, 8), probe)
            window = window_index_oracle(*probe, 4, 2)[0]
            expect = frozenset(
                (h, w) for h in range(8) for w in range(8)
                if window_index_oracle(h, w, 4, 2)[0] == window)
            assert sym.members == expect

    def test_nwc_relation_is_chebyshev_ball_for_odd_kernels(self):
        mask = np.zeros((9, 9), dtype=bool)
        mask[4, 4] = True
        out = _apply_nwc(mask, 7)
        expect = frozenset((h, w) for h in range(9) for w in range(9)
                           if max(abs(h - 4), abs(w - 4)) <= 3)
        assert members_of(out) == expect

    def test_nwc_relation_even_kernel_uses_floor_padding(self):
        mask = np.zeros((6, 6), dtype=bool)
        mask[2, 2] = True
        out = _apply_nwc(mask, 2)
        assert members_of(out) == frozenset({(2, 2), (2, 3), (3, 2), (3, 3)})

    def test_unknown_stack_element_rejected(self):
        with pytest.raises(InvalidConfigError):
            symbolic_reachability(["wmsa"], (4, 4), (0, 0))

    def test_probe_outside_grid_rejected(self):
        with pytest.raises(InvalidConfigError):
            symbolic_reachability([BlockSpec(2)], (4, 4), (4, 0))


class TestInputChecks:
    @pytest.mark.parametrize("route", [reachability_probe, symbolic_reachability,
                                       reachability_report])
    @pytest.mark.parametrize("stack, probe", [
        ([BlockSpec(2), "block"], (1, 1)),
        ([BlockSpec(2)], (1,)),
        ([BlockSpec(2)], (1, 1, 1)),
    ], ids=["string-element", "short-probe", "long-probe"])
    def test_rejected_before_either_route_runs(self, route, stack, probe):
        with pytest.raises(InvalidConfigError):
            route(stack, (4, 4), probe)

    def test_probe_needs_a_seed(self):
        with pytest.raises(InvalidConfigError):
            reachability_probe([BlockSpec(2)], (4, 4), (1, 1), seeds=())

    def test_negative_seed_rejected(self):
        with pytest.raises(InvalidConfigError):
            reachability_probe([BlockSpec(2)], (4, 4), (1, 1), seeds=(-1,))

    @pytest.mark.parametrize("epsilon, threshold", [
        (0.0, 1e-9), (-1e-4, 1e-9), (float("nan"), 1e-9), (float("inf"), 1e-9),
        (1e-4, -1.0), (1e-4, float("nan")), (1e-4, float("inf")),
        ("1e-4", 1e-9), (True, 1e-9), (None, 1e-9), (1e-4, None), (1e-4, "0"), (1e-4, False),
    ], ids=["zero-epsilon", "negative-epsilon", "nan-epsilon", "inf-epsilon",
            "negative-threshold", "nan-threshold", "inf-threshold", "string-epsilon",
            "bool-epsilon", "no-epsilon", "no-threshold", "string-threshold",
            "bool-threshold"])
    def test_difference_step_and_threshold_checked(self, epsilon, threshold):
        with pytest.raises(InvalidConfigError):
            reachability_probe([BlockSpec(2)], (4, 4), (1, 1), epsilon=epsilon,
                               threshold=threshold)

    @pytest.mark.parametrize("route", [reachability_probe, symbolic_reachability,
                                       reachability_report])
    @pytest.mark.parametrize("stack, grid, probe", [
        ([BlockSpec(2)], (4, 4.0), (1, 2)),
        ([BlockSpec(2)], "44", (1, 2)),
        ([BlockSpec(2)], None, (1, 2)),
        ([BlockSpec(2)], (-4, -4), (0, 0)),
        ([BlockSpec(2)], (4, 4), (1.5, 2)),
        ([BlockSpec(2)], (4, 4), None),
        ([BlockSpec(2)], (4, 4), (True, 1)),
        (None, (4, 4), (1, 1)),
        ([BlockSpec(2, "random", perm_seed=1.9)], (4, 4), (1, 1)),
    ], ids=["float-grid", "string-grid", "no-grid", "negative-grid", "float-probe",
            "no-probe", "bool-probe", "no-stack", "float-perm-seed"])
    def test_malformed_query_rejected(self, route, stack, grid, probe):
        with pytest.raises(InvalidConfigError):
            route(stack, grid, probe)

    @pytest.mark.parametrize("kwargs, message", [
        (dict(window=0), r"^window 0 must be a positive integer$"),
        (dict(window=2, nwc="yes"), r"^nwc 'yes' must be true or false$"),
    ], ids=["zero-window", "string-nwc"])
    def test_block_spec_names_only_the_bad_field(self, kwargs, message):
        with pytest.raises(InvalidConfigError, match=message):
            BlockSpec(**kwargs)

    def test_negative_grid_named(self):
        with pytest.raises(InvalidConfigError, match="grid extents must be positive"):
            symbolic_reachability([BlockSpec(2)], (-4, -4), (0, 0))

    @pytest.mark.parametrize("route", [reachability_probe, symbolic_reachability])
    def test_window_that_does_not_tile_the_grid_rejected(self, route):
        for mode in ("none", "random"):
            with pytest.raises(PartitionError):
                route([BlockSpec(3, mode)], (4, 4), (1, 1))

    def test_numpy_integers_accepted(self):
        stack = [BlockSpec(np.int64(2), perm_seed=np.int32(1))]
        sym = symbolic_reachability(stack, (np.int64(4), 4), (np.int32(1), 1))
        assert sym.members == symbolic_reachability([BlockSpec(2)], (4, 4), (1, 1)).members
        fd = reachability_probe(stack, (4, 4), (1, 1), seeds=[np.uint8(0)])
        assert fd.members == sym.members

    @pytest.mark.parametrize("kwargs", [
        dict(window=2.0), dict(window=True), dict(window=0), dict(window=2, nwc="yes"),
        dict(window=2, nwc=1), dict(window=2, nwc_position=np.array(["A", "B"])),
    ], ids=["float-window", "bool-window", "zero-window", "string-nwc", "int-nwc",
            "array-nwc-position"])
    def test_block_spec_fields_checked(self, kwargs):
        with pytest.raises(InvalidConfigError):
            BlockSpec(**kwargs)

    @pytest.mark.parametrize("seeds", [3, None, (1.5,), (True,), ("0",)],
                             ids=["int", "none", "float", "bool", "string"])
    def test_probe_seeds_checked(self, seeds):
        with pytest.raises(InvalidConfigError):
            reachability_probe([BlockSpec(2)], (4, 4), (1, 1), seeds=seeds)

    @pytest.mark.parametrize("seed", [None, 2.7, "3", True, -1],
                             ids=["none", "float", "string", "bool", "negative"])
    def test_rng_takes_only_non_negative_integers(self, seed):
        with pytest.raises(InvalidConfigError):
            Rng(seed)

    def test_rng_accepts_numpy_integers(self):
        assert Rng(np.int64(3)).seed == 3 and type(Rng(np.int64(3)).seed) is int
        assert np.array_equal(Rng(np.uint16(3)).normal(4), Rng(3).normal(4))

    def test_zero_threshold_accepted(self):
        fd = reachability_probe([BlockSpec(2)], (4, 4), (1, 1), threshold=0.0)
        assert fd.members == symbolic_reachability([BlockSpec(2)], (4, 4), (1, 1)).members
        # unreachable positions stay bitwise zero through the NWC's matmuls
        for pos in "ABC":
            for stack, grid, probe in [
                ([BlockSpec(2, nwc=True, nwc_position=pos)], (8, 8), (3, 4)),
                ([BlockSpec(2), BlockSpec(2, "long-range", True, pos)], (8, 8), (0, 7)),
                ([BlockSpec(3, nwc=True, nwc_position=pos),
                  BlockSpec(3, "random", True, pos, perm_seed=3)], (12, 12), (6, 11)),
            ]:
                fd = reachability_probe(stack, grid, probe, threshold=0.0)
                assert fd.members == symbolic_reachability(stack, grid, probe).members

    def test_numpy_integer_report_serializes_like_python_ints(self, tmp_path):
        numpy_query = reachability_report([BlockSpec(np.int64(2), perm_seed=np.uint8(1))],
                                          (np.int64(4), 4), (np.int32(1), 1),
                                          seeds=[np.int64(0)])
        python_query = reachability_report([BlockSpec(2, perm_seed=1)], (4, 4), (1, 1),
                                           seeds=[0])
        dump_report(numpy_query, tmp_path / "numpy.json")
        dump_report(python_query, tmp_path / "python.json")
        assert (tmp_path / "numpy.json").read_bytes() == (tmp_path / "python.json").read_bytes()


def random_stack(rng, grid):
    windows = [m for m in (2, 3, 4) if grid % m == 0]
    depth = int(rng.integers(1, 4))
    stack = []
    for _ in range(depth):
        window = int(rng.integers(0, len(windows)))
        m = windows[window]
        modes = ["none", "long-range", "random"]
        if grid % (2 * m) == 0:
            modes.append("short-range")
        mode = modes[int(rng.integers(0, len(modes)))]
        stack.append(BlockSpec(m, mode, nwc=bool(rng.integers(0, 2)),
                               nwc_position=["A", "B", "C"][int(rng.integers(0, 3))],
                               perm_seed=int(rng.integers(0, 1000))))
    return stack


class TestProbeBlocks:
    @pytest.mark.parametrize("spec", [BlockSpec(2), BlockSpec(2, "long-range", True, "A"),
                                      BlockSpec(2, "random", True, "C", perm_seed=4)])
    def test_frozen_dense_identity_bn_and_no_graph(self, spec):
        cfg, params = _random_block(spec, 4, 4, Rng(0))
        for name, param in named_parameters(params):
            assert not param.requires_grad, name
            if name.startswith(("bn1.", "bn2.")):
                expect = 1.0 if name.endswith("gamma") else 0.0
                assert np.all(param.data == expect), name
            else:
                assert param.data.any(), name
        for bn in (params.bn1, params.bn2):
            assert np.all(bn.running_mean == 0) and np.all(bn.running_var == 1)
        out = block_forward(Tensor(Rng(1).normal((2, 1, 4, 4), 1.0, np.float64)),
                            params, cfg)
        assert not out.requires_grad and out._parents == ()

    def test_one_perturbation_per_position(self, monkeypatch):
        extents = []

        def recording_forward(x, *args, **kwargs):
            extents.append(x.shape[0])
            return block_forward(x, *args, **kwargs)

        monkeypatch.setattr("shuffleformer.reachability.block_forward", recording_forward)
        stack = [BlockSpec(2), BlockSpec(2, "long-range", True, "B")]
        for cpus in (1, 3):  # one chunk per seed on one or two workers
            use_cpus(monkeypatch, cpus)
            extents.clear()
            fd = reachability_probe(stack, (8, 8), (3, 4), seeds=(0, 1))
            assert extents == [8 * 8 + 1] * (len(stack) * 2)
            assert fd.members == symbolic_reachability(stack, (8, 8), (3, 4)).members

    def test_image_chunks_with_a_ragged_last_chunk(self, monkeypatch):
        stack = [BlockSpec(2), BlockSpec(2, "long-range", True, "B")]
        whole = reachability_probe(stack, (8, 8), (3, 4), seeds=(0, 1), threshold=0.0)
        extents = []

        def recording_forward(x, *args, **kwargs):
            extents.append(x.shape[0])
            return block_forward(x, *args, **kwargs)

        monkeypatch.setattr("shuffleformer.reachability.block_forward", recording_forward)
        monkeypatch.setattr("shuffleformer.reachability._CHUNK_ELEMS", 14 * 8 * 8 + 9)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # workers interleave often; a chunk lost or run twice shows
        try:
            # 65 images per seed on one worker, and on two for three CPUs; the
            # last case counts CPUs with no affinity mask
            for cpus, affinity, per_seed in ((1, True, [14] * 4 + [9]),
                                             (3, True, [7] * 9 + [2]),
                                             (3, False, [7] * 9 + [2])):
                use_cpus(monkeypatch, cpus, affinity)
                extents.clear()
                chunked = reachability_probe(stack, (8, 8), (3, 4), seeds=(0, 1),
                                             threshold=0.0)
                assert sorted(extents) == sorted([e for e in per_seed for _ in stack] * 2)
                assert chunked.members == whole.members
                assert chunked.members == symbolic_reachability(stack, (8, 8), (3, 4)).members
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("window, grid", [(2, (8, 12)), (4, (8, 8)), (4, (16, 8))])
    def test_worker_count_keeps_columns_bitwise(self, monkeypatch, window, grid):
        seen = []

        def recording_columns(*args):
            seen.append(_probe_columns(*args))
            return seen[-1]

        monkeypatch.setattr("shuffleformer.reachability._probe_columns", recording_columns)
        # chunks of 24 images on one worker, and of 12 and 8 on two
        cases = [(1, 24), (2, 24), (3, 16)]
        for mode in SHUFFLE_MODES:
            for position in ("A", "B", "C", None):
                stack = [BlockSpec(window, "random", True, "C", perm_seed=3),
                         BlockSpec(window, mode, position is not None, position or "B",
                                   perm_seed=5)]
                runs = []
                for cpus, images in cases:
                    use_cpus(monkeypatch, cpus)
                    monkeypatch.setattr("shuffleformer.reachability._CHUNK_ELEMS",
                                        images * grid[0] * grid[1] + 9)
                    runs.append(reachability_probe(stack, grid, (3, 5), seeds=(0, 1),
                                                   threshold=0.0))
                columns = [[c.tobytes() for c in run] for run in seen[-3:]]
                assert columns[0] == columns[1] == columns[2], (mode, position)
                assert runs[0].members == runs[1].members == runs[2].members
                assert runs[0].members == symbolic_reachability(stack, grid, (3, 5)).members

    @pytest.mark.parametrize("cpus", [1, 3])
    def test_worker_error_reraised_and_workers_stopped(self, monkeypatch, cpus):
        use_cpus(monkeypatch, cpus)
        workers = min(2, cpus)
        monkeypatch.setattr("shuffleformer.reachability._CHUNK_ELEMS", 8 * 8 * workers)
        callers, lock = [], threading.Lock()

        def failing_forward(x, *args, **kwargs):
            with lock:
                callers.append(threading.current_thread())
                third = len(callers) == 3
            if third:
                raise MemoryError("third block call")
            return block_forward(x, *args, **kwargs)

        monkeypatch.setattr("shuffleformer.reachability.block_forward", failing_forward)
        stack = [BlockSpec(2), BlockSpec(2, "long-range", True, "B")]
        threads = threading.active_count()
        with pytest.raises(MemoryError, match="third block call"):
            reachability_probe(stack, (8, 8), (3, 4), seeds=(0, 1))
        assert threading.active_count() == threads
        # of 260 calls: each other worker runs out its current one-image chunk,
        # and one more if it won the race with the stop; none on the caller's thread
        assert 3 <= len(callers) <= 3 + 2 * (workers - 1) * len(stack)
        assert threading.main_thread() not in callers

    def test_memory_bounded_by_the_batch_not_its_activations(self, monkeypatch):
        stack = [BlockSpec(2), BlockSpec(2, "long-range", True, "B")]
        batch_bytes = (32 * 32 + 1) * 32 * 32 * 8
        for cpus in (1, 2, 3):
            use_cpus(monkeypatch, cpus)
            tracemalloc.start()
            try:
                reachability_probe(stack, (32, 32), (5, 9), seeds=(0,))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            # each chunk builds its images from the base image, so the batch is
            # never held; the chunks in flight hold about _CHUNK_ELEMS values per
            # channel between them. A held batch plus one chunk measured 1.95.
            assert peak < 1.5 * batch_bytes, cpus

    @pytest.mark.parametrize("cpus, blas, workers", [
        (1, 1, 1), (2, 1, 2), (3, 1, 2), (64, 1, 2), (4, 2, 1), (4, None, 1), (1, None, 1)])
    def test_two_workers_only_beside_a_one_thread_blas(self, monkeypatch, cpus, blas, workers):
        use_cpus(monkeypatch, cpus, blas=blas)
        assert _probe_workers() == workers

    def test_blas_threads_read_from_the_library(self):
        threads = _blas_threads()
        assert threads is None or threads >= 1
        if threads is not None and os.environ.get("OPENBLAS_NUM_THREADS") == "1":
            assert threads == 1


class TestAgreement:
    def test_fd_matches_symbolic_on_random_stacks(self):
        from shuffleformer import Rng
        rng = Rng(2024)
        for case in range(20):
            grid = int(rng.integers(0, 3))
            grid = (8, 12, 16)[grid]
            stack = random_stack(rng, grid)
            probe = (int(rng.integers(0, grid)), int(rng.integers(0, grid)))
            fd = reachability_probe(stack, (grid, grid), probe, seeds=(0, 1, 2))
            sym = symbolic_reachability(stack, (grid, grid), probe)
            assert fd.members == sym.members, f"case {case}: {stack} probe {probe}"

    @pytest.mark.parametrize("zeroed", [0, 1], ids=["first-seed", "last-seed"])
    def test_union_covers_a_seed_that_misses(self, monkeypatch, zeroed):
        # a zeroed NWC kernel leaves only the NWC's bias, so that seed alone misses
        # what the kernel adds; the union must still find it, whichever seed comes last
        def random_block(spec, height, width, rng):
            cfg, params = _random_block(spec, height, width, rng)
            if rng.seed == zeroed and params.nwc is not None:
                params.nwc.kernel.data[...] = 0.0
            return cfg, params

        monkeypatch.setattr("shuffleformer.reachability._random_block", random_block)
        stack = [BlockSpec(2), BlockSpec(2, "long-range", nwc=True, nwc_position="B")]
        sym = symbolic_reachability(stack, (8, 8), (3, 4))
        union = reachability_probe(stack, (8, 8), (3, 4), seeds=(0, 1))
        alone = reachability_probe(stack, (8, 8), (3, 4), seeds=(zeroed,))
        assert union.members == sym.members
        assert alone.members < sym.members and len(sym) - len(alone) == 16

    def test_report_bundles_agreement(self):
        stack = [BlockSpec(2), BlockSpec(2, "long-range")]
        report = reachability_report(stack, (8, 8), (3, 3))
        assert report["agree"] is True
        assert sorted(report) == ["agree", "fd", "stack", "symbolic"]
        assert report["fd"]["method"] == "fd"
        assert report["symbolic"]["method"] == "symbolic"


class TestMonotonicity:
    def test_appending_layers_never_shrinks(self):
        from shuffleformer import Rng
        rng = Rng(7)
        grid = 8
        stack = []
        previous = frozenset({(3, 3)})
        for _ in range(6):
            stack.extend(random_stack(rng, grid)[:1])
            current = symbolic_reachability(stack, (grid, grid), (3, 3)).members
            assert previous <= current
            previous = current


class TestReachabilitySet:
    def test_mask_and_contains(self):
        r = ReachabilitySet((0, 0), (2, 2), frozenset({(0, 0), (1, 1)}), 0.0, ())
        assert r.mask().tolist() == [[True, False], [False, True]]
        assert (1, 1) in r and (0, 1) not in r

    def test_json_round_trip_fields(self):
        stack = [BlockSpec(2)]
        fd = reachability_probe(stack, (4, 4), (0, 0), seeds=(0,))
        blob = fd.to_json()
        assert blob["probe"] == [0, 0]
        assert blob["grid"] == [4, 4]
        assert blob["seeds"] == [0]
        assert blob["threshold"] == fd.threshold
        assert all(len(m) == 2 for m in blob["members"])

    def test_render_marks_probe(self):
        stack = [BlockSpec(2)]
        fd = reachability_probe(stack, (4, 4), (1, 1), seeds=(0,))
        art = render_mask(fd)
        assert "O" in art and art.count("\n") == 3
