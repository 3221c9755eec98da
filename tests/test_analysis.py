import dataclasses

import numpy as np
import pytest

from shuffleformer import (CONVENTION, InvalidConfigError, ModelConfig, Rng,
                           build_variant, conv_cost, count_flops, init_model_params,
                           parameter_list, wmsa_attention_flops)

# published reference sizes for the three variants and the NWC placements
REFERENCE_PARAMS = {"T": 28.5e6, "S": 50e6, "B": 88e6}
REFERENCE_GFLOPS = {"T": 4.6e9, "S": 8.9e9, "B": 15.6e9}
REFERENCE_PARAMS_NWC_C = 29.2e6
REFERENCE_PARAMS_NO_NWC = 28.3e6


def rel_dev(got, want):
    return abs(got - want) / want


def at(cfg, resolution):
    return dataclasses.replace(cfg, resolution=resolution)


class TestParams:
    @pytest.mark.parametrize("variant", ["T", "S", "B"])
    def test_within_4_percent_of_reference(self, variant):
        report = count_flops(build_variant(variant))
        assert rel_dev(report.total_params, REFERENCE_PARAMS[variant]) < 0.04

    def test_position_ordering(self):
        cfg = build_variant("T")
        by_pos = {pos: count_flops(dataclasses.replace(cfg, nwc_position=pos)).total_params
                  for pos in ("A", "B", "C", "none")}
        assert by_pos["A"] == by_pos["B"] < by_pos["C"]
        assert rel_dev(by_pos["C"], REFERENCE_PARAMS_NWC_C) < 0.04
        assert rel_dev(by_pos["none"], REFERENCE_PARAMS_NO_NWC) < 0.04

    def test_nwc_removal_saves_closed_form_delta(self):
        cfg = build_variant("T")
        with_nwc = count_flops(cfg).total_params
        without = count_flops(dataclasses.replace(cfg, nwc_position="none")).total_params
        expected_delta = sum(
            cfg.depths[s] * (cfg.window ** 2 * cfg.stage_channels(s) + cfg.stage_channels(s))
            for s in range(4))
        assert with_nwc - without == expected_delta
        assert abs(expected_delta - 0.2e6) < 0.05e6

    def test_params_independent_of_resolution(self):
        cfg = build_variant("T")
        a = count_flops(at(cfg, 224)).total_params
        b = count_flops(at(cfg, 448)).total_params
        assert a == b == count_flops(cfg).total_params

    def test_ledger_matches_instantiated_model(self):
        cfg = ModelConfig(channels=8, depths=(2, 2), num_classes=4,
                          resolution=16, window=2, head_dim=4)
        params = init_model_params(cfg, Rng(0))
        assert sum(t.size for t in parameter_list(params)) == count_flops(cfg).total_params

    def test_ledger_matches_instantiated_model_all_positions(self):
        for pos in ("A", "B", "C", "none"):
            cfg = ModelConfig(channels=8, depths=(2,), num_classes=4,
                              resolution=16, window=2, head_dim=4, nwc_position=pos)
            params = init_model_params(cfg, Rng(0))
            assert sum(t.size for t in parameter_list(params)) == \
                count_flops(cfg).total_params

    def test_shuffle_mode_does_not_change_costs(self):
        cfg = build_variant("T")
        base_p = count_flops(cfg).total_params
        base_f = count_flops(at(cfg, 224)).total_flops
        for mode in ("none", "short-range", "random"):
            c = dataclasses.replace(cfg, shuffle_mode=mode)
            assert count_flops(c).total_params == base_p
            assert count_flops(at(c, 224)).total_flops == base_f

    def test_totals_equal_row_sum(self):
        report = count_flops(at(build_variant("T"), 224))
        assert report.total_params == sum(r.params for r in report.rows)
        assert report.total_flops == sum(r.flops for r in report.rows)


class TestFlops:
    @pytest.mark.parametrize("variant", ["T", "S", "B"])
    def test_within_5_percent_of_reference(self, variant):
        report = count_flops(at(build_variant(variant), 224))
        assert rel_dev(report.total_flops, REFERENCE_GFLOPS[variant]) < 0.05

    def test_quadruples_when_resolution_doubles(self):
        cfg = build_variant("T")
        ratio = count_flops(at(cfg, 448)).total_flops / count_flops(at(cfg, 224)).total_flops
        assert abs(ratio - 4.0) < 0.05

    def test_exact_linearity_excluding_head(self):
        cfg = build_variant("T")
        r224 = count_flops(at(cfg, 224))
        r448 = count_flops(at(cfg, 448))
        head224 = sum(r.flops for r in r224.rows if r.name.startswith("head"))
        head448 = sum(r.flops for r in r448.rows if r.name.startswith("head"))
        assert head224 == head448  # classifier cost is resolution independent
        assert (r448.total_flops - head448) == 4 * (r224.total_flops - head224)

    def test_global_attention_ratio_at_stage1(self):
        hw = 56 * 56
        channels = 96
        window_tokens = 7 * 7
        global_mm = wmsa_attention_flops(hw, channels, hw) - 4 * hw * channels * channels
        window_mm = wmsa_attention_flops(hw, channels, window_tokens) \
            - 4 * hw * channels * channels
        assert global_mm // window_mm == hw // window_tokens == 64

    def test_convention_recorded(self):
        report = count_flops(at(build_variant("T"), 224))
        assert f"# convention: {CONVENTION}\n" in report.to_csv()
        assert f"convention: {CONVENTION}" in report.to_text()

    def test_rejects_incompatible_resolution(self):
        for resolution in (100, 224.9, "224"):
            with pytest.raises(InvalidConfigError):
                count_flops(at(build_variant("T"), resolution))
        with pytest.raises(InvalidConfigError, match="ModelConfig"):
            count_flops("x")

    @pytest.mark.parametrize("call", [
        lambda: conv_cost(None, 3, 1, 4),
        lambda: conv_cost(3, 3, 1, 4, groups=0),
    ], ids=["none-channels", "zero-groups"])
    def test_conv_cost_bad_input_raises_package_error(self, call):
        with pytest.raises(InvalidConfigError):
            call()

    def test_numpy_integer_resolution_kept_as_python_int(self):
        cfg = build_variant("T")
        report = count_flops(at(cfg, np.int64(224)))
        assert type(report.resolution) is int
        assert report.to_csv() == count_flops(at(cfg, 224)).to_csv()
        assert all(type(v) is int for r in report.rows for v in (r.params, r.flops))


class TestReportFormats:
    def test_csv_round_trips_totals(self):
        report = count_flops(at(build_variant("T"), 224))
        lines = [l for l in report.to_csv().splitlines() if not l.startswith("#")]
        header, *rows = lines
        assert header == "layer,params,flops"
        total = rows[-1].split(",")
        assert int(total[1]) == report.total_params
        assert int(total[2]) == report.total_flops
