#!/usr/bin/env python3
"""Closed-form parameter and FLOP ledgers for the model family."""

import dataclasses

from shuffleformer import CONVENTION, build_variant, count_flops, wmsa_attention_flops

print("=" * 64)
print("1. The three variants at 224x224")
print("=" * 64)
print(f"{'variant':>8} {'params':>10} {'GFLOPs':>8}")
for name in ("T", "S", "B"):
    cfg = build_variant(name)
    report = count_flops(cfg)
    print(f"{name:>8} {report.total_params / 1e6:>9.2f}M "
          f"{report.total_flops / 1e9:>8.2f}")

print()
print("=" * 64)
print("2. Cost is linear in pixel count for a fixed window")
print("=" * 64)
cfg = build_variant("T")
base = count_flops(cfg).total_flops
for res in (224, 448, 896):
    flops = count_flops(dataclasses.replace(cfg, resolution=res)).total_flops
    print(f"{res}x{res}: {flops / 1e9:7.2f}G  ({flops / base:.4f}x the 224 run)")

print()
print("window attention at stage-1 resolution (56x56, C=96) vs a")
print("hypothetical global-attention layer of the same width:")
hw, ch, tokens = 56 * 56, 96, 7 * 7
wmsa = wmsa_attention_flops(hw, ch, tokens)
glob = wmsa_attention_flops(hw, ch, hw)
print(f"  window: {wmsa / 1e9:6.2f}G   global: {glob / 1e9:7.2f}G   "
      f"attention-matmul ratio: {(glob - 4 * hw * ch * ch) // (wmsa - 4 * hw * ch * ch)}x")

print()
print("=" * 64)
print("3. Where to put the neighbor-window connection")
print("=" * 64)
print(f"{'position':>10} {'params':>10} {'GFLOPs':>8}")
for pos in ("none", "A", "B", "C"):
    c = dataclasses.replace(cfg, nwc_position=pos)
    report = count_flops(c)
    print(f"{pos:>10} {report.total_params / 1e6:>9.2f}M "
          f"{report.total_flops / 1e9:>8.2f}")
print("A and B cost the same (width C); C sits inside the MLP at width 4C.")

print()
print("=" * 64)
print("4. Per-layer ledger head of the tiny variant")
print("=" * 64)
report = count_flops(cfg)
for row in report.rows[:8]:
    print(f"  {row.name:<22} {row.params:>10,} params {row.flops:>15,} flops")
print(f"  ... {len(report.rows) - 8} more rows")
print()
print(f"convention: {CONVENTION}")
