#!/usr/bin/env python3
"""Worst-start total variation distance, sandwiched by spectral bounds.

For a reversible chain the supremum over starting states of
2 ||law_t - stationary||_TV sits between exp(-gap t) and
(min stationary mass)^(-1/2) exp(-gap t); here both the distance and
the bounds are computed exactly from the eigendecomposition.
"""
import numpy as np

from siplab import build_sip_generator, path_graph, tv_sandwich

for k in (1, 2, 3):
    gen = build_sip_generator(path_graph(2), k)
    table = tv_sandwich(gen, np.linspace(0.0, 3.0, 13))
    print(f"k = {k} particles (gap {table.gap:.4f}, min mass {table.min_mass:.4f}):")
    print(f"  {'t':>6} {'lower':>12} {'tv_sup':>12} {'upper':>12}")
    for row in table.rows:
        print(f"  {row.t:6.2f} {row.lower:12.6f} {row.value:12.6f} {row.upper:12.6f}")
    print("  sandwich holds at all times:", table.passed)
    assert table.passed
    print()
