"""
Biased stimulus randomization
=============================

Why weighted sampling without replacement puts frequent symbols into
early groups, and what that buys a two-stage selection interface.
"""

import numpy as np

from spellersim.alphabet import (
    default_frequency_table,
    draw_permutation,
    form_cycle,
    monte_carlo_group_stats,
    uniform_frequency_table,
)

rng = np.random.default_rng(0)

# The frequency table ranks the 42 symbols by English usage. Space is the
# most common symbol by a wide margin.
table = default_frequency_table()
top6 = sorted(zip(table.probs, table.symbols), reverse=True)[:6]
print("top-6 symbols by probability:")
for prob, symbol in top6:
    print(f"  {symbol!r}  {prob:.4f}")

# One biased permutation: draw symbols one at a time through the inverse
# CDF, renormalizing over whatever remains. Frequent symbols tend to come
# out first, so they land in the first groups of the cycle.
order = draw_permutation(table, rng)
groups = form_cycle(order)
print("\nfirst group of one draw:", " ".join(groups[0]))

# A single draw is noisy; the mean group index over many draws is the
# quantity that matters for selection speed.
stats = monte_carlo_group_stats(table, 100_000, rng)
print("\nmean group index (1..7) over 100,000 draws:")
for symbol in (">", "E", "T", "Q", "*"):
    print(f"  {symbol!r}  {stats.mean_group[table.symbols.index(symbol)]:.3f}")

# Against a uniform table every symbol averages group 4, the middle of
# seven. The bias buys roughly 2.5 groups of headroom for the symbols a
# typist actually needs.
flat = monte_carlo_group_stats(uniform_frequency_table(table.symbols), 100_000, rng)
print(f"\nuniform baseline, all symbols: {flat.mean_group.mean():.3f} "
      f"(spread {flat.mean_group.std():.3f})")

top12 = np.argsort(table.probs)[::-1][:12]
print(f"top-12 pooled mean group, biased: {stats.mean_group[top12].mean():.3f}")
