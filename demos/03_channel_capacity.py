"""
Information rates of a binary decision channel
==============================================

Mutual information, the Wolpaw formula, Fano's bound, and the practical
typing rate, side by side on the same detector operating points.
"""

from spellersim.channel import (
    ChannelSpec,
    ConfusionMatrix,
    fano_lower_bound,
    mutual_information,
    practical_itr,
    wolpaw_itr,
)

# A detector that answers "target present?" for each stimulus is a binary
# channel with highly asymmetric priors: one target per 7 presentations.
PRIOR_TARGET = 1.0 / 7.0

# Sweep the hit rate with false alarms held at 2%. Mutual information
# rewards asymmetric errors that a raw accuracy number hides.
print("hit rate  accuracy  MI bits   Fano bound")
for p_hit in (0.5, 0.7, 0.9, 0.99, 1.0):
    confusion = ConfusionMatrix(p_hit, 1.0 - p_hit, 0.02, 0.98)
    spec = ChannelSpec(confusion, PRIOR_TARGET)
    mi = mutual_information(spec)
    acc = spec.accuracy()
    fano = fano_lower_bound(PRIOR_TARGET, acc)
    print(f"  {p_hit:.2f}     {acc:.4f}   {mi:.4f}   {fano:.4f}")

# The degenerate detector that always answers "absent" scores 85.7%
# accuracy and exactly zero information.
lazy = ChannelSpec(ConfusionMatrix(0.0, 1.0, 0.0, 1.0), PRIOR_TARGET)
print(f"\nalways-absent detector: accuracy {lazy.accuracy():.4f}, "
      f"MI {mutual_information(lazy):.4f} bits")

# Wolpaw's formula treats the interface as a symmetric N-way choice. For
# two classes at the majority-class accuracy it still reports 0.41 bits,
# which is why it overstates weak detectors.
print(f"Wolpaw(2 classes, p = 6/7): {wolpaw_itr(2, 6.0 / 7.0):.4f} bits/selection")
print(f"Wolpaw(8 classes, p = 0.92): {wolpaw_itr(8, 0.92):.4f} bits/selection")

# The practical rate is what the user experiences: correctly typed symbols
# from a 42-symbol set per second of wall-clock time, pauses included.
print(f"\n44 correct symbols in 207.1 s: {practical_itr(44, 207.1, 42):.3f} bits/s")
print(f"same symbols, active time only (78.1 s): {practical_itr(44, 78.1, 42):.3f} bits/s")
