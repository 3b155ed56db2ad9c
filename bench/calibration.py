"""The ``Fraction`` loop that normalizes timings to a reference host speed.

It uses only the standard library, so a change to ``symcap`` cannot move
it.  ``harness.py`` runs it between queries, and ``probe.py`` once its
set-up is done.
"""

from fractions import Fraction

CALIBRATION_ITERATIONS = 1000
REFERENCE_S = 0.003  # the loop's time on the reference host


def calibration_unit() -> Fraction:
    total = Fraction(0)
    for i in range(1, CALIBRATION_ITERATIONS):
        total += Fraction(1, i % 97 + 1)
    return total
