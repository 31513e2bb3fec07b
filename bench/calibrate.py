"""A fixed pure-Fraction loop whose wall time tracks the host's speed.

run.py times it in process, and runs this file as a script for the
reference cold process: interpreter start plus the same loop.
"""

import time
from fractions import Fraction


def calibrate():
    """Run the loop once; its wall time in ms."""
    start = time.perf_counter_ns()
    acc = Fraction(0)
    for k in range(1, 10001):
        acc += Fraction(1, k) if k % 7 else -Fraction(3, k + 1)
        if acc.denominator > 10**30:
            acc = Fraction(acc.numerator % 1000003, 997)
    return (time.perf_counter_ns() - start) / 1e6


if __name__ == "__main__":
    calibrate()
