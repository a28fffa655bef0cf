"""Cycle-number candidates and the two bound curves that squeeze them.

A word q fixes a point when (3^r m + W)/2^s = m, forcing
m1 = W / (2^s - 3^r) to be a positive integer.  Exhausting all words up to
length 20 only ever finds the 1-2-1 loop.  An empirical envelope (alpha
times the per-word floor) caps any hypothetical cycle number from above,
and a closeness argument pushes it up from below as 3^r/2^s approaches 1.
"""

from collatzstop import (cycle_candidate, cycle_lower_bound, cycle_upper_bound,
                         enumerate_cycle_candidates, matveev_constant,
                         matveev_log10_gap_bound, parse_sequence,
                         stopping_number_bounds, unique_s_for_r)

print("integer fixed points among all words of length <= 16:")
for cand in enumerate_cycle_candidates(16):
    print(f"  q={cand.q.bits:<18} m1 = {cand.numerator}/{cand.denominator} = {cand.m1}")

print("\na non-candidate for comparison:")
c = cycle_candidate(parse_sequence("1100"))
print(f"  q=1100: m1 = {c.numerator}/{c.denominator} (integer: {c.is_integer})")

print("\nbound curves at the tightest known ratio pair (r, s) = (306, 485):")
r = 306
s = unique_s_for_r(r)
print(f"  s for r=306: {s}")
print(f"  3^r/2^s = {3 ** r / 2 ** s:.9f}")
print(f"  upper bound at alpha=40: {float(cycle_upper_bound(r, s)):.1f}")
print(f"  lower floor:             {cycle_lower_bound(r, s)}")

print("\nhow tight can 2^s - 3^r get?  a transcendence-theory floor says")
C = matveev_constant()
print(f"  1 - 3^r/2^s >= (e s)^-C with C = {C}")
print(f"  at s=485 that floor has log10 about {matveev_log10_gap_bound(485):.3e}")

print("\nvalue band for a stopping walk from m=7 (r=4, s=7):")
lo, hi = stopping_number_bounds(7, 4, 7)
print(f"  {lo} <= value/m < {hi}; actual value/m = 5/7")
