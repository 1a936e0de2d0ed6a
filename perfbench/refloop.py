"""The reference unit of the benchmark: one pass of a fixed computation.

Op times are reported in units of this pass, timed in blocks between the ops
of the same run, so that a run on a machine that is slower or busier for a
while reports about the same figures.  The pass is pure Python, imports
nothing from sl2star and does the kind of work the program's hot loops do:
integer gcd, tuple keys and dict updates on reduced fractions.

Do not edit this file: every figure the benchmark reports is a multiple of
the time of ``ref_pass``, so changing it changes all of them.
"""

from math import gcd

#: the value ``ref_pass`` returns; another value means the pass was altered
CHECKSUM = 3649231


def ref_pass() -> int:
    table = {}
    n = 1
    for i in range(1, 1001):
        n = (n * 7919 + i) % 1000003
        d = i * 37 + 11
        g = gcd(n, d)
        key = (n % 61, d % 7)
        cur = table.get(key)
        if cur is None:
            table[key] = (n // g, d // g)
        else:
            a, b = cur
            num = a * (d // g) + (n // g) * b
            den = b * (d // g)
            g2 = gcd(num, den)
            table[key] = (num // g2, den // g2)
    return sum(a % 9973 + b % 9967 for a, b in table.values()) + len(table)
