"""Fixed pure-Python reference computation: a yardstick for machine speed.

The benchmark runs this script as a fresh process after every timed binforms
process and divides the median binforms wall time by the median wall time
of this script (`wall_rel`).  It shares no code with binforms, so a change
to binforms cannot move it, while a machine that is slower for a while
(a busy neighbour on a shared host) slows both alike.

Its work resembles the binforms hot loops: products of coefficient lists
modulo a prime with binomial weights, exact rational sums, and dictionary
memo traffic.  It prints a checksum so a run that did not finish shows.
"""

from fractions import Fraction
from math import comb

P = 32003


def transvect(g, h, k):
    m, n = len(g) - 1, len(h) - 1
    out = [0] * (m + n - 2 * k + 1)
    for i in range(k + 1):
        c = comb(k, i) * (-1) ** i
        for a in range(m - k + 1):
            ga = g[a + i] * c
            for b in range(n - k + 1):
                out[a + b] = (out[a + b] + ga * h[b + k - i]) % P
    return out


def main() -> int:
    memo = {}
    forms = [[(7919 * i + 104729 * j) % P for j in range(10)] for i in range(8)]
    check = 0
    for rep in range(900):
        g, h = forms[rep % 8], forms[(rep * 3 + 1) % 8]
        for k in range(0, 10, 2):
            key = (rep % 8, (rep * 3 + 1) % 8, k)
            if key not in memo:
                memo[key] = transvect(g, h, k)
            check = (check + sum(memo[key])) % P
        forms[rep % 8] = transvect(g, h, 4)[:10]
        memo.clear()
    q = Fraction(0)
    for i in range(1, 1000):
        q += Fraction((-1) ** i * i, i * i + 1)
    check = (check + q.numerator) % P
    print(check)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
