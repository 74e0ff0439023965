"""Independent answers for every linkage the benchmark sends.

Farber and Schuetz (Homology of planar polygon spaces, Geom. Dedicata 125,
2007): for a generic length vector with a longest bar p, the planar polygon
space has free homology of rank b_k = a_k + a_{n-3-k}, where a_k counts the
short subsets of k+1 bars that contain p.  A subset is short when its length
sum is less than half the total.  The f-vector of the cell complex is counted
by brute force: the d-cells are the cyclic arrangements of n-d short blocks.

Nothing here imports linkspace.  Lengths are ints or Fractions, so every
comparison is exact.
"""

from __future__ import annotations

from math import factorial
from typing import Sequence


def betti(lengths: Sequence) -> list[int]:
    """Betti numbers b_0 .. b_{n-3} by the Farber-Schuetz count."""
    n, total = len(lengths), sum(lengths)
    longest = lengths.index(max(lengths))
    a = [0] * (n - 2)  # a short subset holding the longest bar has <= n-2 bars
    for mask in range(1 << n):
        if mask >> longest & 1:
            if 2 * sum(l for i, l in enumerate(lengths) if mask >> i & 1) < total:
                a[bin(mask).count("1") - 1] += 1
    return [a[k] + a[n - 3 - k] for k in range(n - 2)]


def euler(counts: Sequence[int]) -> int:
    """Alternating sum, of Betti numbers or of an f-vector."""
    return sum((-1) ** k * c for k, c in enumerate(counts))


def f_vector(lengths: Sequence) -> list[int]:
    """Cells per dimension d = 0 .. n-3 of the complex."""
    n, total = len(lengths), sum(lengths)
    f = [0] * (n - 2)

    def place(i: int, sums: list) -> None:
        # restricted growth: bar i joins an existing block or opens a new one
        if i == n:
            m = len(sums)
            if m >= 3 and all(2 * s < total for s in sums):
                f[n - m] += factorial(m - 1)
            return
        for j in range(len(sums)):
            sums[j] += lengths[i]
            place(i + 1, sums)
            sums[j] -= lengths[i]
        sums.append(lengths[i])
        place(i + 1, sums)
        sums.pop()

    place(0, [])
    return f


def surface_name(b: Sequence[int]) -> str:
    """Classification of a pentagon space from its Betti numbers.

    Pentagon spaces are closed orientable surfaces; when there are two
    components, a reflection swaps them, so they have equal genus.
    """
    components, genus = b[0], b[1] // (2 * b[0])
    name = {0: "sphere", 1: "torus"}.get(genus, f"genus-{genus} surface")
    if components == 1:
        return name
    return f"{components} {'tori' if genus == 1 else name + 's'}"
