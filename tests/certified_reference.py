"""The two-format rule of symstate._certified_strings, one value at a time.

The reference that the numeric pre-test of symstate._certified_strings is checked against.
"""

import math


def certified_strings(lo, hi, exact) -> list[str]:
    """format(x_j, ".9g") from lo[j] when lo[j] and hi[j] print alike, else, or when hi[j] is not finite, from exact(j)."""
    out = []
    for j, (low, high) in enumerate(zip(lo.tolist(), hi.tolist())):
        text = format(low, ".9g")
        if not math.isfinite(high) or text != format(high, ".9g"):
            text = format(exact(j), ".9g")
        out.append(text)
    return out
