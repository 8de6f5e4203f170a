"""A fixed pure-Python reference task that gauges how fast the host runs now.

On a shared host identical work can take up to twice as long from one
minute to the next, and the import, the suites and the report writing all
slow down together.  ``reference_s`` times a fixed task made of the same
kinds of operations as geodiff (float arithmetic through ``math``, small
objects with overloaded operators, tuples with dicts, a sort, ``repr``
formatting and string joining); the benchmark runs it between workload
children and uses it to express their timings at a fixed host speed (see
``run.py``).  Nothing here imports geodiff, so a change to the program
cannot move it.

    python -m perfbench.reference --rounds N

prints the median of N timings.  The benchmark runs it as a fresh process,
so that the heap its own process built while checking reports does not slow
the task down.
"""

from __future__ import annotations

import argparse
import math
import statistics
import time

SIZE = 60000  # iterations; about 0.3 s on an idle 2-vCPU host


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a: float, b: float):
        self.a = a
        self.b = b

    def __add__(self, other: "_Pair") -> "_Pair":
        return _Pair(self.a + other.a, self.b + other.b)

    def __mul__(self, other: "_Pair") -> "_Pair":
        return _Pair(self.a * other.a, self.a * other.b + self.b * other.a)


def task(size: int = SIZE) -> int:
    """The reference work; returns a checksum so nothing is optimised away."""
    rows: list[tuple] = []
    lines: list[str] = []
    acc = _Pair(0.0, 0.0)
    for i in range(size):
        x = 1.0 + (i % 97) * 0.01
        y = math.sqrt(x * x + 1.0) * math.cos(x) + math.atan2(x, 2.0)
        p = _Pair(x, 1.0) * _Pair(y, 0.5) + _Pair(math.sin(y), x)
        acc = acc + p
        rows.append((y, i, p.a, p.b, {"case": i, "op": "ref"}))
        lines.append(f"{i},{p.a!r},{p.b!r}")
    rows.sort()
    text = "\n".join(lines)
    return len(rows) + len(text) + int(acc.b) % 7


def reference_s() -> float:
    """Wall seconds of one run of the reference task."""
    t0 = time.perf_counter()
    task()
    return time.perf_counter() - t0


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rounds", type=int, default=1)
    args = parser.parse_args(argv)
    print(statistics.median(reference_s() for _ in range(args.rounds)))


if __name__ == "__main__":
    main()
