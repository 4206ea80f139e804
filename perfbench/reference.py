"""Fixed pure-Python work that the benchmark times as a child process.

It imports nothing from zeroleak, so its time changes only with the speed of
the machine.  `run.py` interleaves it with the ops and scales their times by
it, which puts runs made in busy and in quiet periods on one scale.  Its mix
follows the program's: Fraction arithmetic, small-set algebra and sorting.
"""

from fractions import Fraction


def work(rounds=15000):
    total = Fraction(0)
    sets = [frozenset(range(i % 7, i % 7 + 5 + i % 3)) for i in range(64)]
    size = 0
    for i in range(1, rounds):
        total += Fraction(i % 13 + 1, i % 17 + 2) * Fraction(1, i % 5 + 1)
        a, b = sets[i % 64], sets[i * 7 % 64]
        size += len(a & b) + len(sorted(a | b))
    return total, size


if __name__ == "__main__":
    total, size = work()
    print(total.denominator.bit_length(), size)
