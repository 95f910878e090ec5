"""The truth-table families the tests build: each is the 2^k-bit int that
`truth_table` makes from the family's rule."""

from localcorrect.boolfn import truth_table


def and_all(k):
    return truth_table(k, lambda j: j == (1 << k) - 1)


def parity(k):
    return truth_table(k, lambda j: j.bit_count() & 1)


def majority(k):
    """Strict majority; k is odd, so there are no ties."""
    return truth_table(k, lambda j: j.bit_count() > k // 2)
