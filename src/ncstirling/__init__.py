"""Non-central Stirling numbers of the first kind, exactly.

The package builds s(n, k, alpha) as integer-coefficient polynomials in alpha
by two independent constructions, verifies a catalogue of exact identities
around the k=1 column (factorials, harmonic numbers, binomial sums), and
cross-checks the derivative expansion of x^(-alpha) * ln^beta(x) numerically
with truncated-Taylor jets.

Import from the submodules: exact, stirling, noncentral, identities, jets, turns, cli.
"""

__version__ = "0.1.0"
