"""hsep: exact formulas and oracles for exclusion processes on the half-line.

The package evaluates the finite-q multiple contour-integral transition
probability, the q = 0 Pfaffian (Schuetz-type) transition probabilities and
joint distributions, the Gelfand-Tsetlin point-process decomposition, and the
conditional Fredholm Pfaffian multipoint distributions, and cross-validates
every formula against two independent oracles: exact uniformization of the
Markov generator on a truncated lattice, and continuous-time Monte Carlo.
"""

__version__ = "0.1.0"
