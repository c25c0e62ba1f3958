"""Exception types raised across the library.

Only the distinctions a caller acts on have their own type: a
``PoseSolverError`` is a solve that cannot go on (``run_sweep`` records
a failed trial, ``poseamm solve`` exits 1), and its subclass
``ParseError`` is a faulty correspondence file (``poseamm solve`` exits
2). The message says what went wrong.
"""


class PoseSolverError(Exception):
    """Base class for every error this package raises on purpose: degenerate
    or empty data, a singular system, a non-finite objective."""


class ParseError(PoseSolverError):
    """A correspondence file line is malformed or violates a geometric
    constraint; the message names the line."""
