"""Configuration and result records for the finite-field oracle.

Oracle answers are Monte-Carlo certificates: points in "general position"
are modeled by uniform random sampling over a large prime field, so a
reported dimension can only err on the high side, through an unlucky rank
drop.  The default primes are DEFAULT_PRIME = 2^31 - 1 and the cross-check
DEFAULT_PRIME2 = 3037000493, the largest prime up to isqrt(2^63), so every
default computation runs on int64 arrays.  When each row entry is a
polynomial of degree at most deg in the sampled coordinates, a maximal minor
has degree at most rows * deg, and by Schwartz-Zippel one trial at prime p
drops rank with probability at most rows * deg / p (a sketch: it assumes
the generic minor stays nonzero mod p and the points are uniform, while
the quartic's points are roots of restricted equations).  Those points
range over the points of the surface in the chart x0 = 1 where F_z != 0,
a dense open set: each is a uniform (x1, x2) and a uniform simple root x3
over it, so any point of that set can be drawn, though a line with k
roots gives each of them 1/k of its weight.  The measured dimension is
the minimum over trials and primes, so a dimension that is too high needs
every trial at both primes to drop rank.  They are evidence, not proofs.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from random import Random
from typing import Callable, Optional, Tuple

from ..core import as_int, index_fields, point_conditions

DEFAULT_PRIME = 2**31 - 1
DEFAULT_PRIME2 = 3_037_000_493
DEFAULT_TRIALS = 3
DEFAULT_BUDGET_ROWS = 20_000


# Miller-Rabin with the first 12 primes as bases is exact below this bound
# (Sorenson and Webster, Math. Comp. 86, 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_EXACT_BELOW = 318_665_857_834_031_151_167_461


@lru_cache(maxsize=16)
def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test for 2 <= n < _MR_EXACT_BELOW,
    memoised, as every config tests its primes (nearly always the defaults)."""
    for a in _MR_BASES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _check_prime(name: str, p: int) -> None:
    if not 2**30 < p < _MR_EXACT_BELOW:
        raise ValueError(
            f"{name} must lie in 2^30 < p < {_MR_EXACT_BELOW}, got {p}")
    if not _is_prime(p):
        raise ValueError(f"{name} must be prime, got {p}")


class BudgetExceededError(RuntimeError):
    """The requested condition matrix exceeds the configured size budget."""


class SamplingError(RuntimeError):
    """Repeated resampling failed to produce a usable random instance."""


@dataclass(frozen=True)
class PrimeFieldConfig:
    """Prime, seed and trial count driving every oracle computation.

    prime and prime2 must be primes above 2^30 and below
    318665857834031151167461, where the Miller-Rabin check is exact; up to
    isqrt(2^63) the oracle runs on int64 arrays, above on the slow object
    path.  prime2 is the cross-check prime; set it to None to disable
    dual-prime verification.  budget_rows caps both dimensions of any
    condition matrix so oversized requests fail fast instead of running for
    hours.
    """

    prime: int = DEFAULT_PRIME
    seed: int = 1
    trials: int = DEFAULT_TRIALS
    prime2: Optional[int] = DEFAULT_PRIME2
    budget_rows: int = DEFAULT_BUDGET_ROWS

    def __post_init__(self) -> None:
        index_fields(self, ("prime", "seed", "trials", "budget_rows")
                     + (("prime2",) if self.prime2 is not None else ()))
        _check_prime("prime", self.prime)
        if self.prime2 is not None:
            _check_prime("prime2", self.prime2)
        if self.prime2 == self.prime:
            raise ValueError("prime2 must differ from prime")
        if self.trials < 2:
            raise ValueError(f"trials must be >= 2, got {self.trials}")
        if self.budget_rows < 1:
            raise ValueError("budget_rows must be positive")

    def field_prime(self, prime: int = 0) -> int:
        """The prime of a measurement: `prime`, or self.prime for 0.  A prime
        other than prime and prime2 is checked as they are (ValueError)."""
        p = as_int("prime", prime) or self.prime
        if p not in (self.prime, self.prime2):
            _check_prime("prime", p)
        return p


def num_surface_forms(d: int) -> int:
    """dim H^0(O_S(d)) = C(d+3,3) - C(d-1,3) = 2d^2 + 2 for a quartic S and
    d >= 1: the number of standard monomials of degree d."""
    return 2 * d * d + 2


def check_budget(cfg: PrimeFieldConfig, kind: str, rows: int, cols: int) -> None:
    """Raise BudgetExceededError when a rows x cols condition matrix of the
    given kind ("quartic" or "planar") exceeds cfg.budget_rows in either
    dimension."""
    if rows > cfg.budget_rows or cols > cfg.budget_rows:
        raise BudgetExceededError(
            f"{kind} condition matrix {rows}x{cols} exceeds budget {cfg.budget_rows}"
        )


@dataclass(frozen=True)
class OracleMeasurement:
    """One measured dimension with its per-trial evidence."""

    dim: int
    trial_dims: Tuple[int, ...]
    low_confidence: bool
    prime: int
    rows: int
    cols: int

    @classmethod
    def from_trials(cls, trial_dims, prime: int, rows: int, cols: int) -> "OracleMeasurement":
        """The aggregate of trial dims: their minimum, flagged low-confidence
        unless every trial measured the same dim."""
        dims = tuple(trial_dims)
        return cls(min(dims), dims, len(set(dims)) > 1, prime, rows, cols)


def measure_trials(
    run: Callable[[Random], int], cfg: PrimeFieldConfig, p: int, kind: str, tag: str,
    degree: int, points: Tuple[int, int], cols: int,
) -> OracleMeasurement:
    """The one trial loop of both oracles.  points = (m, n) gives n m(m+1)/2
    rows, checked with `cols` against the budget of `kind` before any draw.
    Trial t's dim is run(derived_rng(cfg.seed, tag, p, degree, group, t)),
    group being ((m, n),), or () with no points, and the dims are aggregated
    by OracleMeasurement.from_trials."""
    m, n = points
    rows = n * point_conditions(m)
    check_budget(cfg, kind, rows, cols)
    group = ((m, n),) if n else ()
    dims = [run(derived_rng(cfg.seed, tag, p, degree, group, t)) for t in range(cfg.trials)]
    return OracleMeasurement.from_trials(dims, p, rows, cols)


def derived_rng(seed: int, *tags) -> Random:
    """Deterministic child generator for a task, stable across platforms.

    The tag tuple is hashed with SHA-256, never with Python's randomized
    hash(), so identical seeds reproduce identical streams everywhere.
    """
    import hashlib  # here, so that engine-only commands load no OpenSSL

    material = repr((seed,) + tags).encode()
    digest = hashlib.sha256(material).digest()
    return Random(int.from_bytes(digest[:16], "big"))
