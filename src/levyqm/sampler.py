"""Monte Carlo sampling of the relativistic pure-jump process.

Increments are drawn by Gaussian subordination: X = sqrt(S) Z with Z
standard normal and S inverse-Gaussian with mean mu = a^2 dt/tau and
shape lam = a^2 (dt/tau)^2.  The Laplace transform of that S is
exp((dt/tau)(1 - sqrt(1 + 2 a^2 s))) at argument s, so E exp(iuX) =
E exp(-S u^2/2) = exp((dt/tau)(1 - sqrt(1 + a^2 u^2))): the
subordinated form has exactly the required characteristic function,
with O(1) cost per increment: one plain numpy expression over a batch
of normal and uniform draws.

Randomness comes from numpy's counter-based Philox generator keyed by
(seed, stream); distinct keys give non-overlapping sequences, and a
fixed key reproduces byte-identical output on any platform.

``sample_endpoints`` takes a SeededGenerator and cuts the paths into
tiles of TILE (the last one partial).  Tile b draws from the (seed,
stream) Philox jumped b times, 2^128 draws apart (Salmon et al., SC'11);
tile 0 is that generator itself.  IG laws with one lam/mu^2 are closed
under sums (Tweedie 1957), and here lam/mu^2 = 1/a^2 at every dt, so the
n step clocks of a path add up to one IG draw of the time-T clock; with
sqrt(S_1) Z_1 + ... + sqrt(S_n) Z_n ~ sqrt(S_1 + ... + S_n) Z, a tile
draws X(T) = sqrt(S(T)) Z with one clock and one normal per path,
whatever the step count.  The tiles run in order on the calling thread,
so memory is O(TILE) beyond the output.  TILE is part of this stream
layout.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .densities import DensityTable, GridError
from .exponents import ExponentParams

KS_ALPHA_001_COEFF = 1.63  # asymptotic one-sample KS quantile at alpha = 0.01
TILE = 12288               # paths per tile of sample_endpoints: stream layout


@dataclass(frozen=True)
class SeededGenerator:
    """Reproducible (seed, stream) pair over a counter-based generator."""

    seed: int
    stream: int = 0

    def __post_init__(self):
        for name in ("seed", "stream"):
            v = getattr(self, name)
            if not (0 <= v < 2 ** 64):
                raise ValueError(f"{name} must be a 64-bit unsigned integer")

    def generator(self) -> np.random.Generator:
        return np.random.Generator(np.random.Philox(key=self.seed | (self.stream << 64)))


def _as_generator(g) -> np.random.Generator:
    if isinstance(g, SeededGenerator):
        return g.generator()
    if isinstance(g, np.random.Generator):
        return g
    raise TypeError("expected SeededGenerator or numpy Generator")


@dataclass(frozen=True)
class PathSample:
    """One trajectory: ascending times from 0, positions from X(0) = 0."""

    times: np.ndarray
    positions: np.ndarray

    def __post_init__(self):
        if self.positions[0] != 0.0 or self.times[0] != 0.0:
            raise ValueError("paths must start at (t, X) = (0, 0)")
        if (self.times[1:] <= self.times[:-1]).any():
            raise ValueError("times must be strictly increasing")

    def increments(self) -> np.ndarray:
        return np.diff(self.positions)


@dataclass(frozen=True)
class KSReport:
    n: int
    d: float
    threshold: float
    passed: bool

    def to_dict(self):
        return {"n": self.n, "d": self.d, "threshold": self.threshold,
                "pass": self.passed}


# ---------------------------------------------------------------------------
# Michael-Schucany-Haas kernel
# ---------------------------------------------------------------------------

# Michael-Schucany-Haas draws stay finite and nonzero while shape and
# mean^2 are normal doubles and 4 mean shape y and (mean y)^2 are finite
# for every y = nu^2 < 14^2 (numpy's ziggurat normals stay below
# r + 53 ln 2 / r = 13.7).
_IG_SQUARE_MIN = sys.float_info.min
_IG_MEAN_MAX = math.sqrt(sys.float_info.max) / 14.0 ** 2
_IG_MEAN_SHAPE_MAX = sys.float_info.max / (4.0 * 14.0 ** 2)


def _check_clock(mean: float, shape: float):
    """(mean, shape) if IG(mean, shape) draws stay in double precision.

    Raises ValueError naming the range otherwise: past it the draws
    collapse to 0 or overflow to inf.
    """
    if not (shape >= _IG_SQUARE_MIN and mean * mean >= _IG_SQUARE_MIN
            and mean < _IG_MEAN_MAX and mean * shape < _IG_MEAN_SHAPE_MAX):
        raise ValueError(
            f"inverse-Gaussian mean {mean:g} and shape {shape:g} leave the "
            f"double-precision range shape >= {_IG_SQUARE_MIN:.3g}, "
            f"{math.sqrt(_IG_SQUARE_MIN):.3g} <= mean < {_IG_MEAN_MAX:.3g} "
            f"and mean * shape < {_IG_MEAN_SHAPE_MAX:.3g}")
    return mean, shape


def _clock_law(dt: float, params: ExponentParams):
    """(mean, shape) of the inverse-Gaussian clock of a time-dt increment.

    mean = a^2 dt/tau and shape = a^2 (dt/tau)^2; outside the range of
    ``_check_clock`` the error names the range of dt/tau instead.
    """
    ratio, a2 = dt / params.tau, params.a ** 2
    if math.isnan(ratio):
        raise ValueError(f"dt/tau is not a number (dt = {dt}); choose a "
                         "finite, positive step")
    try:
        # (a ratio)^2, not a2 ratio^2: ratio^2 alone may go subnormal
        return _check_clock(a2 * ratio, (params.a * ratio) ** 2)
    except (OverflowError, ValueError):
        root = math.sqrt(_IG_SQUARE_MIN)
        low = max(root / params.a, root / a2)
        high = min(_IG_MEAN_SHAPE_MAX ** (1.0 / 3.0) / a2 ** (2.0 / 3.0),
                   _IG_MEAN_MAX / a2)
        flow = "underflows" if ratio < high else "overflows"
        raise ValueError(
            f"dt/tau = {ratio:g} {flow} the inverse-Gaussian clock, whose "
            f"double-precision range is {low:.3g} <= dt/tau < {high:.3g}; "
            "choose a step inside it") from None


def _inverse_gaussian(mean, shape, rng, size):
    """IG(mean, shape) draws by Michael-Schucany-Haas.

    One squared normal y and one uniform u per draw.  The larger root of
    the transformed quadratic sums positive terms and the smaller is
    mean^2/large, so neither cancels at small dt/tau; the smaller is kept
    when u <= mean/(mean + small).  np.square is what ``** 2`` does on
    arrays; on a scalar draw's floats ``** 2`` calls pow, not always x * x.
    """
    nu, u = rng.standard_normal(size), rng.random(size)
    y = nu * nu
    large = (mean + mean * mean * y / (2.0 * shape)
             + (mean / (2.0 * shape)) * np.sqrt(4.0 * mean * shape * y
                                                + np.square(mean * y)))
    small = mean * mean / large
    return np.where(u <= mean / (mean + small), small, large)


def _increments(mean, shape, rng, size):
    """Increments sqrt(S) Z, drawing nu, u, then z."""
    clock = _inverse_gaussian(mean, shape, rng, size)
    return np.sqrt(clock) * rng.standard_normal(size)


def _check_run(T: float, steps: int, n_paths: int) -> None:
    if T <= 0:
        raise ValueError(f"horizon must be positive (got T = {T})")
    if steps < 1:
        raise ValueError(f"need at least one step (got steps = {steps}); "
                         "pass steps >= 1")
    if n_paths < 1:
        raise ValueError(f"need at least one path (got {n_paths}); "
                         "pass a path count >= 1")


# ---------------------------------------------------------------------------
# samplers
# ---------------------------------------------------------------------------

def sample_inverse_gaussian(mean: float, shape: float, g, size=None):
    """Inverse-Gaussian draw(s) by the Michael-Schucany-Haas transform."""
    if mean <= 0 or shape <= 0:
        raise ValueError("inverse-Gaussian mean and shape must be positive")
    out = _inverse_gaussian(*_check_clock(mean, shape), _as_generator(g), size)
    return float(out) if size is None else out


def sample_increment(dt: float, params: ExponentParams, g, size=None):
    """Time-dt increment(s) of the relativistic pure-jump process."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    out = _increments(*_clock_law(dt, params), _as_generator(g), size)
    return float(out) if size is None else out


def sample_path(T: float, steps: int, params: ExponentParams, g) -> PathSample:
    """Cumulative sum of `steps` independent stationary increments."""
    _check_run(T, steps, 1)
    incs = _increments(*_clock_law(T / steps, params), _as_generator(g), steps)
    positions = np.zeros(steps + 1)
    np.cumsum(incs, out=positions[1:])
    times = np.arange(steps + 1) * (T / steps)  # linspace(0, T, steps + 1)
    times[-1] = T
    return PathSample(times=times, positions=positions)


def sample_paths(T: float, steps: int, params: ExponentParams, g,
                 n_paths: int) -> np.ndarray:
    """Positions of n_paths trajectories at times linspace(0, T, steps + 1).

    Drawn step-major: step j draws what ``sample_increment(T / steps,
    size=n_paths)`` would.  Returns the (n_paths, steps + 1) cumulative
    array; column 0 is X(0) = 0.
    """
    _check_run(T, steps, n_paths)
    rng = _as_generator(g)
    mean, shape = _clock_law(T / steps, params)
    positions = np.zeros((steps + 1, n_paths))
    for j in range(1, steps + 1):
        positions[j] = positions[j - 1] + _increments(mean, shape, rng, n_paths)
    return positions.T


def sample_endpoints(T: float, params: ExponentParams, g, n_paths: int,
                     steps: int = 1) -> np.ndarray:
    """Endpoints X(T) = sqrt(S(T)) Z of n_paths independent trajectories.

    One time-T clock S(T) and one normal per path (the step clocks sum to
    S(T) in law), so `steps` (at least 1) changes neither the law nor the
    bytes.  Tile b of TILE paths draws from the SeededGenerator's Philox
    jumped b times.
    """
    if not isinstance(g, SeededGenerator):
        raise TypeError("sample_endpoints draws its tiles from jumped (seed, "
                        "stream) Philox streams; pass a SeededGenerator")
    _check_run(T, steps, n_paths)
    mean, shape = _clock_law(T, params)
    out = np.empty(n_paths)
    tiles = [out[s:s + TILE] for s in range(0, n_paths, TILE)]
    first = g.generator()
    rngs = [first] + [np.random.Generator(first.bit_generator.jumped(b))
                      for b in range(1, len(tiles))]
    for rng, tile in zip(rngs, tiles):
        tile[:] = _increments(mean, shape, rng, tile.shape)
    return out


# ---------------------------------------------------------------------------
# validation against a gridded density
# ---------------------------------------------------------------------------

def ks_validate(samples, reference: DensityTable) -> KSReport:
    """One-sample Kolmogorov-Smirnov test against a gridded density.

    The reference CDF is the cumulative table mass, linearly
    interpolated between nodes; the grid must extend past every sample.
    Threshold 1.63/sqrt(N) (alpha = 0.01).
    """
    samples = np.asarray(samples, dtype=float)
    n = samples.size
    if n < 1000:
        raise ValueError("need at least 1e3 samples for the asymptotic test")
    x, cdf = reference.cdf_nodes()
    if samples.min() <= x[0] or samples.max() >= x[-1]:
        raise GridError("sample range leaves the reference grid; rebuild the "
                        "table on a wider grid")
    edge_mass = max(reference.values[0], reference.values[-1]) * reference.grid.dx
    if edge_mass > 1e-9:
        raise GridError(f"reference grid carries {edge_mass:.2e} mass per edge "
                        "cell; extend it so interpolation bias stays below the "
                        "test resolution")
    srt = np.sort(samples)
    f_ref = np.interp(srt, x, cdf)
    # the empirical CDF steps from (k-1)/n to k/n at the k-th sample, and
    # k/n - f >= (k-1)/n - f, so max(|k/n - f|, |(k-1)/n - f|) is the
    # larger of k/n - f and f - (k-1)/n
    i = np.arange(n + 1) / n
    d = float(max(np.max(i[1:] - f_ref), np.max(f_ref - i[:-1])))
    threshold = KS_ALPHA_001_COEFF / math.sqrt(n)
    return KSReport(n=n, d=d, threshold=threshold, passed=d < threshold)
