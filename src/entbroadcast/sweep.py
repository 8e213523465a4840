"""Grid sweeps of the broadcast-state quality measures, and the study tables."""

import math
from dataclasses import dataclass

import numpy as np

from .analysis import (
    QUANTITIES,
    RangeUndefinedError,
    evaluate,
    filter_search_max_m,
    local_separability_range,
    nonlocal_inseparability_range,
)
from .broadcast import EntangledInput
from .cloner import (
    XI_LOWER,
    GramNotPSDError,
    MachineKind,
    analysis_parameter,
    make_cloner_parameter,
    universality_report,
)


class ConfigError(ValueError):
    """Invalid sweep configuration."""


@dataclass(frozen=True)
class SweepConfig:
    xi_grid: tuple
    alpha_sq_grid: tuple
    quantities: tuple
    analysis_only: bool = False
    werner_tol: float = 1e-8

    def __post_init__(self):
        if not self.xi_grid:
            raise ConfigError("xi grid is empty")
        if not self.alpha_sq_grid:
            raise ConfigError("alpha^2 grid is empty")
        if not self.quantities:
            raise ConfigError("no quantities selected")
        for q in self.quantities:
            if q not in QUANTITIES:
                raise ConfigError(f"unknown quantity {q!r}; choose from {QUANTITIES}")
        for a2 in self.alpha_sq_grid:
            if not (0.0 <= a2 <= 1.0):
                raise ConfigError(f"alpha^2={a2} outside [0, 1]")
        if not (self.werner_tol > 0.0 and math.isfinite(self.werner_tol)):
            raise ConfigError(f"Werner tolerance must be positive and finite, "
                              f"got {self.werner_tol}")


def run_sweep(cfg: SweepConfig):
    """The sweep table: a row per (xi, alpha^2, quantity), xi-major, then
    alpha^2, then quantity."""
    check = analysis_parameter if cfg.analysis_only else make_cloner_parameter
    for xi in cfg.xi_grid:
        check(float(xi))  # the machine's range, or finiteness when analysis-only
    xi = np.asarray(cfg.xi_grid, dtype=float)
    a2 = np.asarray(cfg.alpha_sq_grid, dtype=float)
    values = evaluate(cfg.quantities, xi[:, None], a2[None, :], cfg.werner_tol)
    per_point = len(cfg.quantities)
    return {
        "xi": np.repeat(xi, a2.size * per_point).tolist(),
        "alpha_sq": np.tile(np.repeat(a2, per_point), xi.size).tolist(),
        "quantity": list(cfg.quantities) * (xi.size * a2.size),
        "value": np.stack([values[q] for q in cfg.quantities], axis=-1).ravel().tolist(),
    }


def parse_grid(spec):
    """Parse 'lo:hi:n' into n evenly spaced values (inclusive endpoints)."""
    parts = spec.split(":")
    if len(parts) != 3:
        raise ConfigError(f"grid spec {spec!r} is not of the form lo:hi:n")
    try:
        lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as e:
        raise ConfigError(f"grid spec {spec!r}: {e}") from e
    if n < 1:
        raise ConfigError(f"grid spec {spec!r}: need at least one point")
    if n == 1:
        return (lo,)  # np.linspace(lo, hi, 1) loses -0.0 and is nan for a non-finite endpoint
    # an infinite endpoint, or hi - lo overflowing, makes nan or inf points
    with np.errstate(invalid="ignore", over="ignore"):
        grid = np.linspace(lo, hi, n)
    if not np.all(np.isfinite(grid)):
        raise ConfigError(f"grid spec {spec!r}: the points are not all finite")
    return tuple(grid)


# -- study tables --------------------------------------------------------------

def _range_ends(closed_form, p):
    try:
        r = closed_form(p)
    except RangeUndefinedError:
        return math.nan, math.nan
    return r.lo, r.hi


def _abstract_spread(p, samples):
    try:
        return universality_report(p, MachineKind.ABSTRACT_BH, samples).spread
    except GramNotPSDError:
        return math.nan  # no universal machine exists here


def study_tables(xi_points, filter_budget, samples):
    """The four study tables, keyed by CSV file name, over ``xi_points``
    admissible machines; nan marks a quantity that does not exist there."""
    xis = np.linspace(XI_LOWER, 0.5, xi_points)
    at_half = evaluate({"bellM", "fidelity", "wernerX"}, xis, 0.5)
    quality = {"xi": xis.tolist(), "bell_m": at_half["bellM"].tolist(),
               "fidelity": at_half["fidelity"].tolist(),
               "werner_x": at_half["wernerX"].tolist()}
    machines = [make_cloner_parameter(xi) for xi in quality["xi"]]
    ranges = {"xi": quality["xi"]}
    for pair, closed_form in (("nonlocal", nonlocal_inseparability_range),
                              ("local", local_separability_range)):
        lo, hi = zip(*(_range_ends(closed_form, p) for p in machines))
        ranges[f"{pair}_lo"], ranges[f"{pair}_hi"] = list(lo), list(hi)
    cloners = {
        "xi": quality["xi"],
        "literal_spread": [universality_report(p, MachineKind.LITERAL_2D, samples).spread
                           for p in machines],
        "abstract_spread": [_abstract_spread(p, samples) for p in machines],
    }
    alpha_sq, xi = [0.5, 0.5, 0.2, 0.35], [XI_LOWER, 1 / 6, 1 / 6, 0.2]
    filtering = {"alpha_sq": alpha_sq, "xi": xi, "max_m": [
        filter_search_max_m(EntangledInput.from_alpha_sq(a), make_cloner_parameter(x),
                            budget=filter_budget)["max_m"]
        for a, x in zip(alpha_sq, xi)]}
    return {"ranges.csv": ranges, "quality.csv": quality,
            "filtering.csv": filtering, "cloners.csv": cloners}
