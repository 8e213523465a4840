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
    ClonerParameter,
    GramNotPSDError,
    MachineKind,
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
    """One row per (xi, alpha^2, quantity), xi-major then alpha^2 then quantity."""
    for xi in cfg.xi_grid:
        # the machine's range, or finiteness when analysis-only
        ClonerParameter(float(xi), analysis_only=cfg.analysis_only)
    xi, a2 = np.broadcast_arrays(np.asarray(cfg.xi_grid, dtype=float)[:, None],
                                 np.asarray(cfg.alpha_sq_grid, dtype=float)[None, :])
    values = evaluate(cfg.quantities, xi, a2, cfg.werner_tol)
    columns = [values[q].ravel().tolist() for q in cfg.quantities]
    rows = []
    for x, a, *point in zip(xi.ravel().tolist(), a2.ravel().tolist(), *columns):
        for q, v in zip(cfg.quantities, point):
            rows.append({"xi": x, "alpha_sq": a, "quantity": q, "value": v})
    return rows


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
        return (lo,)
    return tuple(np.linspace(lo, hi, n))


# -- study tables --------------------------------------------------------------

def study_tables(xi_points, filter_budget, samples):
    """The four study tables, keyed by CSV file name, over ``xi_points``
    admissible machines; nan marks a quantity that does not exist there."""
    xis = np.linspace(XI_LOWER, 0.5, xi_points)
    at_half = evaluate({"bellM", "fidelity", "wernerX"}, xis, 0.5)
    ranges, quality, cloners = [], [], []
    for xi, bell_m, fidelity, werner_x in zip(
            xis.tolist(), *(at_half[q].tolist() for q in ("bellM", "fidelity", "wernerX"))):
        p = make_cloner_parameter(xi)
        row = {"xi": xi}
        for pair, closed_form in (("nonlocal", nonlocal_inseparability_range),
                                  ("local", local_separability_range)):
            try:
                r = closed_form(p)
                row[f"{pair}_lo"], row[f"{pair}_hi"] = r.lo, r.hi
            except RangeUndefinedError:
                row[f"{pair}_lo"] = row[f"{pair}_hi"] = math.nan
        ranges.append(row)
        quality.append({"xi": xi, "bell_m": bell_m, "fidelity": fidelity,
                        "werner_x": werner_x})
        literal = universality_report(p, MachineKind.LITERAL_2D, samples).spread
        try:
            abstract = universality_report(p, MachineKind.ABSTRACT_BH, samples).spread
        except GramNotPSDError:
            abstract = math.nan  # no universal machine exists here
        cloners.append({"xi": xi, "literal_spread": literal, "abstract_spread": abstract})
    filtering = []
    for a2, xi in ((0.5, XI_LOWER), (0.5, 1 / 6), (0.2, 1 / 6), (0.35, 0.2)):
        res = filter_search_max_m(EntangledInput.from_alpha_sq(a2),
                                  make_cloner_parameter(xi), budget=filter_budget)
        filtering.append({"alpha_sq": a2, "xi": xi, "max_m": res["max_m"]})
    return {"ranges.csv": ranges, "quality.csv": quality,
            "filtering.csv": filtering, "cloners.csv": cloners}
