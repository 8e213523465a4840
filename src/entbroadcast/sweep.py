"""Grid sweeps of the broadcast-state quality measures, and the study tables."""

import math
from dataclasses import dataclass

import numpy as np

from .analysis import (
    RangeUndefinedError,
    _bell_m,
    _correlation,
    _fidelity,
    _min_pt_eigenvalue,
    _werner,
    filter_search_max_m,
    local_separability_range,
    nonlocal_inseparability_range,
)
from .broadcast import EntangledInput, local_states, nonlocal_states
from .cloner import (
    XI_LOWER,
    GramNotPSDError,
    MachineKind,
    analysis_parameter,
    make_cloner_parameter,
    universality_report,
)

QUANTITIES = ("pptNonlocal", "pptLocal", "bellM", "fidelity", "wernerX")


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


def _evaluate(wanted, xi, alpha_sq, werner_tol):
    """Quantities in the set ``wanted`` at the points (xi[k], alpha_sq[k]), one
    array each, building only the states they need, each as one stack.

    Raises OutOfRangeError at the first point, in order, where a needed state
    is not a density operator. The same-site state is checked first: wherever
    the cross-site state fails, it fails too.
    """
    values = {}
    if "pptLocal" in wanted:
        values["pptLocal"] = _min_pt_eigenvalue(local_states(alpha_sq, xi))
    if wanted - {"pptLocal"}:
        rho = nonlocal_states(alpha_sq, xi)
        if "pptNonlocal" in wanted:
            values["pptNonlocal"] = _min_pt_eigenvalue(rho)
        if wanted & {"bellM", "fidelity"}:
            t = _correlation(rho).real
            if "bellM" in wanted:
                values["bellM"] = _bell_m(t)
            if "fidelity" in wanted:
                values["fidelity"] = _fidelity(t)
        if "wernerX" in wanted:
            values["wernerX"] = _werner(rho, werner_tol)[0]
    return values


def _outer_grid(xis, alpha_sqs):
    """Paired (xi, alpha^2) arrays of the outer-product grid, xi-major."""
    xi, a2 = np.meshgrid(np.asarray(xis, dtype=float), np.asarray(alpha_sqs, dtype=float),
                         indexing="ij")
    return xi.ravel(), a2.ravel()


def run_sweep(cfg: SweepConfig):
    """One row per (xi, alpha^2, quantity), xi-major then alpha^2 then quantity."""
    make = analysis_parameter if cfg.analysis_only else make_cloner_parameter
    for xi in cfg.xi_grid:
        make(float(xi))  # the machine's range, or finiteness when analysis-only
    xi, a2 = _outer_grid(cfg.xi_grid, cfg.alpha_sq_grid)
    values = _evaluate(set(cfg.quantities), xi, a2, cfg.werner_tol)
    columns = [values[q].tolist() for q in cfg.quantities]
    rows = []
    for x, a, *point in zip(xi.tolist(), a2.tolist(), *columns):
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
    at_half = _evaluate({"bellM", "fidelity", "wernerX"}, xis, np.full_like(xis, 0.5), 1e-8)
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
