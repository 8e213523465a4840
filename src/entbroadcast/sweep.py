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
from .broadcast import EntangledInput, local_state, nonlocal_state
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


def _evaluate(wanted, inp, p, werner_tol):
    """Quantities in the set ``wanted`` at one point, building only the states they need."""
    values = {}
    if "pptLocal" in wanted:
        values["pptLocal"] = _min_pt_eigenvalue(local_state(inp, p))
    if wanted - {"pptLocal"}:
        rho = nonlocal_state(inp, p)
        if "pptNonlocal" in wanted:
            values["pptNonlocal"] = _min_pt_eigenvalue(rho)
        if wanted & {"bellM", "fidelity"}:
            t = _correlation(rho).real
            if "bellM" in wanted:
                values["bellM"] = _bell_m(t)
            if "fidelity" in wanted:
                values["fidelity"] = _fidelity(t)
        if "wernerX" in wanted:
            dec = _werner(rho, werner_tol)
            values["wernerX"] = dec.x if dec is not None else math.nan
    return values


def run_sweep(cfg: SweepConfig):
    """One row per (xi, alpha^2, quantity), xi-major then alpha^2 then quantity."""
    make = analysis_parameter if cfg.analysis_only else make_cloner_parameter
    wanted = set(cfg.quantities)
    rows = []
    for xi in cfg.xi_grid:
        p = make(float(xi))
        for a2 in cfg.alpha_sq_grid:
            values = _evaluate(wanted, EntangledInput.from_alpha_sq(float(a2)), p,
                               cfg.werner_tol)
            for q in cfg.quantities:
                rows.append({
                    "xi": float(xi),
                    "alpha_sq": float(a2),
                    "quantity": q,
                    "value": float(values[q]),
                })
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
    half = EntangledInput.from_alpha_sq(0.5)
    ranges, quality, cloners = [], [], []
    for xi in np.linspace(XI_LOWER, 0.5, xi_points).tolist():
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
        v = _evaluate({"bellM", "fidelity", "wernerX"}, half, p, 1e-8)
        quality.append({"xi": xi, "bell_m": v["bellM"], "fidelity": v["fidelity"],
                        "werner_x": v["wernerX"]})
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
