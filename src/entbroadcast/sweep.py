"""Grid sweeps of the broadcast-state quality measures, and the study tables."""

import math

import numpy as np

from .analysis import (
    QUANTITIES,
    RangeUndefinedError,
    evaluate,
    filter_certificate,
    local_separability_range,
    nonlocal_inseparability_range,
)
from .cloner import (
    XI_LOWER,
    GramNotPSDError,
    MachineKind,
    analysis_parameter,
    make_cloner_parameter,
    universality_report,
)
from .report import GridTable


class ConfigError(ValueError):
    """Invalid sweep configuration."""


def run_sweep(xi_grid, alpha_sq_grid, quantities, analysis_only=False):
    """The sweep table: each quantity at every point of the ``(xi, alpha^2)``
    grid, one ``analysis.evaluate`` call over the whole grid.

    A ``report.GridTable``: the grids ``xi``, ``alpha_sq`` and ``quantity``
    and the ``(n_xi, n_alpha, n_q)`` block of ``value``, a row per
    (xi, alpha^2, quantity), xi-major, then alpha^2, then quantity; its
    ``len()`` is the number of rows. Raises ConfigError on an invalid input.
    """
    if not xi_grid:
        raise ConfigError("xi grid is empty")
    if not alpha_sq_grid:
        raise ConfigError("alpha^2 grid is empty")
    if not quantities:
        raise ConfigError("no quantities selected")
    for q in quantities:
        if q not in QUANTITIES:
            raise ConfigError(f"unknown quantity {q!r}; choose from {QUANTITIES}")
    for a2 in alpha_sq_grid:
        if not (0.0 <= a2 <= 1.0):
            raise ConfigError(f"alpha^2={a2} outside [0, 1]")
    check = analysis_parameter if analysis_only else make_cloner_parameter
    for xi in xi_grid:
        check(float(xi))  # the machine's range, or finiteness when analysis-only
    xi = np.asarray(xi_grid, dtype=float)
    a2 = np.asarray(alpha_sq_grid, dtype=float)
    values = evaluate(quantities, xi[:, None], a2[None, :])
    return GridTable({"xi": xi.tolist(), "alpha_sq": a2.tolist(), "quantity": quantities},
                     "value", np.stack([values[q] for q in quantities], axis=-1))


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


def _abstract_spread(p):
    try:
        return universality_report(p, MachineKind.ABSTRACT_BH).spread
    except GramNotPSDError:
        return math.nan  # no universal machine exists here


def study_tables(xi_points):
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
        "literal_spread": [universality_report(p, MachineKind.LITERAL_2D).spread
                           for p in machines],
        "abstract_spread": [_abstract_spread(p) for p in machines],
    }
    alpha_sq, xi = [0.5, 0.5, 0.2, 0.35], [XI_LOWER, 1 / 6, 1 / 6, 0.2]
    filtering = {"alpha_sq": alpha_sq, "xi": xi,
                 "certificate": filter_certificate(np.array(alpha_sq), np.array(xi)).tolist()}
    return {"ranges.csv": ranges, "quality.csv": quality,
            "filtering.csv": filtering, "cloners.csv": cloners}
