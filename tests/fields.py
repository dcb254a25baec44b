"""Grid fields, norms and a path-file writer that only the tests read: the
eigenfunctions e_k sampled on the grid, the trapezoid L^p norm and L^2 inner
product on the closure (boundary terms weighted h/2), the spectral H^1
distance, and the writer of the CSV that `acldp action --path` reads."""

import numpy as np

from acldp.errors import ConfigurationError
from acldp.grid import Boundary, Domain, Field, boundary_values, transform_values
from acldp.io import write_csv


def basis_eval(d: Domain, k: int) -> Field:
    """Sample the k-th eigenfunction e_k on the grid (1 <= k <= modes)."""
    if not 1 <= k <= d.modes:
        raise ConfigurationError(f"basis index k={k} out of range 1..{d.modes}")
    arg = k * np.pi * d.xi / (2.0 * d.L)
    vals = (np.sin(arg) if k % 2 == 0 else np.cos(arg)) / np.sqrt(d.L)
    return Field(vals, Boundary.ZERO_DIRICHLET)


def lp_norm(d: Domain, f: Field, p: float = 2) -> float:
    """Trapezoid L^p norm on the closure (boundary terms weighted h/2)."""
    lo, hi = boundary_values(f)
    s = np.sum(np.abs(f.values) ** p) + 0.5 * (abs(lo) ** p + abs(hi) ** p)
    return float((d.h * s) ** (1.0 / p))


def l2_inner(d: Domain, f: Field, g: Field) -> float:
    """Trapezoid L^2 inner product (boundary products vanish for zero bc)."""
    (flo, fhi), (glo, ghi) = boundary_values(f), boundary_values(g)
    return float(d.h * (np.sum(f.values * g.values) + 0.5 * (flo * glo + fhi * ghi)))


def h1_distance(d: Domain, f: Field, g: Field) -> float:
    """Full H^1 norm of f - g for two fields of the same boundary class."""
    if f.bc is not g.bc:
        raise ConfigurationError("H^1 distance needs matching boundary classes")
    c = transform_values(d, f.values - g.values)
    return float(np.sqrt(np.sum((1.0 + d.lambda_k) * c * c)))


def write_path_csv(path, times: np.ndarray, values: np.ndarray) -> None:
    cols = {"t": times}
    for j in range(values.shape[1]):
        cols[f"z{j}"] = values[:, j]
    write_csv(path, cols)
