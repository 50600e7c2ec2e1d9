"""A 30-digit audit of printed cells.

The kernel's closed forms are evaluated with mpmath at 30 digits on the
same float inputs the CLI uses (the grid's u and v, the circle's b), and
every cell of the ``invariants`` CSV is compared with the correctly rounded
9-significant-digit value of that reference.  The audit checks the
floating-point evaluation, not the formulas; the symbolic and
finite-difference oracles check those.  A change that moves printed bytes
reports the count of misrounded cells before and after.
"""

import json
import math
from decimal import ROUND_HALF_EVEN, Decimal

import pytest

mpmath = pytest.importorskip("mpmath")

from meridian.cli import CSV_HEADER, main  # noqa: E402
from meridian.curves import grid_points  # noqa: E402


def _sinh_jet(u):
    return mpmath.sinh(u), mpmath.cosh(u), mpmath.sinh(u), mpmath.cosh(u)


def _cos_jet(u):
    return mpmath.cos(u), -mpmath.sin(u), -mpmath.cos(u), mpmath.sin(u)


#: id -> (geometry, s, explicit profile, its jet f, f', f'', f''' at 30
#: digits, domain.u, circle b)
CONFIGS = {
    "sinh-elliptic-b1.2": ("elliptic", 1, "sinh", _sinh_jet, [0.5, 2.0],
                           1.2),
    "cos-hyperbolic-b1": ("hyperbolic", -1, "cos", _cos_jet, [0.3, 1.2], 1.0),
}

#: Misrounded cells of a 33x33 grid, measured at 30 digits: a bound that a
#: change may not raise.
MISROUNDED_BOUND = 0


def _tail(s, jet, b):
    """The cells after v at one u over a circle of curvature b, by the
    kernel's formulas: E, F, G, k, varkappa, K, H2, normH, epsilon, the
    eight frame invariants and the point class."""
    f, fd, fdd, fddd = jet
    V = s * (fd * fd - 1)
    sqV = mpmath.sqrt(V)
    phi = f * fdd + fd * fd - 1
    kappa = mpmath.mpf(b)
    D = s * (kappa * kappa * V - phi * phi)
    H2 = D / (4 * f * f * V)
    cells = [1, 0, f * f, -fdd * fdd * kappa * kappa / (V * f * f), 0,
             -fdd / f, H2, mpmath.sqrt(abs(H2))]
    # these grids hold general, untrapped points only
    assert abs(kappa) > 1e-9 and abs(fdd / sqV) > 1e-9 and abs(H2) > 1e-10
    eps = 1 if H2 > 0 else -1
    sqD = mpmath.sqrt(eps * D)
    gamma = -fd / (mpmath.sqrt(2) * f)
    nu = sqD / (2 * f * sqV)
    lam = eps * s * (kappa * kappa * V + f * f * fdd * fdd - V * V) \
        / (2 * f * sqV * sqD)
    mu = kappa * fdd / sqD
    dphi = 3 * fd * fdd + f * fddd
    dV = 2 * s * fd * fdd
    Pdu = dphi / sqV - phi * dV / (2 * V * sqV)
    beta = V * kappa * Pdu / (mpmath.sqrt(2) * eps * D)    # kappa' = 0
    return cells + [eps, gamma, gamma, nu, nu, lam, mu, -beta, beta,
                    "general"]


def _rounded(x) -> Decimal:
    """x correctly rounded to 9 significant digits."""
    d = Decimal(mpmath.nstr(mpmath.mpf(x), 28, min_fixed=1, max_fixed=0))
    if d == 0:
        return d
    return d.quantize(Decimal(1).scaleb(d.adjusted() - 8), ROUND_HALF_EVEN)


def _misrounded(cell: str, ref) -> bool:
    if isinstance(ref, (str, int)):
        return cell != str(ref)
    return Decimal(cell) != _rounded(ref)


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_invariants_cells_are_correctly_rounded(tmp_path, name):
    geometry, s, family, jet, dom_u, b = CONFIGS[name]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "geometry": geometry, "curve": {"kind": "constant", "b": b},
        "profile": {"kind": "explicit_f", "family": family},
        "domain": {"u": dom_u, "v": [0.0, 2.0 * math.pi]},
        "grid": {"nu": 33, "nv": 33}}), encoding="utf-8")
    out = tmp_path / "inv.csv"
    assert main(["invariants", "--config", str(cfg), "--out", str(out)]) == 0
    header, *rows = out.read_text(encoding="utf-8").splitlines()
    assert header == CSV_HEADER
    us, vs = grid_points(*dom_u, 33), grid_points(0.0, 2.0 * math.pi, 33)
    assert len(rows) == len(us) * len(vs)
    misrounded = cells = 0
    with mpmath.workdps(30):
        tails = [_tail(s, jet(mpmath.mpf(u)), b) for u in us]
        for i, row in enumerate(rows):
            got = row.split(",")
            want = [us[i // len(vs)], vs[i % len(vs)]] + tails[i // len(vs)]
            assert len(got) == len(want)
            misrounded += sum(_misrounded(c, r) for c, r in zip(got, want))
            cells += len(got)
    assert cells == 20 * 33 * 33
    assert misrounded <= MISROUNDED_BOUND, f"{misrounded} of {cells} cells"
