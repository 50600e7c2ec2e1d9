"""A 30-digit audit of printed cells.

The kernel's closed forms are evaluated with mpmath at 30 digits on the
same float inputs the CLI uses (the grid's u and v, and the circle's b or
the samples of a tabulated curvature), and every cell of the
``invariants`` CSV is compared with the correctly rounded
9-significant-digit value of that reference.  The audit checks the
floating-point evaluation, not the formulas; the symbolic and
finite-difference oracles check those.  A change that moves printed bytes
reports the count of misrounded cells before and after.
"""

import json
import math
from bisect import bisect_right
from decimal import ROUND_HALF_EVEN, Decimal

import pytest

mpmath = pytest.importorskip("mpmath")

from meridian.cli import CSV_HEADER, main  # noqa: E402
from meridian.curves import grid_points  # noqa: E402


def _sinh_jet(u):
    return mpmath.sinh(u), mpmath.cosh(u), mpmath.sinh(u), mpmath.cosh(u)


def _cos_jet(u):
    return mpmath.cos(u), -mpmath.sin(u), -mpmath.cos(u), mpmath.sin(u)


def _circle(b):
    """A config's circle of curvature b, and kappa, kappa' at v."""
    return {"kind": "constant", "b": b}, lambda v: (mpmath.mpf(b), 0)


def _hermite(rows):
    """A config's function curve through rows [v, kappa, kappa'], and kappa,
    kappa' at a float v: the cubic Hermite of jets.hermite_fn on the float
    samples, evaluated at the working precision."""
    xs = [r[0] for r in rows]

    def at(v):
        i = min(max(bisect_right(xs, v) - 1, 0), len(xs) - 2)
        x0, f0, d0 = map(mpmath.mpf, rows[i])
        x1, f1, d1 = map(mpmath.mpf, rows[i + 1])
        h = x1 - x0
        s = (mpmath.mpf(v) - x0) / h
        s2, s3 = s * s, s * s * s
        kappa = ((2 * s3 - 3 * s2 + 1) * f0 + (s3 - 2 * s2 + s) * h * d0
                 + (-2 * s3 + 3 * s2) * f1 + (s3 - s2) * h * d1)
        dkappa = ((6 * s - 6) * s * f0 + ((3 * s - 4) * s + 1) * h * d0
                  + (6 - 6 * s) * s * f1 + (3 * s - 2) * s * h * d1) / h
        return kappa, dkappa

    return {"kind": "function", "samples": rows}, at


#: kappa = 0.8 + 0.1 sin v at 9 knots of [0, 2 pi]: over sinh on [0.5, 2]
#: kappa^2 < 4 sinh^2 u, so D < 0 stays clear of 0 and every point is
#: general and untrapped
_WAVY = [[v, 0.8 + 0.1 * math.sin(v), 0.1 * math.cos(v)]
         for v in grid_points(0.0, 2.0 * math.pi, 9)]

#: id -> (geometry, s, explicit profile, its jet f, f', f'', f''' at 30
#: digits, domain.u, (curve config, kappa and kappa' at v))
CONFIGS = {
    "sinh-elliptic-b1.2": ("elliptic", 1, "sinh", _sinh_jet, [0.5, 2.0],
                           _circle(1.2)),
    "cos-hyperbolic-b1": ("hyperbolic", -1, "cos", _cos_jet, [0.3, 1.2],
                          _circle(1.0)),
    "sinh-elliptic-hermite": ("elliptic", 1, "sinh", _sinh_jet, [0.5, 2.0],
                              _hermite(_WAVY)),
}

#: Misrounded cells of a 33x33 grid, measured at 30 digits: a bound that a
#: change may not raise.
MISROUNDED_BOUND = 0


def _tail(s, jet, kappa, dkappa):
    """The cells after v at one (u, v), by the kernel's formulas: E, F, G,
    k, varkappa, K, H2, normH, epsilon, the eight frame invariants and the
    point class."""
    f, fd, fdd, fddd = jet
    V = s * (fd * fd - 1)
    sqV = mpmath.sqrt(V)
    phi = f * fdd + fd * fd - 1
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
    P = phi / sqV
    Pdu = dphi / sqV - phi * dV / (2 * V * sqV)
    # beta_1,2 = V (-+kappa P' + kappa' P / f) / (sqrt(2) |D|)
    betas = [V * (sign * kappa * Pdu + dkappa * P / f)
             / (mpmath.sqrt(2) * eps * D) for sign in (-1, 1)]
    return cells + [eps, gamma, gamma, nu, nu, lam, mu, *betas, "general"]


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
    geometry, s, family, jet, dom_u, (curve, kappa_at) = CONFIGS[name]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "geometry": geometry, "curve": curve,
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
        jets = [jet(mpmath.mpf(u)) for u in us]
        kappas = [kappa_at(v) for v in vs]
        for i, row in enumerate(rows):
            got = row.split(",")
            iu, iv = divmod(i, len(vs))
            want = [us[iu], vs[iv]] + _tail(s, jets[iu], *kappas[iv])
            assert len(got) == len(want)
            misrounded += sum(_misrounded(c, r) for c, r in zip(got, want))
            cells += len(got)
    assert cells == 20 * 33 * 33
    assert misrounded <= MISROUNDED_BOUND, f"{misrounded} of {cells} cells"
