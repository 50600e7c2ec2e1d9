"""A ScalarFn call runs the body on floats; these tests pin that it returns
the bits of the jet's value, and that the slope build that reads it keeps
the tables of the jet route."""

import math
import random
import struct
from array import array

import pytest

from meridian import jets
from meridian.curves import (ADMISSIBILITY_MARGIN, Geometry,
                             _slope_admissible, _slope_table,
                             profile_from_slope_ode)
from meridian.errors import DomainError, ProfileDomainError
from meridian.families import (EXPLICIT_PROFILES, FamilyKind, FamilySpec,
                               _wavy_kappa, chen_slope, constant_k_slope,
                               constant_mean_slope, explicit_f, family_slope,
                               harmonic_fn, hyperbolic_harmonic_fn,
                               parallel_slope_case_b, sqrt_quadratic_fn)
from meridian.jets import ScalarFn, hermite_fn

E, H = Geometry.ELLIPTIC, Geometry.HYPERBOLIC


def _outcome(evaluate, u):
    """The bits of evaluate(u), or the class of the exception it raises."""
    try:
        return struct.pack("<d", evaluate(u))
    except Exception as exc:
        return type(exc)


def _points(lo, hi, n, seed):
    """Both ends, a point just outside each, and n uniform draws between,
    half of them log-uniform when the interval is positive."""
    rng = random.Random(seed)
    pts = [lo, hi, math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)]
    pts += [rng.uniform(lo, hi) for _ in range(n // 2)]
    if lo > 0.0:
        pts += [math.exp(rng.uniform(math.log(lo), math.log(hi)))
                for _ in range(n - n // 2)]
    return pts


def _slopes():
    # The huge parameters square to past the float range: a product gives
    # inf there, as the jet does, where float ** 2 raises OverflowError.
    out = []
    for g in (E, H):
        for sign in (1, -1):
            for eps in ((1,) if g is E else (1, -1)):
                for C in (0.0, -0.4, 1e200):
                    out.append((f"cmc-{g.value}-s{sign}-e{eps}-C{C}",
                                constant_mean_slope(0.5, 1.0, C, g, sign, eps)))
            for a, C in ((1.0, 0.2), (-0.7, -0.3), (1e150, 0.0)):
                out.append((f"k-{g.value}-s{sign}-a{a}",
                            constant_k_slope(a, 1.3, C, g, sign)))
        for branch in (1, -1):
            for a, b in ((-1.0, 0.8), (0.6, 0.8), (1.0, 1e100)):
                out.append((f"chen-{g.value}-b{branch}-a{a}-b{b}",
                            chen_slope(a, b, g, branch)))
        for a, c in ((0.5, 0.3), (-1.2, 0.2)):
            out.append((f"pb-{g.value}-a{a}", parallel_slope_case_b(a, c, g)))
    return out


def _cases():
    cases = [(name, fn, _points(*fn.domain, 600, name))
             for name, fn in _slopes()]
    cases.append(("chen-scaled", chen_slope(-1.0, 1.0, E).scaled(-1.5),
                  _points(1e-12, 1e6, 600, "scaled")))
    wide = _points(-30.0, 30.0, 400, "wide")
    cases += [
        ("harmonic", harmonic_fn(0.9, -0.4, 4.0), wide),
        ("hyperbolic_harmonic", hyperbolic_harmonic_fn(1.1, 0.3, 0.8), wide),
        ("sqrt_quadratic-pos", sqrt_quadratic_fn(0.2, 1.0), wide),
        ("sqrt_quadratic-neg", sqrt_quadratic_fn(0.1, -0.5), wide),
        ("wavy_kappa", _wavy_kappa(), wide),
        ("constant", ScalarFn.constant(1.7), wide),
        ("constant-scaled", ScalarFn.constant(1.7).scaled(-0.3), wide),
        ("hermite-scaled", _hermite().scaled(2.5), _hermite_points()),
        ("hermite", _hermite(), _hermite_points()),
    ]
    params = {"alpha": 0.8, "beta": 0.3, "omega": 1.7, "c": 0.2, "d": 1.5,
              "a0": 0.1, "a1": -2.0}
    cases += [(f"explicit-{name}",
               explicit_f(name, {k: params[k] for k in fields})[0], wide)
              for name, (fields, _) in EXPLICIT_PROFILES.items()]
    for name, y, f0, geometry, u_span in _SLOPE_PROFILES:
        f = profile_from_slope_ode(y, f0, geometry, 0.0, u_span).f
        cases.append((f"slope-profile-{name}", f,
                      _points(*f.domain, 600, name)))
    return cases


def _hermite():
    xs = [0.3 * i - 1.0 for i in range(12)]
    return hermite_fn(xs, [math.sin(2.0 * x) for x in xs],
                      [2.0 * math.cos(2.0 * x) for x in xs], name="kappa")


def _hermite_points():
    xs = [0.3 * i - 1.0 for i in range(12)]
    mids = [0.5 * (a + b) for a, b in zip(xs, xs[1:])]
    return xs + mids + _points(xs[0], xs[-1], 200, "hermite")


def _slope_profile(kind, geometry, eps, f0, u_span, **params):
    y = family_slope(FamilySpec(FamilyKind(kind), geometry, params=params,
                                epsilon_branch=eps))
    return (f"{kind}-{geometry.value}" + (f"-e{eps}" if eps else ""), y, f0,
            geometry, u_span)


#: (name, y, f0, geometry, u_span): the slope profiles of the acceptance
#: sets, four slopes in both geometries
_SLOPE_PROFILES = [
    _slope_profile("constant_mean", E, None, 0.5, 0.5, a=1.0, b=4.0, C=0.0),
    _slope_profile("constant_mean", H, 1, 0.8, 2.0, a=0.5, b=1.0, C=-0.6),
    _slope_profile("constant_mean", H, -1, 0.5, 2.0, a=0.5, b=1.0, C=0.0),
    _slope_profile("constant_k", E, None, 1.0, 1.0, a=1.0, b=1.0, C=0.0),
    _slope_profile("constant_k", H, None, 0.5, 0.7, a=1.0, b=2.0, C=0.0),
    _slope_profile("chen", E, None, 1.2, 0.8, a=-1.0, b=1.0),
    _slope_profile("chen", H, None, 0.7, 1.2, a=-1.0, b=0.5),
    _slope_profile("parallel_b", E, None, 2.0, 1.0, a=1.0, c=1.0),
    _slope_profile("parallel_b", H, None, 0.1, 0.25, a=0.5, c=0.1),
]

_CASES = _cases()


@pytest.mark.parametrize("name,fn,points", _CASES,
                         ids=[c[0] for c in _CASES])
def test_value_call_matches_jet_value(name, fn, points):
    for u in points:
        assert _outcome(fn, u) == _outcome(lambda x: fn.jet2(x).v, u), u


def test_tiny_sqrt_radicand_reads_as_a_value():
    # Below about 1e-216 the jet's second derivative -0.25 / (r * x)
    # divides by an underflowed zero; the float route has no such term and
    # returns sqrt(x).  A slope value there is now read as a value (the jet
    # route read NaN); the build still stops at its first jet check.
    assert jets.sqrt(1e-300) == 1e-150
    with pytest.raises(ZeroDivisionError):
        jets.sqrt(jets.var(1e-300))
    y = ScalarFn(lambda t: jets.sqrt(1e-300 * t))
    assert _slope_admissible(y, 1.0, H) == 1e-150
    with pytest.raises(ProfileDomainError, match="within one step"):
        profile_from_slope_ode(y, 1.0, H, 0.0, 1.0)


# -- the slope build against the jet route it replaced ------------------------

_ERRORS = (DomainError, ValueError, ZeroDivisionError)


def _ref_admissible(y, t, geometry):
    try:
        yv = y.jet2(t).v
    except _ERRORS:
        return math.nan
    if t <= 0.0 or not math.isfinite(yv):
        return math.nan
    if (geometry.normalization(yv) < ADMISSIBILITY_MARGIN
            or (geometry is H and yv <= 0.0)):
        return math.nan
    return yv


def _ref_dips(y, geometry, t_lo, t_hi):
    def dV(t):
        j = y.jet2(t)
        return geometry.normalization_sign * 2.0 * j.v * j.d1

    try:
        da, db = dV(t_lo), dV(t_hi)
    except _ERRORS:
        return "dV"
    if da == 0.0 or db == 0.0 or (da < 0.0) == (db < 0.0):
        return None
    a, b = t_lo, t_hi
    for _ in range(60):
        mid = 0.5 * (a + b)
        try:
            dm = dV(mid)
        except _ERRORS:
            return "dV"
        if (dm < 0.0) == (da < 0.0):
            a = mid
        else:
            b = mid
    return "dip" if math.isnan(_ref_admissible(y, 0.5 * (a + b),
                                               geometry)) else None


def _ref_build(y, f0, geometry, u_span, step=1e-3):
    """The jet-route build: tables (us, fs, ds) and why it stopped."""
    us, fs, ds = [0.0], [f0], [_ref_admissible(y, f0, geometry)]
    f = f0
    for i in range(max(1, round(u_span / step))):
        k1 = ds[-1]
        k2 = _ref_admissible(y, f + 0.5 * step * k1, geometry)
        k3 = _ref_admissible(y, f + 0.5 * step * k2, geometry)
        k4 = _ref_admissible(y, f + step * k3, geometry)
        if any(map(math.isnan, (k2, k3, k4))):
            return (us, fs, ds), "stage"
        f_next = f + step / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        d_next = _ref_admissible(y, f_next, geometry)
        if math.isnan(d_next):
            return (us, fs, ds), "d_next"
        ratios = (step * k1 / (f_next - f), step * d_next / (f_next - f))
        if not all(0.0 < r <= 3.0 for r in ratios):
            return (us, fs, ds), "monotone"
        stop = _ref_dips(y, geometry, min(f, f_next), max(f, f_next))
        if stop:
            return (us, fs, ds), stop
        f = f_next
        us.append((i + 1) * step)
        fs.append(f)
        ds.append(d_next)
    return (us, fs, ds), "span"


@pytest.mark.parametrize("kind,geometry,params,eps,scale,f0,stop", [
    ("constant_k", E, dict(a=-1.9, b=-0.5, C=-0.6), None, 1.0, 1.0,
     "monotone"),
    ("constant_mean", H, dict(a=-0.7, b=1.0, C=-0.4), 1, 1.0, 0.8, "stage"),
    ("constant_k", E, dict(a=-1.3, b=0.3, C=-0.1, sign=-1), None, 1.0, 0.5,
     "monotone"),
    ("parallel_b", E, dict(a=0.8, c=-0.7), None, -1.0, 0.5, "d_next"),
    ("parallel_b", H, dict(a=-0.3, c=-0.1), None, 1.0, 0.3, "dip"),
    ("parallel_b", E, dict(a=-1.2, c=0.2), None, -1.0, 1.2, "dip"),
    ("constant_mean", H, dict(a=1.6, b=-0.2, C=0.5, sign=-1), 1, 1.0, 0.4,
     "dip"),
    ("chen", E, dict(a=-0.2, b=-1.4, branch=-1), None, 1.0, 1.6, "span"),
], ids=["k-monotone", "cmc-hyp-stage", "k-sign-monotone",
        "pb-falling-d_next", "pb-hyp-dip", "pb-falling-dip", "cmc-hyp-dip",
        "chen-span"])
def test_slope_tables_match_jet_route(kind, geometry, params, eps, scale, f0,
                                      stop):
    # slope_scale -1 makes an elliptic f fall ("falling"), so a step's ends
    # come in the other order
    y = family_slope(FamilySpec(FamilyKind(kind), geometry, params=params,
                                epsilon_branch=eps, slope_scale=scale))
    ref, why = _ref_build(y, f0, geometry, 2.0)
    assert why == stop
    for got, want in zip(_slope_table(y, f0, geometry, 2.0), ref):
        assert array("d", got).tobytes() == array("d", want).tobytes()


def test_slope_build_reads_one_jet_per_point(monkeypatch):
    # V has one admissible extremum on this span: one 60-step bisection,
    # and otherwise one jet per accepted point, f0 included
    calls = []
    jet2 = ScalarFn.jet2
    monkeypatch.setattr(ScalarFn, "jet2",
                        lambda self, u: calls.append(u) or jet2(self, u))
    us, _, _ = _slope_table(chen_slope(-0.9, 1.9, E), 1.5, E, 1.0)
    assert len(us) == 1001
    assert len(calls) == len(us) + 60


def _rising(t):
    return 1.5 + 0.2 * jets.sin(t)


def _falling(t):
    return 1.5 - 0.2 * jets.sin(t)


def _hyperbolic(t):
    return 0.5 + 0.1 * jets.sin(t)


def _step_reads(body, f0, geometry, i):
    """The abscissae (t2, t3, t4, f_next) that step i of the build of
    fdot = body(f) from f0 reads, by the textbook stage-by-stage form."""
    y, step = ScalarFn(body), 1e-3
    _, fs, ds = _ref_build(y, f0, geometry, 2.0)[0]
    f, k1 = fs[i], ds[i]
    t2 = f + 0.5 * step * k1
    t3 = f + 0.5 * step * y(t2)
    t4 = f + step * y(t3)
    return t2, t3, t4, f + step / 6.0 * (k1 + 2.0 * y(t2) + 2.0 * y(t3)
                                          + y(t4))


def _cut_at(body, cut, past):
    """body below ``cut``; at and above it, past(t)."""
    def cut_body(t):
        x = t.v if isinstance(t, jets.Jet2) else t
        return body(t) if x < cut else past(t)
    return cut_body


def _raise_zero_division(t):
    raise ZeroDivisionError("y read past its pole")


def _edge_slope(case, i):
    """(y, f0, geometry, the reference's stop) of one edge of a step: y
    ends at a point that step i reads, which the steps before it do not
    reach."""
    if case == "domain-between-stages":
        t2, t3, _, _ = _step_reads(_rising, 0.5, E, i)
        assert t2 < t3
        return ScalarFn(_rising, domain=(0.1, 0.5 * (t2 + t3))), 0.5, E, \
            "stage"
    # the next two cut y between f_next and t4, so that only the last stage
    # reads past the cut
    if case == "inf-at-stage":
        _, _, t4, f_next = _step_reads(_rising, 0.5, E, i)
        assert f_next < t4
        return ScalarFn(_cut_at(_rising, 0.5 * (f_next + t4),
                                lambda t: math.inf)), 0.5, E, "stage"
    if case == "hyperbolic-reaches-zero":
        _, _, t4, f_next = _step_reads(_hyperbolic, 0.5, H, i)
        assert f_next < t4
        return ScalarFn(_cut_at(_hyperbolic, 0.5 * (f_next + t4),
                                lambda t: 0.0)), 0.5, H, "stage"
    t2, t3, t4, f_next = _step_reads(_falling, 0.5, E, i)
    assert max(t2, t3, t4) < f_next
    return ScalarFn(_cut_at(_falling, 0.5 * (t4 + f_next),
                            _raise_zero_division)), 0.5, E, "d_next"


@pytest.mark.parametrize("case,i", [
    ("domain-between-stages", 300), ("inf-at-stage", 300),
    ("hyperbolic-reaches-zero", 300), ("hyperbolic-reaches-zero", 0),
    ("zero-division-at-f_next", 300), ("zero-division-at-f_next", 0)])
def test_slope_step_edges_match_jet_route(case, i):
    # a step that meets the end of y stops there, with the tables of the
    # jet route; at the first step, with its "within one step" error
    y, f0, geometry, stop = _edge_slope(case, i)
    ref, why = _ref_build(y, f0, geometry, 2.0)
    assert why == stop and len(ref[0]) == i + 1
    if i == 0:
        with pytest.raises(ProfileDomainError, match="within one step"):
            _slope_table(y, f0, geometry, 2.0)
        return
    got = _slope_table(y, f0, geometry, 2.0)
    assert [[x.hex() for x in col] for col in got] == \
        [[x.hex() for x in col] for col in ref]


def test_slope_step_stops_at_its_first_inadmissible_read(monkeypatch):
    # y's domain ends between the second and third stage of step 300: that
    # step reads y twice, the accepted steps four times each (three stages
    # and the jet at the new point), the start twice
    y, f0, geometry, _ = _edge_slope("domain-between-stages", 300)
    reads, call, jet2 = [], ScalarFn.__call__, ScalarFn.jet2
    monkeypatch.setattr(ScalarFn, "__call__",
                        lambda self, t: reads.append(t) or call(self, t))
    monkeypatch.setattr(ScalarFn, "jet2",
                        lambda self, t: reads.append(t) or jet2(self, t))
    us, _, _ = _slope_table(y, f0, geometry, 2.0)
    assert len(us) == 301
    assert len(reads) == 2 + 4 * 300 + 2


# -- a slope profile's f is hermite_fn's read of the RK4 table ----------------


def _ref_f_value(us, fs, ds, step, u):
    """The slope profile's own cubic Hermite before hermite_fn served it:
    the segment from (u - us[0]) / step, in hermite_fn's expansion."""
    i = min(int((u - us[0]) / step), len(us) - 2)
    i = max(i, 0)
    h = us[i + 1] - us[i]
    s = (u - us[i]) / h
    s2, s3 = s * s, s * s * s
    return ((2.0 * s3 - 3.0 * s2 + 1.0) * fs[i]
            + (s3 - 2.0 * s2 + s) * h * ds[i]
            + (-2.0 * s3 + 3.0 * s2) * fs[i + 1]
            + (s3 - s2) * h * ds[i + 1])


def _bits(x):
    return struct.pack("<d", x)


@pytest.mark.parametrize("name,y,f0,geometry,u_span", _SLOPE_PROFILES,
                         ids=[c[0] for c in _SLOPE_PROFILES])
def test_slope_f_is_the_table_hermite(name, y, f0, geometry, u_span):
    us, fs, ds = _slope_table(y, f0, geometry, u_span)
    prof = profile_from_slope_ode(y, f0, geometry, 0.0, u_span)
    assert prof.domain == (us[0], us[-1])
    f = prof.f
    lo, hi = prof.domain
    near = [w for u in us for w in (math.nextafter(u, -math.inf), u,
                                    math.nextafter(u, math.inf))
            if lo <= w <= hi]
    # 10^5 uniform draws over the nine profiles
    rng = random.Random(name)
    drawn = [rng.uniform(lo, hi)
             for _ in range(100_000 // len(_SLOPE_PROFILES) + 1)]
    for u in near + drawn:
        assert _bits(f(u)) == _bits(_ref_f_value(us, fs, ds, 1e-3, u)), u
    # the jets come from y at that value, as before
    for u in near[::7] + drawn[:2000]:
        fv = _ref_f_value(us, fs, ds, 1e-3, u)
        yj = y.jet2(fv)
        got = f.jet2(u)
        assert list(map(_bits, (got.v, got.d1, got.d2, prof.f.d3(u)))) == \
            list(map(_bits, (fv, yj.v, yj.v * yj.d1,
                             yj.v * yj.d1 * yj.d1 + yj.v * yj.v * yj.d2))), u
