"""Deterministic workload generators for the skewforms benchmark.

Pure Python: nothing here imports skewforms, so the generated inputs and
the references derived from them stay independent of the program under
test.  The same seed always gives the same ``.forms`` text and the same op
list.

Every symbolic verdict is known by construction: an exact form is written
out as ``d(f)`` of a polynomial the generator drew, an unclosed one adds a
term ``c*x_j*dx_i`` whose curl is the nonzero constant ``c``, and so on.
Polynomials are kept as ``{exponent tuple: Fraction}`` maps so the
reference values of derivatives, wedges and potentials are exact rationals.

``Outcome``, the record of one attempted op, lives here too: ``worker.py``
fills it in and ``run.py`` reads it back, and neither imports the other.
"""

from __future__ import annotations

import random
from fractions import Fraction

VARSETS = {2: ("x", "y"), 3: ("x", "y", "z"), 4: ("x", "y", "z", "t")}

# A timed run does at least this many ops, so at least 10 samples lie beyond
# its p90.
MIN_OPS = 100


class Outcome:
    """One attempted op: its time, whether its output was right and, for a
    verdict-bearing op, whether the verdict was definite.  ``defect`` names
    the known defect a failure matches, or is None."""

    __slots__ = ("kind", "seconds", "ok", "reason", "defect", "verdict", "decided")

    def __init__(self, kind, seconds, ok=True, reason="", defect=None, verdict=False,
                 decided=False):
        self.kind, self.seconds, self.ok, self.reason = kind, seconds, ok, reason
        self.defect, self.verdict, self.decided = defect, verdict, decided

    def fail(self, reason, defect=None):
        # the first failure is kept, unless it was a known defect and this
        # one is not: then the op counts as an unexpected failure
        if self.ok or (self.defect is not None and defect is None):
            self.ok, self.reason, self.defect = False, reason, defect

    def row(self):
        return [getattr(self, name) for name in self.__slots__]


# --- exact polynomials ----------------------------------------------------------


def poly_add(*ps):
    out = {}
    for p in ps:
        for mono, c in p.items():
            out[mono] = out.get(mono, Fraction(0)) + c
    return {m: c for m, c in out.items() if c != 0}


def poly_scale(p, c):
    return {m: v * c for m, v in p.items() if v * c != 0}


def poly_mul(p, q):
    out = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            m = tuple(a + b for a, b in zip(m1, m2))
            out[m] = out.get(m, Fraction(0)) + c1 * c2
    return {m: c for m, c in out.items() if c != 0}


def poly_diff(p, i):
    out = {}
    for m, c in p.items():
        if m[i]:
            lowered = m[:i] + (m[i] - 1,) + m[i + 1:]
            out[lowered] = out.get(lowered, Fraction(0)) + c * m[i]
    return {m: c for m, c in out.items() if c != 0}


def poly_const(n, c):
    return {(0,) * n: Fraction(c)} if c else {}


def poly_var(n, i, c=1):
    return {tuple(1 if k == i else 0 for k in range(n)): Fraction(c)}


def poly_eval(p, point):
    total = Fraction(0)
    for m, c in p.items():
        term = c
        for v, e in zip(point, m):
            term *= v ** e
        total += term
    return total


def _coeff_text(c: Fraction) -> str:
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


def poly_text(p, names) -> str:
    """Render a polynomial in ``.forms`` syntax (reads back unchanged)."""
    if not p:
        return "0"
    chunks = []
    for m in sorted(p, key=lambda mono: (-sum(mono), [-e for e in mono])):
        c = p[m]
        factors = [n if e == 1 else f"{n}^{e}" for n, e in zip(names, m) if e]
        mag = abs(c)
        body = "*".join(([_coeff_text(mag)] if mag != 1 or not factors else []) + factors)
        if not chunks:
            chunks.append(("-" if c < 0 else "") + body)
        else:
            chunks.append((" - " if c < 0 else " + ") + body)
    return "".join(chunks)


def random_poly(rng, n, degree, terms, denom):
    """Sparse polynomial whose rational coefficients share one denominator."""
    p = {}
    while len(p) < terms:
        total = rng.randint(1, degree)
        mono = [0] * n
        for _ in range(total):
            mono[rng.randrange(n)] += 1
        p[tuple(mono)] = Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), denom)
    return p


def random_linear(rng, n, denom):
    return {tuple(1 if k == i else 0 for k in range(n)):
            Fraction(rng.choice([-1, 1]) * rng.randint(1, 5), denom) for i in range(n)}


def random_points(rng, n, count=2):
    return [tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(n))
            for _ in range(count)]


def form_text(coeffs, names) -> str:
    """A 1-form from per-axis coefficient texts; empty entries are skipped."""
    parts = [f"({c})*d{n}" for c, n in zip(coeffs, names) if c != "0"]
    return " + ".join(parts) if parts else "0"


def _frac(rng, lo, hi, denom=6):
    """A non-integer rational in [lo, hi]: never 0 or 1, which would drop a
    term or a factor from the canonical form and change the op's cost."""
    while True:
        value = Fraction(rng.randint(int(lo * denom), int(hi * denom)), denom)
        if value.denominator != 1:
            return value


# --- symbolic workload ------------------------------------------------------------
#
# A block holds one document of each template below.  Its cost and its mix
# of verdicts are the same for every seed; the seed only draws coefficients,
# evaluation points and which axes an extra term uses.  A run stops only at
# block boundaries, so the shares of decided and failed ops do not depend on
# where the clock ran out.

SYMBOLIC_BLOCKS = 64

# The wrong answers each known symbolic defect gives.  Any other failure of
# the ops it marks, a raised exception included, is unexpected.
DEFECT_ANSWERS = {"exp_identity_large_rate": ("nonzero", "unclosed", "inexact")}


def _verdict(kind, target, truth, **extra):
    op = {"kind": kind, "args": [target], "truth": truth}
    op.update(extra)
    return op


def _exact_doc(rng, n, shared):
    names = VARSETS[n]
    denom = rng.randint(2, 7)
    if shared:
        # f = S^3: every coefficient of d(f) repeats the text of S
        s = random_poly(rng, n, 2, 3, denom)
        s_text = poly_text(s, names)
        f = poly_mul(s, poly_mul(s, s))  # small: S has three terms
        f_text = f"({s_text})^3"
        coeffs = [f"3*({s_text})^2*({poly_text(poly_diff(s, i), names)})" for i in range(n)]
        b = [s] * n
        b_text = form_text([s_text] * n, names)
    else:
        f = random_poly(rng, n, 4, 6, denom)
        f_text = poly_text(f, names)
        coeffs = [poly_text(poly_diff(f, i), names) for i in range(n)]
        b = [random_poly(rng, n, 2, 2, denom) for _ in range(n)]
        b_text = form_text([poly_text(c, names) for c in b], names)
    a_text = form_text(coeffs, names)
    i, j = rng.sample(range(n), 2)
    c = Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), denom)
    grad = [poly_diff(f, k) for k in range(n)]
    u = [dict(g) for g in grad]
    u[i] = poly_add(u[i], poly_var(n, j, c))
    u_text = form_text([poly_text(p, names) for p in u], names)
    text = "\n".join([
        f"vars {', '.join(names)}",
        f"scalar f = {f_text}",
        f"form a = {a_text}",
        f"form u = {u_text}",
        f"form b = {b_text}",
        f"relation r: d(f) = {a_text}",
        f"relation q: d(f) = {u_text}",
    ])
    lo, hi = min(i, j), max(i, j)
    curl = -c if i < j else c

    def wedge_ref():
        return {(p + 1, q + 1): poly_add(poly_mul(grad[p], b[q]),
                                         poly_scale(poly_mul(grad[q], b[p]), -1))
                for p in range(n) for q in range(p + 1, n)}

    ops = [
        {"kind": "parse", "check": lambda: {"decls": ["f", "a", "u", "b", "r", "q"],
                                            "scalars": {"f": f}}},
        _verdict("classify", "a", {"closed": "closed", "exact": "exact"},
                 potential=lambda: poly_add(f, poly_const(n, -poly_eval(f, (0,) * n)))),
        _verdict("classify", "u", {"closed": "unclosed", "exact": "inexact"}),
        _verdict("relation", "r", "identical"),
        _verdict("relation", "q", "nonidentical"),
        {"kind": "d", "args": ["a"], "check": lambda: {"coeffs": {}}},
        {"kind": "d", "args": ["u"],
         "check": lambda: {"coeffs": {(lo + 1, hi + 1): poly_const(n, curl)}}},
        {"kind": "wedge", "args": ["a", "b"], "check": lambda: {"coeffs": wedge_ref()}},
    ]
    return {"template": "exact_shared" if shared else "exact_poly", "text": text,
            "points": random_points(rng, n), "ops": ops}


def _power_doc(rng, n, exponent):
    """(l . x)^e sets the expansion size; d of it has a closed form."""
    names = VARSETS[n]
    denom = rng.randint(2, 5)
    lin = random_linear(rng, n, denom)
    lin_text = poly_text(lin, names)
    coefs = [lin[tuple(1 if k == i else 0 for k in range(n))] for i in range(n)]
    eta = " + ".join(f"({_coeff_text(exponent * c)})*d{nm}" for c, nm in zip(coefs, names))
    text = "\n".join([
        f"vars {', '.join(names)}",
        f"scalar g = ({lin_text})^{exponent}",
        f"relation r: d(g) = ({lin_text})^{exponent - 1}*({eta})",
    ])

    def powers():
        out = [poly_const(n, 1)]
        for _ in range(exponent):
            out.append(poly_mul(out[-1], lin))
        return out

    ops = [
        {"kind": "parse", "check": lambda: {"decls": ["g", "r"], "scalars": {"g": powers()[-1]}}},
        {"kind": "d", "args": ["g"], "check": lambda: {"coeffs": {
            (i + 1,): poly_scale(powers()[-2], exponent * coefs[i]) for i in range(n)}}},
        _verdict("relation", "r", "identical"),
    ]
    return {"template": f"power_{n}x{exponent}", "text": text,
            "points": random_points(rng, n), "ops": ops}


def _transcendental_doc(rng):
    """f = c1*exp(L1)*sin(L2) + c2*cos(L3) with linear L; d(f) written out."""
    names = VARSETS[2]
    ls = [[_frac(rng, -2, 2) for _ in names] for _ in range(3)]
    lt = [" + ".join(f"({_coeff_text(c)})*{n}" for c, n in zip(l, names)) for l in ls]
    c1, c2 = _frac(rng, 0.5, 3), _frac(rng, 0.5, 3)
    e, s, co, s3 = f"exp({lt[0]})", f"sin({lt[1]})", f"cos({lt[1]})", f"sin({lt[2]})"
    grads = [f"{_coeff_text(c1)}*{e}*(({_coeff_text(ls[0][i])})*{s} + ({_coeff_text(ls[1][i])})*{co})"
             f" - ({_coeff_text(c2 * ls[2][i])})*{s3}" for i in range(2)]
    a_text = form_text(grads, names)
    i = rng.randrange(2)
    k = _frac(rng, 0.5, 2)
    extra = ["0", "0"]
    extra[i] = f"{_coeff_text(k)}*sin({names[1 - i]})"
    text = "\n".join([
        f"vars {', '.join(names)}",
        f"scalar f = {_coeff_text(c1)}*{e}*{s} + {_coeff_text(c2)}*cos({lt[2]})",
        f"form a = {a_text}",
        f"form u = {a_text} + {form_text(extra, names)}",
        f"relation r: d(f) = {a_text}",
        "scalar h = 2*ln(1 + x^2 + y^2) - ln((1 + x^2 + y^2)^2)",
    ])
    ops = [
        {"kind": "parse", "check": lambda: {"decls": ["f", "a", "u", "r", "h"]}},
        _verdict("classify", "a", {"closed": "closed", "exact": "exact"}),
        _verdict("classify", "u", {"closed": "unclosed", "exact": "inexact"}),
        _verdict("relation", "r", "identical"),
        _verdict("is_zero", "h", "zero"),
    ]
    return {"template": "transcendental", "text": text, "points": [], "ops": ops}


def _exp_identity_doc(rng):
    """The exp identities of ROADMAP item 1, at small and at large rates.

    At the large rates the numeric witness mistakes roundoff for a nonzero
    value: a known defect, counted as a failure.
    """
    small = rng.randint(1, 4) * Fraction(1, 4)
    large = rng.randint(9, 12)
    s, l2 = _coeff_text(small), _coeff_text(2 * small)
    text = "\n".join([
        "vars x, y",
        f"scalar zs = exp({s}*x)^2 - exp({l2}*x)",
        f"scalar zl = exp({large}*x)^2 - exp({2 * large}*x)",
        f"scalar zp = exp({s}*x)*exp({s}*y) - exp({s}*x + {s}*y)",
        f"form ks = exp({s}*x)^2*exp({l2}*y)*dx + exp({l2}*x)*exp({s}*y)^2*dy",
        f"form kl = exp({large}*x)^2*exp({2 * large}*y)*dx"
        f" + exp({2 * large}*x)*exp({large}*y)^2*dy",
    ])
    defect = "exp_identity_large_rate"
    ops = [
        {"kind": "parse", "check": lambda: {"decls": ["zs", "zl", "zp", "ks", "kl"]}},
        _verdict("is_zero", "zs", "zero"),
        _verdict("is_zero", "zl", "zero", defect=defect),
        _verdict("is_zero", "zp", "zero"),
        _verdict("classify", "ks", {"closed": "closed", "exact": "exact"}),
        _verdict("classify", "kl", {"closed": "closed", "exact": "exact"}, defect=defect),
    ]
    return {"template": "exp_identity", "text": text, "points": [], "ops": ops}


def _rational_doc(rng):
    """a = d(P/Q) with Q > 0 everywhere; closure needs denominator clearing."""
    names = VARSETS[2]
    denom = rng.randint(2, 6)
    p = random_poly(rng, 2, 2, 3, denom)
    q = poly_add(poly_const(2, 1), {(2, 0): _frac(rng, 0.5, 2), (0, 2): _frac(rng, 0.5, 2)})
    r = poly_add(poly_const(2, 2), {(0, 2): Fraction(1)})
    pt, qt, rt = (poly_text(v, names) for v in (p, q, r))
    coeffs = [f"(({poly_text(poly_diff(p, i), names)})*({qt}) - ({pt})*({poly_text(poly_diff(q, i), names)}))"
              f"/({qt})^2" for i in range(2)]
    text = "\n".join([
        f"vars {', '.join(names)}",
        f"form a = {form_text(coeffs, names)}",
        f"scalar z = ({pt})/({qt}) - ({pt})*({rt})/(({qt})*({rt}))",
        f"scalar nz = ({pt})/({qt}) - ({pt} + 1)/({qt})",
    ])
    ops = [
        {"kind": "parse", "check": lambda: {"decls": ["a", "z", "nz"]}},
        _verdict("classify", "a", {"closed": "closed", "exact": "exact"}),
        _verdict("is_zero", "z", "zero"),
        _verdict("is_zero", "nz", "nonzero"),
    ]
    return {"template": "rational", "text": text, "points": [], "ops": ops}


def _frobenius_doc(rng):
    """g*d(f) is integrable; c*(-y dx + dz) + d(h) is not (w^dw = c(c + h_z))."""
    n, names = 3, VARSETS[3]
    denom = rng.randint(2, 5)
    f = random_poly(rng, 3, 2, 3, denom)
    g = random_poly(rng, 3, 1, 2, denom)
    g = poly_add(g, poly_const(3, 1))
    c = Fraction(rng.randint(1, 6), denom)
    while True:
        h = random_poly(rng, 3, 3, 4, denom)
        hz = poly_diff(h, 2)
        if poly_add(hz, poly_const(3, c)):
            break
    wi = [poly_mul(g, poly_diff(f, i)) for i in range(n)]  # g has three terms
    wn = [poly_add(poly_diff(h, 0), poly_var(3, 1, -c)), poly_diff(h, 1),
          poly_add(poly_diff(h, 2), poly_const(3, c))]
    wi_text = form_text([f"({poly_text(g, names)})*({poly_text(poly_diff(f, i), names)})"
                         for i in range(n)], names)
    wn_text = form_text([poly_text(p, names) for p in wn], names)
    signature = [1, -1, -1]
    rng.shuffle(signature)
    text = "\n".join([
        f"vars {', '.join(names)}",
        f"metric {', '.join('+1' if s > 0 else '-1' for s in signature)}",
        f"form wi = {wi_text}",
        f"form wn = {wn_text}",
    ])
    # *(dx_i) = sign * g_ii * dx^(complement), complement in increasing order
    star = {}
    for i in range(n):
        rest = tuple(k for k in range(n) if k != i)
        perm_sign = -1 if i == 1 else 1
        star[tuple(k + 1 for k in rest)] = poly_scale(wn[i], perm_sign * signature[i])
    ops = [
        {"kind": "parse", "check": lambda: {"decls": ["wi", "wn"]}},
        _verdict("frobenius", "wi", "integrable"),
        _verdict("frobenius", "wn", "nonintegrable"),
        {"kind": "star", "args": ["wn"], "check": lambda: {"coeffs": star}},
        {"kind": "wedge", "args": ["wi", "wi"], "check": lambda: {"coeffs": {}}},
        {"kind": "d", "args": ["wi"], "check": lambda: {"coeffs": {
            (p + 1, q + 1): poly_add(poly_diff(wi[q], p), poly_scale(poly_diff(wi[p], q), -1))
            for p in range(n) for q in range(p + 1, n)}}},
    ]
    return {"template": "frobenius", "text": text, "points": random_points(rng, n), "ops": ops}


def symbolic_block(seed: int, index: int):
    rng = random.Random(seed * 1_000_003 + index)
    return [
        _exact_doc(rng, 2, shared=False),
        _exact_doc(rng, 3, shared=False),
        _exact_doc(rng, 4, shared=False),
        _exact_doc(rng, 2, shared=True),
        _exact_doc(rng, 3, shared=True),
        _power_doc(rng, 2, 8),
        _power_doc(rng, 3, 5),
        _power_doc(rng, 4, 4),
        _transcendental_doc(rng),
        _exp_identity_doc(rng),
        _rational_doc(rng),
        _frobenius_doc(rng),
    ]


def symbolic_pool(seed: int, blocks: int = SYMBOLIC_BLOCKS):
    return [symbolic_block(seed, i) for i in range(blocks)]


# --- numeric workload ---------------------------------------------------------------
#
# One round: a 2-D and a 3-D document, parsed once per round and then
# scanned, integrated and swept.  The same few expressions are evaluated
# 10^4 to 10^6 times per round.  The seed draws coefficients, start points
# and rectangles; step counts and grid sizes are fixed so a round costs the
# same for every seed.


def numeric_round(seed: int):
    rng = random.Random(seed * 1_000_003 + 7)
    a, b = _frac(rng, 1, 2), _frac(rng, 0.5, 1.5)
    cxy = _frac(rng, -0.3, 0.3, 12)
    k = _frac(rng, 0.1, 0.3, 20)
    kt = _frac(rng, 0.5, 2)
    cx, cy = _frac(rng, -0.2, 0.2, 20), _frac(rng, -0.2, 0.2, 20)
    # fixed monomials, drawn coefficients that are never integers and never
    # cancel in d(sp): the Stokes op costs the same for every seed
    while True:
        sp = {m: _frac(rng, -1.3, 1.3, 7) for m in ((2, 1), (1, 2), (0, 2), (1, 0), (0, 1))}
        sq = {m: _frac(rng, -1.3, 1.3, 7) for m in ((2, 1), (2, 0), (1, 1), (1, 0), (0, 1))}
        curl = poly_add(poly_diff(sq, 0), poly_scale(poly_diff(sp, 1), -1))
        if len(curl) == 5 and all(c.denominator != 1 for c in curl.values()):
            break
    k1, k2, k3 = _frac(rng, -1, 1), _frac(rng, 0.5, 2), _frac(rng, 0.5, 2)
    c1, c2, c3 = _frac(rng, 0.5, 2), _frac(rng, 0.5, 2), _frac(rng, -0.5, 0.5)
    kb, kc = _frac(rng, 0.5, 2), _frac(rng, 0.5, 2)
    s1, s2 = _frac(rng, -0.5, 0.5), _frac(rng, -0.5, 0.5)
    names2 = VARSETS[2]
    plane = {
        "p": f"{_coeff_text(a)}*x^2 + {_coeff_text(b)}*y^2 + ({_coeff_text(cxy)})*x*y",
        "q": f"x^2 + y^2 + {_coeff_text(k)}*sin(x*y)",
        "tr": f"y + {_coeff_text(kt)}*x^(5/2)",
        # commutator (x - cx)^2 + (y - cy)^2 - 1/4: a circle crossing grid edges
        "w": [f"-1/3*(y - ({_coeff_text(cy)}))^3", f"1/3*(x - ({_coeff_text(cx)}))^3 - 1/4*x"],
        "sp": [poly_text(sp, names2), poly_text(sq, names2)],
        "se": [f"exp(({_coeff_text(k1)})*x)*sin({_coeff_text(k2)}*y)", f"x*cos({_coeff_text(k3)}*y)"],
    }
    balances = {
        "degenerate": ([f"{_coeff_text(c1)}*y^2 + {_coeff_text(c3)}", f"{_coeff_text(c2 + 2 * c1)}*x*y"],
                       None, "nonidentical", "hyperplane"),
        "consistent": ([f"{_coeff_text(kb)}*y", f"{_coeff_text(kb)}*x"],
                       f"{_coeff_text(kb)}*x*y", "identical", "whole_box"),
        "gradient": ([f"{_coeff_text(kc)}*exp(x)*sin(y)", f"{_coeff_text(kc)}*exp(x)*cos(y)"],
                     None, "identical", "whole_box"),
        "rotation": ([f"y - ({_coeff_text(s1)})", f"-(x - ({_coeff_text(s2)}))"],
                     None, "nonidentical", "empty"),
    }
    plane_text = "\n".join(
        ["vars x, y"]
        + [f"scalar {nm} = {plane[nm]}" for nm in ("p", "q", "tr")]
        + [f"form {nm} = {form_text(plane[nm], names2)}" for nm in ("w", "sp", "se")]
        + [f"balance {nm}: A = ({acts[0]}, {acts[1]})" + (f", psi = {psi}" if psi else "")
           for nm, (acts, psi, _, _) in balances.items()])
    ca, cb = _frac(rng, 0.5, 2), _frac(rng, 0.5, 2)
    cz = _frac(rng, 0.5, 2)
    # the slope cs fixes how many grid edges the plane cs*y = 2z crosses, so it stays fixed
    rs, cs = _frac(rng, 0.2, 0.8), Fraction(5, 7)
    names3 = VARSETS[3]
    space = {
        "contact": [f"-{_coeff_text(ca)}*y", "0", _coeff_text(cb)],
        "axis": ["0", "0", f"{_coeff_text(cz)}*x*y"],
        "shell": [f"x^2 + y^2 + z^2 - {_coeff_text(rs)}", "0", f"{_coeff_text(cs)}*x*y"],
    }
    space_text = "\n".join(["vars x, y, z"]
                           + [f"form {nm} = {form_text(c, names3)}" for nm, c in space.items()])
    x0, y0 = _frac(rng, 0.5, 0.9, 20), _frac(rng, 0.05, 0.5, 20)
    rect = [Fraction(rng.randint(-4, 0), 4), Fraction(rng.randint(1, 4), 4),
            Fraction(rng.randint(-4, 0), 4), Fraction(rng.randint(1, 4), 4)]
    box2, box3 = [(-1.0, 1.0)] * 2, [(-1.0, 1.0)] * 3
    ops = [
        {"kind": "parse", "doc": "plane"},
        {"kind": "parse", "doc": "space"},
        {"kind": "characteristics", "doc": "plane", "scalar": "p",
         "start": [float(x0), 0.0], "steps": 10_000, "h": 1e-3, "truncates": False},
        {"kind": "characteristics", "doc": "plane", "scalar": "q",
         "start": [float(x0), 0.1], "steps": 10_000, "h": 1e-3, "truncates": False},
        {"kind": "characteristics", "doc": "plane", "scalar": "tr",
         "start": [0.8, float(y0)], "steps": 100_000, "h": 1e-4, "truncates": True},
        {"kind": "pseudostructure", "doc": "plane", "form": "w", "box": box2, "grid": 401,
         "locus": "points"},
        {"kind": "pseudostructure", "doc": "space", "form": "contact", "box": box3, "grid": 101,
         "locus": "empty"},
        {"kind": "pseudostructure", "doc": "space", "form": "axis", "box": box3, "grid": 101,
         "locus": "points"},
        {"kind": "pseudostructure", "doc": "space", "form": "shell", "box": box3, "grid": 101,
         "locus": "points"},
        {"kind": "stokes", "doc": "plane", "form": "sp", "rect": [float(v) for v in rect]},
        {"kind": "stokes", "doc": "plane", "form": "se", "rect": [float(v) for v in rect]},
    ] + [
        {"kind": "balance_scan", "doc": "plane", "system": nm, "box": box2, "grid": 401,
         "truth": truth, "locus": locus}
        for nm, (_, _, truth, locus) in balances.items()
    ]
    coefficients = {
        ("plane", nm): plane[nm] for nm in ("w", "sp", "se")
    }
    coefficients.update({("space", nm): c for nm, c in space.items()})
    coefficients.update({("plane", nm): acts for nm, (acts, _, _, _) in balances.items()})
    scalars = {("plane", nm): plane[nm] for nm in ("p", "q", "tr")}
    return {
        "texts": {"plane": plane_text, "space": space_text},
        "names": {"plane": list(names2), "space": list(names3)},
        "decls": {"plane": ["p", "q", "tr", "w", "sp", "se", *balances],
                  "space": list(space)},
        "coefficients": coefficients,
        "scalars": scalars,
        "ops": ops,
    }


# --- CLI corpus ----------------------------------------------------------------------
#
# The invocations of tests/test_cli.py::GOLDEN_RUNS, with paths relative to
# the repository root.  Each runs as its own ``python -m skewforms.cli``
# process and its stdout is compared byte for byte with tests/golden/.

_BASIC = "tests/data/basic2d.forms"
_CONTACT = "tests/data/contact3d.forms"
_BALANCE = "tests/data/balance2d.forms"
_MIXED = "tests/data/mixed_metric.forms"

GOLDEN_RUNS = {
    "d_basic.txt": ("d", _BASIC),
    "wedge_basic.txt": ("wedge", _BASIC, "w", "grad"),
    "star_basic.txt": ("star", _BASIC),
    "star_mixed.txt": ("star", _MIXED),
    "classify_basic.txt": ("classify", _BASIC),
    "relation_basic.txt": ("relation", _BASIC),
    "frobenius_contact.txt": ("frobenius", _CONTACT),
    "characteristics_basic.txt": ("characteristics", _BASIC, "--scalar", "f",
                                  "--start", "1,0", "--steps", "20", "--every", "10"),
    "pseudostructure_balance.txt": ("pseudostructure", _BALANCE, "--name", "omega",
                                    "--grid", "21"),
    "stokes_basic.txt": ("stokes", _BASIC),
    "balance_scan.txt": ("balance-scan", _BALANCE, "--grid", "21"),
    "table_1_2.txt": ("table", "1", "2"),
    "table_3_3.txt": ("table", "3", "3"),
    "classify_basic.jsonl": ("--format", "jsonl", "classify", _BASIC),
    "relation_basic.jsonl": ("--format", "jsonl", "relation", _BASIC),
    "balance_scan.jsonl": ("--format", "jsonl", "balance-scan", _BALANCE, "--grid", "21"),
    "pseudostructure_balance.jsonl": ("--format", "jsonl", "pseudostructure", _BALANCE,
                                      "--name", "omega", "--grid", "21"),
    "table_1_2.jsonl": ("--format", "jsonl", "table", "1", "2"),
}


def cli_round(seed: int, index: int):
    """The golden invocations in a seed-dependent order."""
    order = sorted(GOLDEN_RUNS)
    random.Random(seed * 1_000_003 + index).shuffle(order)
    return order
