"""Independent correctness oracles for the benchmark's operations.

Nothing here imports ``towerbound``: every expected value is recomputed from
first principles (trial division, naive multiplicative orders, root scans,
complex evaluation, small hand-written finite-field arithmetic), so a defect
in the package cannot hide behind the same defect in its own check.

Each ``check_*`` function takes what an operation produced and returns
``None`` when the output is right, or a one-line reason when it is not.
"""

from __future__ import annotations

import cmath
import json
import math
from functools import lru_cache

# ---------------------------------------------------------------------------
# integers
# ---------------------------------------------------------------------------

_SMALL = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]


def _extend_small(limit: int) -> None:
    n = _SMALL[-1] + 2
    while _SMALL[-1] < limit:
        if all(n % p for p in _SMALL if p * p <= n):
            _SMALL.append(n)
        n += 2


def is_prime(n: int) -> bool:
    """Trial division by the primes up to sqrt(n)."""
    if n < 2:
        return False
    _extend_small(math.isqrt(n) + 1)
    for p in _SMALL:
        if p * p > n:
            return True
        if n % p == 0:
            return n == p
    return True


def order_mod(a: int, m: int) -> int:
    """Multiplicative order of a modulo m by repeated multiplication."""
    if m == 1:
        return 1
    if math.gcd(a, m) != 1:
        raise ValueError("not a unit")
    x, k = a % m, 1
    while x != 1:
        x = x * a % m
        k += 1
    return k


@lru_cache(maxsize=None)
def phi(m: int) -> int:
    return sum(1 for k in range(1, m + 1) if math.gcd(k, m) == 1)


@lru_cache(maxsize=None)
def _generators(m: int) -> frozenset[int]:
    """Residues whose order modulo m is phi(m); empty when (Z/m)* is not cyclic."""
    ph = phi(m)
    return frozenset(
        r for r in range(1, m + 1) if math.gcd(r, m) == 1 and order_mod(r, m) == ph
    )


def unit_group_is_cyclic(m: int) -> bool:
    return bool(_generators(m))


def _inert(q: int, m: int) -> bool:
    """q prime generates (Z/m)*; conductors 1 and 2 accept every prime."""
    if m <= 2:
        return True
    return m % q != 0 and (q % m) in _generators(m)


class _Sequence:
    """Ascending primes with a property, extended on demand and shared by all ops."""

    def __init__(self, accept) -> None:
        self.accept = accept
        self.items: list[int] = []
        self.next = 2

    def first(self, count: int) -> list[int]:
        while len(self.items) < count:
            n = self.next
            self.next += 1
            if is_prime(n) and self.accept(n):
                self.items.append(n)
        return self.items[:count]


_SEQUENCES: dict[object, _Sequence] = {}


def first_primes(key, accept, count: int, exclude: frozenset[int] = frozenset()) -> list[int]:
    """First ``count`` primes q with ``accept(q)``, skipping ``exclude``; cached under ``key``."""
    seq = _SEQUENCES.get(key)
    if seq is None:
        seq = _SEQUENCES[key] = _Sequence(accept)
    return [q for q in seq.first(count + len(exclude)) if q not in exclude][:count]


def inert_primes(m: int, count: int, exclude: frozenset[int] = frozenset()) -> list[int]:
    """First ``count`` primes inert in Q(zeta_m), skipping ``exclude``."""
    return first_primes(("inert", m), lambda q: _inert(q, m), count, exclude)


# ---------------------------------------------------------------------------
# integer polynomials (constant term first)
# ---------------------------------------------------------------------------


def _pmul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _pdiv_exact(a: list[int], b: list[int]) -> list[int]:
    """Exact division by a monic polynomial b."""
    a = list(a)
    quo = [0] * (len(a) - len(b) + 1)
    for s in range(len(quo) - 1, -1, -1):
        c = a[s + len(b) - 1]
        quo[s] = c
        for i, bc in enumerate(b):
            a[s + i] -= c * bc
    if any(a):
        raise ArithmeticError("inexact division")
    return quo


@lru_cache(maxsize=None)
def cyclotomic_coeffs(m: int) -> tuple[int, ...]:
    """Phi_m as the quotient of x^m - 1 by Phi_d for the proper divisors d."""
    num = [-1] + [0] * (m - 1) + [1]
    den = [1]
    for d in range(1, m):
        if m % d == 0:
            den = _pmul(den, list(cyclotomic_coeffs(d)))
    return tuple(_pdiv_exact(num, den))


def cubic_disc(poly: tuple[int, ...]) -> int:
    """Discriminant of the monic cubic d + c x + b x^2 + x^3."""
    d, c, b, a = poly
    return 18 * a * b * c * d - 4 * b**3 * d + b * b * c * c - 4 * a * c**3 - 27 * a * a * d * d


def has_root_mod(poly: tuple[int, ...], q: int) -> bool:
    """Naive scan of every residue for a root of ``poly`` modulo q."""
    for x in range(q):
        acc = 0
        for c in reversed(poly):
            acc = (acc * x + c) % q
        if acc == 0:
            return True
    return False


def irreducible_mod_q(poly: tuple[int, ...], q: int) -> bool:
    """Monic ``poly`` (constant term first) over Z/qZ has no monic factor of
    degree 1 .. deg/2, by trial division by every such polynomial."""
    n = len(poly) - 1
    for d in range(1, n // 2 + 1):
        for code in range(q**d):
            div = [code // q**i % q for i in range(d)] + [1]
            rem = [c % q for c in poly]
            for k in range(n, d - 1, -1):  # monic divisor: subtract rem[k] * x^(k-d) * div
                c = rem[k]
                if c:
                    for i in range(d + 1):
                        rem[k - d + i] = (rem[k - d + i] - c * div[i]) % q
            if not any(rem[:d]):
                return False
    return True


# ---------------------------------------------------------------------------
# parsing the CLI's text and JSON documents
# ---------------------------------------------------------------------------


def _after(text: str, prefix: str) -> str:
    for line in text.splitlines():
        s = line.strip()
        if s.startswith(prefix):
            return s[len(prefix):]
    raise ValueError(f"no line starting with {prefix!r}")


def _int_list(s: str) -> list[int]:
    return [int(t) for t in s.split(",")] if s.strip() else []


def _text_rows(lines: list[str], start: int) -> tuple[list[list[int]], int]:
    """Certificate table rows after the header found at or after ``start``."""
    i = start
    while not lines[i].strip().startswith("layer "):
        i += 1
    rows = []
    i += 2  # header and dashes
    while i < len(lines) and lines[i].strip():
        rows.append([int(c) for c in lines[i].split()])
        i += 1
    return rows, i


def _json_rows(rows: list[dict]) -> list[list[int]]:
    keys = ("layer", "ramified_places", "layer_degree", "ambiguous_bound", "class_rank_bound")
    return [[int(r[k]) for k in keys] for r in rows]


def _rows_ok(rows: list[list[int]], t: int, d0: int, p: int, n_max: int) -> str | None:
    """Rows follow the closed form: ramified T p^n, degree d0 p^n, rank max(T-d0,0) p^n."""
    if len(rows) != n_max + 1:
        return f"{len(rows)} certificate rows, expected {n_max + 1}"
    pn = 1
    for n, row in enumerate(rows):
        want = [n, t * pn, d0 * pn, max(t - d0, 0) * pn, max(t - d0, 0) * pn]
        if row[:5] != want:
            return f"certificate row {n} is {row[:5]}, closed form gives {want}"
        pn *= p
    return None


# ---------------------------------------------------------------------------
# per-operation checks
# ---------------------------------------------------------------------------


def check_construct(out: str, as_json: bool, *, primes: list[int], t: int, d0: int,
                    p: int, n_max: int, roots_mod: int | None) -> str | None:
    """A construct run selected ``primes`` and certifies the closed-form rows.

    ``roots_mod`` is the base conductor when places carry roots (relative
    base): the places must then list, for each prime q in turn, the roots of
    Phi_roots_mod modulo q in ascending order.
    """
    if as_json:
        doc = json.loads(out)
        plan = doc["plan"]
        got = plan["selected_primes"]
        alpha = int(plan["alpha"])
        rows = _json_rows(doc["certificate"]["rows"])
        if plan["ramified_target"] != t:
            return f"ramified target {plan['ramified_target']}, expected {t}"
        if roots_mod is not None:
            places = [(pl["q"], pl["root"]) for pl in plan["selected_places"]]
            want = [(q, r) for q in got for r in primitive_roots_of_unity(roots_mod, q)]
            if places != want:
                return f"places are not the ascending roots of Phi_{roots_mod} mod each prime"
    else:
        got = _int_list(_after(out, "selected primes").split(":", 1)[1])
        head, alpha_s = _after(out, "alpha (").split(":", 1)
        alpha = int(alpha_s)
        if int(head.split()[0]) != len(alpha_s.strip()):
            return "stated alpha digit count is wrong"
        rows, _ = _text_rows(out.splitlines(), 0)
    if got != primes:
        return f"selected primes differ from the naive enumeration (got {len(got)}, want {len(primes)})"
    prod = 1
    for q in primes:
        prod *= q
    if alpha != prod:
        return "alpha is not the product of the selected primes"
    return _rows_ok(rows, t, d0, p, n_max)


def check_inert_primes(out: str, as_json: bool, *, primes: list[int]) -> str | None:
    if as_json:
        got = json.loads(out)["primes"]
    else:
        got = _int_list(out.split(":", 1)[1])
    if got != primes:
        return f"inert primes differ from the naive enumeration (got {len(got)}, want {len(primes)})"
    return None


def check_certificate(out: str, as_json: bool, *, t: int, d0: int, p: int, n_max: int) -> str | None:
    if as_json:
        rows = _json_rows(json.loads(out)["rows"])
    else:
        rows, _ = _text_rows(out.splitlines(), 0)
    return _rows_ok(rows, t, d0, p, n_max)


def check_reproduce(out: str, as_json: bool, *, fixtures: list[tuple[int, int, int]],
                    n_max: int) -> str | None:
    """Every reproduced example passes and its rows follow the closed form."""
    if as_json:
        doc = json.loads(out)
        runs = doc["runs"] if "runs" in doc else [doc]
        results = [r["result"] for r in runs]
        tables = [_json_rows(r["certificate"]["rows"]) for r in runs]
    else:
        lines = out.splitlines()
        results = [ln.split(":", 1)[1].strip() for ln in lines if ln.startswith("result:")]
        tables, i = [], 0
        for _ in fixtures:
            rows, i = _text_rows(lines, i)
            tables.append(rows)
    if len(results) != len(fixtures) or any(r not in ("pass", "pass-with-warnings") for r in results):
        return f"reproduction results {results}"
    for rows, (t, d0, p) in zip(tables, fixtures):
        bad = _rows_ok(rows, t, d0, p, n_max)
        if bad:
            return bad
    return None


# -- cyclotomic factor checks ---------------------------------------------


def zeta_value(terms: dict[int, int], m: int) -> complex:
    """Value of sum c_e zeta^e at zeta = exp(2 pi i / m)."""
    return sum(c * cmath.exp(2j * math.pi * e / m) for e, c in terms.items())


def factor_verdict(factors: list[dict[int, int]], m: int, target: int) -> str:
    """exact / unit / mismatch by complex evaluation at one embedding.

    An embedding of Q(zeta_m) into C is injective, so the product equals
    +-target*zeta^k exactly when its image does; the tolerance is far below
    the gap any of the benchmark's factor sets leaves.
    """
    prod = 1 + 0j
    for f in factors:
        prod *= zeta_value(f, m)
    tol = 1e-7 * max(1.0, abs(target))
    if abs(prod - target) < tol:
        return "exact"
    for k in range(m):
        z = cmath.exp(2j * math.pi * k / m) * target
        if abs(prod - z) < tol or abs(prod + z) < tol:
            return "unit"
    return "mismatch"


def _prime_factors(n: int) -> list[int]:
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    return out + [n] if n > 1 else out


@lru_cache(maxsize=None)
def primitive_roots_of_unity(m: int, q: int) -> tuple[int, ...]:
    """The residues of exact order m modulo a prime q = 1 (mod m), ascending."""
    fac = _prime_factors(q - 1)
    g = next(g for g in range(2, q) if all(pow(g, (q - 1) // r, q) != 1 for r in fac))
    w = pow(g, (q - 1) // m, q)
    return tuple(sorted(pow(w, k, q) for k in range(1, m + 1) if math.gcd(k, m) == 1))


@lru_cache(maxsize=None)
def _split_primes(m: int, count: int = 3, start: int = 1000) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """``count`` primes l = 1 mod m above ``start``, each with the phi(m) roots of Phi_m mod l."""
    out = []
    n = start - start % m + 1
    while len(out) < count:
        if n > start and is_prime(n):
            out.append((n, primitive_roots_of_unity(m, n)))
        n += m
    return tuple(out)


def norm_mod(terms: dict[int, int], m: int, ell: int, roots: tuple[int, ...]) -> int:
    """N(a) mod l as the product of a(w) over the roots w of Phi_m mod l."""
    acc = 1
    for w in roots:
        acc = acc * sum(c * pow(w, e, ell) for e, c in terms.items()) % ell
    return acc


def check_factorization(out: str, as_json: bool, code: int, *, factors: list[dict[int, int]],
                        m: int, target: int, verdict: str) -> str | None:
    if factor_verdict(factors, m, target) != verdict:
        return f"complex evaluation does not give the constructed verdict {verdict}"
    if as_json:
        doc = json.loads(out)
        status = doc["status"]
        norms = [int(n) for n in doc["factor_norms"]]
    else:
        status = _after(out, "status:").strip()
        norms = _int_list(_after(out, "factors:").split("norms:", 1)[1].rstrip(")"))
    if status != verdict:
        return f"status {status}, expected {verdict}"
    if code != (1 if verdict == "mismatch" else 0):
        return f"exit code {code} for verdict {verdict}"
    if len(norms) != len(factors):
        return "wrong number of norms"
    for ell, roots in _split_primes(m):
        for n, f in zip(norms, factors):
            if n % ell != norm_mod(f, m, ell, roots):
                return f"norm {n} disagrees modulo the split prime {ell}"
    return None


# -- finite fields ---------------------------------------------------------


class SmallField:
    """F_{q^f} with elements coded as ints sum c_i q^i, by explicit tables.

    ``generator`` is a monic polynomial of degree f over F_q (constant term
    first), given for f > 1; its irreducibility is checked here by trial
    division, and the tables are filled by schoolbook multiplication modulo it.
    """

    def __init__(self, q: int, f: int, generator: tuple[int, ...] | None) -> None:
        if f > 1 and (len(generator) != f + 1 or generator[-1] != 1
                      or not irreducible_mod_q(generator, q)):
            raise ValueError(f"{generator} is not a monic irreducible of degree {f} mod {q}")
        self.q, self.f, self.size = q, f, q**f
        size = self.size
        digits = [self._digits(x) for x in range(size)]
        self.add = [[self._code([(a + b) % q for a, b in zip(digits[x], digits[y])])
                     for y in range(size)] for x in range(size)]
        self.mul = [[self._code(self._mulpoly(digits[x], digits[y], generator))
                     for y in range(size)] for x in range(size)]
        self.neg = [self._code([-a % q for a in digits[x]]) for x in range(size)]

    def _digits(self, x: int) -> list[int]:
        out = []
        for _ in range(self.f):
            out.append(x % self.q)
            x //= self.q
        return out

    def _code(self, d: list[int]) -> int:
        x = 0
        for c in reversed(d):
            x = x * self.q + c
        return x

    def _mulpoly(self, a: list[int], b: list[int], gen: tuple[int, ...] | None) -> list[int]:
        q, f = self.q, self.f
        conv = [0] * (2 * f - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                conv[i + j] += x * y
        for k in range(2 * f - 2, f - 1, -1):  # y^k = y^(k-f) * (y^f - gen)
            c = conv[k] % q
            if c:
                for i in range(f + 1):
                    conv[k - f + i] -= c * gen[i]
        return [c % q for c in conv[:f]]

    def eval(self, poly: list[int], x: int) -> int:
        acc = 0
        for c in reversed(poly):
            acc = self.add[self.mul[acc][x]][c]
        return acc


def irreducible_by_search(K: SmallField, poly: list[int]) -> bool:
    """Monic ``poly`` of degree 2..4 over K: no root, and for degree 4 no quadratic factor.

    A monic quartic x^4 + a3 x^3 + a2 x^2 + a1 x + a0 splits as
    (x^2 + s x + t)(x^2 + u x + v) exactly when u = a3 - s, v = a2 - t - s u,
    a1 = s v + t u and a0 = t v for some s, t; the search tries every (s, t).
    """
    n = len(poly) - 1
    if any(K.eval(poly, x) == 0 for x in range(K.size)):
        return False
    if n <= 3:
        return True
    a0, a1, a2, a3 = poly[:4]
    add, mul, neg = K.add, K.mul, K.neg
    for s in range(K.size):
        u = add[a3][neg[s]]
        su = mul[s][u]
        for t in range(K.size):
            v = add[add[a2][neg[t]]][neg[su]]
            if add[mul[s][v]][mul[t][u]] == a1 and mul[t][v] == a0:
                return False
    return True
