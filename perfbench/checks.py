"""Independent checks of the certifier's outputs.

Nothing here imports `affplane`.  Fields are rebuilt from polynomials over
GF(p), planes from incidence sets, and verdicts are compared with what the
theory predicts, so a fault in the program cannot hide in a helper that the
check shares with it.  Every check returns a list of problems; an empty
list means the output is accepted.
"""

from __future__ import annotations

import itertools
from collections import Counter


# ---------------------------------------------------------------------------
# fields from polynomials over GF(p)

def _encode(coeffs, p):
    return sum(c * p ** i for i, c in enumerate(coeffs))


def _poly_rem(num, den, p):
    """Remainder of num by the monic den; coefficient lists, low degree first."""
    num = list(num)
    k = len(den) - 1
    for top in range(len(num) - 1, k - 1, -1):
        c = num[top] % p
        if c:
            for i, d in enumerate(den):
                num[top - k + i] = (num[top - k + i] - c * d) % p
    return [c % p for c in num[:k]] + [0] * max(0, k - len(num))


def is_irreducible(poly, p):
    """Trial division by every monic polynomial of degree 1..deg/2."""
    deg = len(poly) - 1
    for d in range(1, deg // 2 + 1):
        for tail in itertools.product(range(p), repeat=d):
            if not any(_poly_rem(poly, tail + (1,), p)):
                return False
    return True


def smallest_irreducible(p, n):
    """The monic irreducible of degree n that the README names: the first
    when coefficient tuples are compared low degree first."""
    for tail in itertools.product(range(p), repeat=n):
        if is_irreducible(tail + (1,), p):
            return tail + (1,)
    raise ValueError(f"no irreducible of degree {n} over GF({p})")


class OwnField:
    """GF(p^n) as tables, element sum(c_i p^i) <-> polynomial sum(c_i t^i)."""

    def __init__(self, p, n):
        self.p, self.n, self.q = p, n, p ** n
        self.modulus = smallest_irreducible(p, n)
        q = self.q
        digits = [[(e // p ** i) % p for i in range(n)] for e in range(q)]
        self.add = [[_encode([(a + b) % p for a, b in zip(digits[x], digits[y])], p)
                     for y in range(q)] for x in range(q)]
        self.mul = [[0] * q for _ in range(q)]
        for x, y in itertools.product(range(q), repeat=2):
            prod = [0] * (2 * n - 1)
            for i, a in enumerate(digits[x]):
                for j, b in enumerate(digits[y]):
                    prod[i + j] += a * b
            self.mul[x][y] = _encode(_poly_rem(prod, self.modulus, p), p)

    def pow(self, x, k):
        r = 1
        for _ in range(k):
            r = self.mul[r][x]
        return r

    def flat(self, table):
        return tuple(v for row in table for v in row)


def digit_add(p, x, y, sign=1):
    """x + sign*y in the additive group of GF(p^n): digitwise mod p."""
    out, i = 0, 0
    while x or y:
        out += ((x % p + sign * (y % p)) % p) * p ** i
        x, y, i = x // p, y // p, i + 1
    return out


# ---------------------------------------------------------------------------
# quasi-field facts recomputed on plain tables

def seven_flags(add, mul):
    """The seven axiom flags of (add, mul) given as q x q nested lists."""
    q = len(add)
    rng = range(q)
    full = set(rng)
    neg = [next((y for y in rng if add[x][y] == 0), None) for x in rng]
    vw1 = (None not in neg
           and all(add[x][0] == x == add[0][x] for x in rng)
           and all(add[x][y] == add[y][x] for x in rng for y in rng)
           and all(add[add[x][y]][z] == add[x][add[y][z]]
                   for x in rng for y in rng for z in rng))
    vw2 = all({mul[a][x] for x in rng if x} == full - {0}
              and {mul[x][a] for x in rng if x} == full - {0} for a in rng if a)
    vw3 = all(mul[1][x] == x == mul[x][1] and mul[0][x] == 0 == mul[x][0]
              and add[x][0] == x == add[0][x] for x in rng)
    vw4 = all(mul[a][add[x][y]] == add[mul[a][x]][mul[a][y]]
              for a in rng for x in rng for y in rng)
    vw4r = all(mul[add[x][y]][a] == add[mul[x][a]][mul[y][a]]
               for a in rng for x in rng for y in rng)
    vw5 = vw1 and all(len({add[mul[a][x]][neg[mul[b][x]]] for x in rng}) == q
                      for a in rng for b in rng if a != b)
    vw5r = vw1 and all(len({add[mul[x][a]][neg[mul[x][b]]] for x in rng}) == q
                       for a in rng for b in rng if a != b)
    return {"VW1": vw1, "VW2": vw2, "VW3": vw3, "VW4": vw4, "VW5": vw5,
            "VW4-r": vw4r, "VW5-r": vw5r}


class TwistTheory:
    """The twisted multiplications of GF(p^n) over GF(p^d), recomputed:
    norm x^((q-1)/(p^d-1)), Frobenius powers x^(p^(d j)), alpha = phi o norm."""

    def __init__(self, p, n, d):
        self.field = K = OwnField(p, n)
        self.p, self.n, self.d, self.q = p, n, d, K.q
        self.group_order = n // d
        self.frobenius = [[K.pow(x, p ** (d * j)) for x in range(K.q)]
                          for j in range(self.group_order)]
        e = (K.q - 1) // (p ** d - 1)
        self.norm = [0] + [K.pow(x, e) for x in range(1, K.q)]
        self.image = sorted(set(self.norm[1:]))
        self.fixed = [x for x in range(K.q) if K.pow(x, p ** d) == x]
        self.phi_count = self.group_order ** (p ** d - 2)

    def alpha(self, phi):
        return [0] + [phi[self.image.index(self.norm[x])] for x in range(1, self.q)]

    def left_mul(self, phi):
        al, K, fr = self.alpha(phi), self.field, self.frobenius
        return [[K.mul[x][fr[al[x]][y]] for y in range(self.q)] for x in range(self.q)]

    def right_mul(self, phi):
        al, K, fr = self.alpha(phi), self.field, self.frobenius
        return [[K.mul[fr[al[y]][x]][y] for y in range(self.q)] for x in range(self.q)]

    def is_homomorphism(self, phi):
        at = {u: phi[i] for i, u in enumerate(self.image)}
        return all(at[self.field.mul[u][v]] == (at[u] + at[v]) % self.group_order
                   for u in self.image for v in self.image)


def check_twist(theory, phi, side, queries, out):
    """One twisted quasi-field of order 25 or 27, built from scratch."""
    K, q, errs = theory.field, theory.q, []
    if tuple(out["modulus"]) != K.modulus:
        errs.append(f"modulus {out['modulus']} is not {K.modulus}")
    if out["add"] != K.flat(K.add) or out["mul"] != K.flat(K.mul):
        errs.append("field tables differ from the polynomial arithmetic")
    if [list(g) for g in out["perms"]] != theory.frobenius:
        errs.append("Galois group differs from the Frobenius powers")
    if list(out["image"]) != theory.image or len(theory.image) != theory.p ** theory.d - 1:
        errs.append(f"norm image {out['image']} is not {theory.image}")
    if list(out["fixed"]) != theory.fixed:
        errs.append("fixed field differs")
    left = theory.left_mul(phi)
    mul = left if side == "left" else theory.right_mul(phi)
    if out["qadd"] != K.flat(K.add) or out["qmul"] != K.flat(mul):
        errs.append("twisted tables differ from the recomputed ones")
    ternary = tuple(K.add[mul[a][x]][b] for a in range(q) for x in range(q) for b in range(q))
    if out["ternary"] != ternary or not out["validated"]:
        errs.append("linear ternary ring differs or was not validated")
    flags = seven_flags(K.add, mul)
    if out["flags"] != flags:
        errs.append(f"seven flags {out['flags']} differ from {flags}")
    constant = all(e == 0 for e in phi)
    right_dist = flags["VW4-r" if side == "left" else "VW4"]
    if right_dist != constant:
        errs.append("distributivity on the twisted side holds although phi is not 0"
                    if right_dist else "distributivity fails although phi is 0")
    hom = theory.is_homomorphism(phi)
    w = out["assoc"]
    if (w is None) != hom:
        errs.append(f"associativity witness {w} but phi homomorphism={hom}")
    elif w is not None and mul[mul[w[0]][w[1]]][w[2]] == mul[w[0]][mul[w[1]][w[2]]]:
        errs.append(f"associativity witness {w} is not a witness")
    fixed = theory.fixed
    vs = all(mul[mul[x][y]][a] == mul[x][mul[y][a]]
             and mul[K.add[x][y]][a] == K.add[mul[x][a]][mul[y][a]]
             for x in range(q) for y in range(q) for a in fixed)
    if out["vector_space"] != vs:
        errs.append(f"vector-space verdict {out['vector_space']} is not {vs}")
    for (a, b), x in zip(queries, out["quotients"]):
        if left[x][a] != b:
            errs.append(f"right_divide({a}, {b}) = {x} but x (*) a = {left[x][a]}")
            break
    return errs


def check_twist_counts(theory, phis, outputs_by_side):
    """Whole-round facts: the number of phi maps and of associative builds."""
    errs = []
    if (len(phis) != theory.phi_count or len(set(phis)) != len(phis)
            or any(len(f) != len(theory.image) or f[0] != 0 for f in phis)):
        errs.append(f"{len(phis)} phi maps at q={theory.q}, expected {theory.phi_count}")
    expected = sum(theory.is_homomorphism(f) for f in phis)
    for side, outs in outputs_by_side.items():
        found = sum(o["assoc"] is None for o in outs)
        if len(outs) == len(phis) and found != expected:  # failed jobs leave gaps
            errs.append(f"{found} associative {side} builds at q={theory.q}, expected {expected}")
    return errs


# ---------------------------------------------------------------------------
# planes as incidence sets

def plane_of_ring(q, table):
    """Lines (frozensets of x*q+y) of the plane with verticals and y = <ax+b>."""
    lines = {frozenset(x0 * q + y for y in range(q)) for x0 in range(q)}
    for a, b in itertools.product(range(q), repeat=2):
        lines.add(frozenset(x * q + table[(a * q + x) * q + b] for x in range(q)))
    return lines


class OwnPlane:
    """An affine plane given by its lines, with the few incidence queries
    the translation checks need."""

    def __init__(self, lines):
        self.lines = [frozenset(line) for line in lines]
        self.index = {line: i for i, line in enumerate(self.lines)}
        self.n = 1 + max(max(line) for line in self.lines)
        self.through = [[] for _ in range(self.n)]
        for i, line in enumerate(self.lines):
            for p in line:
                self.through[p].append(i)

    def problems(self, q):
        """Order-q affine plane: q^2+q lines of q points, each pair on one line."""
        errs = []
        if self.n != q * q or len(self.lines) != q * q + q or len(self.index) != len(self.lines):
            errs.append(f"{len(self.lines)} distinct lines on {self.n} points, "
                        f"expected {q * q + q} on {q * q}")
        if any(len(line) != q for line in self.lines):
            errs.append("a line does not have q points")
        pairs = Counter(pair for line in self.lines
                        for pair in itertools.combinations(sorted(line), 2))
        if len(pairs) != q * q * (q * q - 1) // 2 or any(c != 1 for c in pairs.values()):
            errs.append("some point pair is not on exactly one line")
        return errs

    def join(self, p1, p2):
        return next(i for i in self.through[p1] if p2 in self.lines[i])

    def parallel(self, li, p):
        if p in self.lines[li]:
            return li
        return next(m for m in self.through[p] if not self.lines[m] & self.lines[li])

    def meet(self, l1, l2):
        (p,) = self.lines[l1] & self.lines[l2]
        return p

    def is_translation(self, perm):
        """Bijective, lines onto parallel lines, and no fixed point."""
        if sorted(perm) != list(range(self.n)) or any(perm[p] == p for p in range(self.n)):
            return False
        for line in self.lines:
            image = frozenset(perm[p] for p in line)
            if image not in self.index or (image != line and image & line):
                return False
        return True

    def parallelogram_candidate(self, z, z2):
        """The only map that can be a translation taking z to z2: p off the
        line zz2 goes to the fourth corner of the parallelogram on z, z2, p;
        p on it is routed through the smallest point off it."""
        L = self.join(z, z2)
        perm = [None] * self.n
        for p in range(self.n):
            if p not in self.lines[L]:
                perm[p] = self.meet(self.parallel(self.join(z, p), z2), self.parallel(L, p))
        aux = min(p for p in range(self.n) if p not in self.lines[L])
        for p in self.lines[L]:
            perm[p] = z2 if p == z else self.meet(
                self.parallel(self.join(aux, p), perm[aux]), L)
        return perm


def parse_coll(text):
    """A COLL 1 file: header, `points <n>`, then n lines `i -> p`."""
    rows = text.split("\n")
    if rows[0] != "COLL 1" or not rows[1].startswith("points ") or rows[-1] != "":
        return None
    n = int(rows[1].split()[1])
    body = rows[2:-1]
    if len(body) != n or any(r.split(" -> ")[0] != str(i) for i, r in enumerate(body)):
        return None
    return [int(r.split(" -> ")[1]) for r in body]


def check_geometry(q, p, ring, left, frames, pairs, out):
    """One order-q plane through build, APLANE round trip, coordinatization
    and translations; `ring` is the flat table the plane was built from."""
    errs = []
    if out["build"] != (0, f"wrote plane with {q * q} points, {q * q + q} lines"):
        errs.append(f"afp plane build reported {out['build']}")
    if not out["round_trip_equal"]:
        errs.append("APLANE write-read-write is not byte-stable")
    P = OwnPlane(out["lines"])
    not_a_plane = P.problems(q)
    if not_a_plane:
        return errs + not_a_plane
    if set(P.lines) != plane_of_ring(q, ring):
        errs.append("read-back plane is not the plane of the ring")
    for (l, m, z), (table, point_of) in zip(frames, out["coords"]):
        if sorted(point_of) != list(range(q * q)):
            errs.append(f"frame {(l, m, z)}: point map is not a bijection")
            continue
        mapped = {frozenset(point_of[c] for c in line) for line in plane_of_ring(q, table)}
        if mapped != set(P.lines):
            errs.append(f"frame {(l, m, z)}: mapped plane of the ring is not the plane")
        axes = (frozenset(point_of[x * q] for x in range(q)), frozenset(point_of[:q]))
        if axes != (P.lines[l], P.lines[m]) or point_of[q + 1] != z:
            errs.append(f"frame {(l, m, z)}: axes or unit point not where the frame puts them")
    if out["coords"] and out["coords"][0][0] != ring:
        errs.append("the canonical frame does not return the source ring")
    for (z, z2), (code, stdout, coll) in zip(pairs, out["translations"]):
        verdict = stdout.split("\n")[0]
        if code != 0 or verdict not in ("found", "absent"):
            errs.append(f"afp translate {z}->{z2}: exit {code}, output {stdout!r}")
        elif verdict == "found":
            perm = parse_coll(coll or "")
            (x0, y0), (x1, y1) = divmod(z, q), divmod(z2, q)
            c, d = digit_add(p, x1, x0, -1), digit_add(p, y1, y0, -1)
            shift = [digit_add(p, x, c) * q + digit_add(p, y, d)
                     for x in range(q) for y in range(q)]
            if perm is None or perm[z] != z2 or not P.is_translation(perm):
                errs.append(f"translate {z}->{z2}: COLL map is not a translation taking z to z2")
            elif "fixed-point-free: True" not in stdout:
                errs.append(f"translate {z}->{z2}: not reported fixed-point-free")
            elif left and perm != shift:
                errs.append(f"translate {z}->{z2}: not the shift by ({c}, {d})")
        elif P.is_translation(P.parallelogram_candidate(z, z2)):
            errs.append(f"translate {z}->{z2}: absent, but the parallelogram map is a translation")
    return errs


# ---------------------------------------------------------------------------
# search verdicts

def relabel(q, table, perm):
    """Transport a ternary table along a carrier permutation fixing 0 and 1."""
    out = [0] * q ** 3
    for a, x, b in itertools.product(range(q), repeat=3):
        out[(perm[a] * q + perm[x]) * q + perm[b]] = perm[table[(a * q + x) * q + b]]
    return tuple(out)


def check_isotopism(q, T, U, same_plane, out):
    """Found exactly for two rings of one plane; a found (F, G, H) must
    satisfy H(<ax+b>) = <F(a)G(x)+H(b)> on all q^3 triples."""
    if out is None:
        return ["isotopism absent between rings of one plane"] if same_plane else []
    if not same_plane:
        return ["isotopism found between rings of non-isomorphic planes"]
    F, G, H = out
    full = list(range(q))
    if sorted(F) != full or sorted(G) != full or sorted(H) != full or H[0] != 0:
        return ["isotopism components are not bijections with H(0) = 0"]
    bad = next(((a, x, b) for a, x, b in itertools.product(range(q), repeat=3)
                if H[T[(a * q + x) * q + b]] != U[(F[a] * q + G[x]) * q + H[b]]), None)
    return [f"isotopism identity fails at {bad}"] if bad else []


def check_classification(q, T, reference, desarguesian, out):
    """Desarguesian exactly when theory says so; a found isomorphism must
    fix 0 and 1 and carry T onto the field's ring on all q^3 triples."""
    verdict, perm, reason = out
    expected = "desarguesian" if desarguesian else "non-desarguesian"
    if verdict != expected:
        return [f"verdict {verdict}, expected {expected}"]
    if not desarguesian:
        return [] if perm is None and reason == "search-exhausted" else [f"reason {reason}"]
    if reason != "isomorphism-found" or sorted(perm) != list(range(q)) or perm[:2] != (0, 1):
        return ["isomorphism certificate is not a bijection fixing 0 and 1"]
    bad = next(((a, x, b) for a, x, b in itertools.product(range(q), repeat=3)
                if perm[T[(a * q + x) * q + b]]
                != reference[(perm[a] * q + perm[x]) * q + perm[b]]), None)
    return [f"isomorphism identity fails at {bad}"] if bad else []


def field_ring(K):
    """The linear ternary ring <ax+b> = ax + b of an OwnField."""
    r = range(K.q)
    return tuple(K.add[K.mul[a][x]][b] for a in r for x in r for b in r)
