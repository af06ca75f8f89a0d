"""Reference versions of the isomorphism search and of its leaf check.

`find_isomorphism` is the backtracking search that assigned 2..q-1 in
carrier order, pruned with the triples over the elements assigned so far
and verified every leaf on all q^3 triples.  `isomorphism_failure` is the
leaf check that mapped T through the map and gathered each of U's rows,
row by row.  Both are kept only so that the tests can require
`affplane.find_isomorphism` to return the same map (or None), and
`affplane.ternary.isomorphism_failure` the same triple (or None), on
every input they give them.
"""

from operator import itemgetter

from affplane.errors import InputError, SearchBoundExceeded

def isomorphism_failure(T, U, perm):
    """First failing triple of the isomorphism identity, or None.

    Per (a, x), the b-row of T mapped through perm must equal U's b-row
    at (perm(a), perm(x)) gathered at perm; single entries are read only
    in a row that differs.  T is mapped one a-block of q^2 entries at a
    time, so a map that fails early costs little of the q^3.
    """
    q, t, u = T.q, T.table, U.table
    qq = q * q
    gather = itemgetter(*perm)
    for a, pa in enumerate(perm):
        image = tuple(map(perm.__getitem__, t[a * qq:(a + 1) * qq]))
        for x, px in enumerate(perm):
            i, j = x * q, (pa * q + px) * q
            left, right = image[i:i + q], gather(u[j:j + q])
            if left != right:
                return (a, x, next(b for b in range(q) if left[b] != right[b]))
    return None


# the backtracking search tries up to (q - 2)! maps: it is run at q <= 16
SEARCH_BOUND = 16


def find_isomorphism(T, U):
    """Backtracking search for an isomorphism T -> U.

    Elements 2..q-1 are assigned in carrier order with candidate images
    tried in increasing order.  The pruning only drops assignments that no
    isomorphism extends, and every leaf is verified on all q^3 triples, so
    the first hit is the lexicographically smallest isomorphism.  Absence
    is certified by exhausting the pruned search space.
    """
    if T.q != U.q:
        raise InputError("carrier sizes differ")
    q = T.q
    if q > SEARCH_BOUND:
        raise SearchBoundExceeded(f"isomorphism search supports q <= {SEARCH_BOUND}")

    perm = [0, 1] + [-1] * (q - 2)
    used = [False] * q
    used[0] = used[1] = True

    t, u = T.table, U.table

    def consistent(e):
        # all triples within {0..e} that involve the newly assigned e
        rng = range(e + 1)
        for a in rng:
            for x in rng:
                i, j = (a * q + x) * q, (perm[a] * q + perm[x]) * q
                for b in (rng if e in (a, x) else (e,)):
                    v, w = t[i + b], u[j + perm[b]]
                    if v <= e:
                        if perm[v] != w:
                            return False
                    elif used[w]:
                        # v must map to w later, but w is already taken
                        return False
        return True

    def search(e):
        if e == q:
            # the pruning never rechecks a triple whose value is assigned
            # later, nor the triples over {0, 1}: verify the leaf in full
            return isomorphism_failure(T, U, perm) is None
        for img in range(2, q):
            if used[img]:
                continue
            perm[e] = img
            used[img] = True
            if consistent(e) and search(e + 1):
                return True
            used[img] = False
        perm[e] = -1
        return False

    if search(2):
        return tuple(perm)
    return None
