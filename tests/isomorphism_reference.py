"""Reference version of the isomorphism search.

`find_isomorphism` is the backtracking search that assigned 2..q-1 in
carrier order, pruned with the triples over the elements assigned so far
and verified every leaf on all q^3 triples.  It is kept only so that the
tests can require `affplane.find_isomorphism` to return the same map (or
None) on every input they give it.
"""

from affplane.errors import InputError, SearchBoundExceeded
from affplane.ternary import isomorphism_failure

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
