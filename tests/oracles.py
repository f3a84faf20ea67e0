"""Brute-force and scalar reference implementations the tests compare the
package against.  They are slow on purpose: each does the plain thing."""
import numpy as np

from ftdesigns.bsgs import bsgs_build
from ftdesigns.errors import InputError
from ftdesigns.perm import Permutation, compose, identity


def element_closure(gens, degree=None, limit=2_000_000):
    """Brute-force closure of a generating set (breadth-first products);
    raises when the closure would exceed ``limit`` elements."""
    gens = [g for g in gens if not g.is_identity()]
    if degree is None:
        if not gens:
            raise InputError("empty generator list needs an explicit degree")
        degree = gens[0].degree
    ident = identity(degree)
    elements = {ident}
    frontier = [ident]
    while frontier:
        new = []
        for p in frontier:
            for g in gens:
                q = compose(p, g)
                if q not in elements:
                    if len(elements) >= limit:
                        raise InputError(f"closure exceeds {limit} elements")
                    elements.add(q)
                    new.append(q)
        frontier = new
    return elements


def canonical_rep(hchain, images):
    """Minimal image-tuple representative of the coset H * (permutation
    with the given images), one level and one orbit point at a time."""
    u = images
    for lvl in hchain.levels:
        if len(lvl.orbit) == 1:
            continue
        x_star = min(lvl.orbit, key=lambda x: u[x])
        if x_star != lvl.point:
            u = u[lvl.transversal[x_star].images]
    return u


def coset_action_images(G, H_gens):
    """Images of G's strong generators and of H_gens on the right cosets
    of H, labelled by a first-in first-out queue of canonical reps, one
    coset and one generator at a time."""
    degree = G.degree
    hchain = bsgs_build(H_gens, degree, base_hint=range(degree))
    gens = G.strong_generators()
    reps = [canonical_rep(hchain, np.arange(degree, dtype=np.int64))]
    keys = {reps[0].tobytes(): 0}
    images = [[] for _ in gens]
    q = 0
    while q < len(reps):
        r = reps[q]
        q += 1
        for gi, g in enumerate(gens):
            canon = canonical_rep(hchain, g.images[r])
            key = canon.tobytes()
            if key not in keys:
                keys[key] = len(reps)
                reps.append(canon)
            images[gi].append(keys[key])

    def hom(g):
        return Permutation([keys[canonical_rep(hchain, g.images[r]).tobytes()]
                            for r in reps])

    return [Permutation(img) for img in images], [hom(h) for h in H_gens]
