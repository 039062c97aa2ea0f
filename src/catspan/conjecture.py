"""Data-driven matcher: is a supplied subgroup family GL-equivalent to the
odd-part collection?

The searched group is GL(d, 2) with d <= 5, walked by a depth-first scan in
ascending row order, so the first hit is the lexicographically least witness
(rows compared as integers under the package bit convention).  A cheap
GL-invariant fingerprint rejects most mismatches before the walk starts,
and partial-image multisets on the rank-1 members prune inside it.
"""

from __future__ import annotations

import json
from collections import Counter
from pathlib import Path
from typing import NamedTuple

from .gf2 import Subspace, mask_to_string, span_masks, subspace_key
from .slots import COLLECTION, members

__all__ = ["SuppliedFamily", "MatchResult", "load_family", "fingerprint", "gl_match", "collection_as_plain"]

MAX_RANK = 5  # |GL(6,2)| is already out of desk range


class SuppliedFamily(NamedTuple):
    """Subgroups of F_2^d, canonicalized and sorted on load."""

    d: int
    subgroups: tuple[Subspace, ...]


class MatchResult(NamedTuple):
    found: bool
    witness: tuple[int, ...] | None
    tried: int
    reason: str | None = None

    def to_json(self, d: int) -> dict:
        """The witness rows as bitstrings of length d, or None."""
        witness = None if self.witness is None else [mask_to_string(r, d) for r in self.witness]
        return {"found": self.found, "witness": witness, "tried": self.tried}


def load_family(path: str | Path) -> SuppliedFamily:
    """Read {"d": int, "subgroups": [[bitstring, ...], ...]} from a JSON file."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict) or "d" not in data or "subgroups" not in data:
        raise ValueError("family file needs keys 'd' and 'subgroups'")
    d = data["d"]
    if not isinstance(d, int) or isinstance(d, bool) or d < 1:
        raise ValueError(f"bad rank {d!r}")
    subgroups = data["subgroups"]
    if not isinstance(subgroups, list) or not all(isinstance(g, list) for g in subgroups):
        raise ValueError("'subgroups' must be a list of bases, each a list of bitstrings")
    members = [Subspace.from_json({"D": d, "basis": gens}) for gens in subgroups]
    if len(set(members)) != len(members):
        raise ValueError("duplicate subgroups after canonicalization")
    return SuppliedFamily(d, tuple(sorted(members, key=subspace_key)))


def _vector_set(E: Subspace) -> int:
    """The 2^dim vectors of E as one mask of 2^n bits, bit v for vector v."""
    vs = [0]
    for r in E.rows:
        vs += [v ^ r for v in vs]
    return sum(1 << v for v in vs)


def fingerprint(subgroups) -> tuple:
    """GL-invariant signature: dimension multiset plus containment profile,
    B containing A read off their vector sets as a & b == a."""
    ms = list(subgroups)
    for E in ms:
        if E.n != ms[0].n:
            raise ValueError(f"dimension mismatch: {ms[0].n} vs {E.n}")
    sets = [(E.dim, _vector_set(E)) for E in ms]
    dims = tuple(sorted(E.dim for E in ms))
    profile = tuple(sorted((k, sum(1 for _, b in sets if a & b == a and a != b)) for k, a in sets))
    return (dims, profile)


def _compress_odd(m: int) -> int:
    out = 0
    t = 0
    while m:
        out |= (m & 1) << t
        m >>= 2
        t += 1
    return out


def collection_as_plain(d: int) -> frozenset[Subspace]:
    """The odd-part collection at ambient 2d, rewritten in F_2^d coordinates
    (e_{2k-1} becomes the k-th coordinate)."""
    return frozenset(span_masks(map(_compress_odd, E.rows), d) for E in members(COLLECTION, 2 * d))


def _apply(rows: list[int], m: int) -> int:
    out = 0
    for r, row in enumerate(rows):
        out |= ((row & m).bit_count() & 1) << r
    return out


def gl_match(fam: SuppliedFamily) -> MatchResult:
    """Search GL(d, 2) for a matrix carrying the family onto the collection."""
    d = fam.d
    if not 1 <= d <= MAX_RANK:
        raise ValueError(f"rank {d} outside [1, {MAX_RANK}]")
    target = collection_as_plain(d)
    fam_set = frozenset(fam.subgroups)
    if len(fam_set) != len(target):
        return MatchResult(False, None, 0, f"size {len(fam_set)} != {len(target)}")
    if fingerprint(fam_set) != fingerprint(target):
        return MatchResult(False, None, 0, "fingerprint mismatch")

    # rank-1 generators drive the in-walk pruning: after r rows the first r
    # output coordinates of each image are fixed and their multiset must
    # agree with the target's prefixes
    gens = sorted(E.rows[0] for E in fam_set if E.dim == 1)
    t1 = [E.rows[0] for E in target if E.dim == 1]
    prefix = [Counter(t & ((1 << r) - 1) for t in t1) for r in range(d + 1)]

    rows: list[int] = []
    spanned = {0}
    images = [0] * len(gens)
    tried = 0

    def walk(r: int, images: list[int]) -> list[int] | None:
        nonlocal tried
        if r == d:
            tried += 1
            # the map is injective and the sizes agree, so the images are the
            # target exactly when none of them misses it; all() stops at the first miss
            if all(span_masks((_apply(rows, m) for m in A.rows), d) in target for A in fam_set):
                return list(rows)
            return None
        for v in range(1, 1 << d):
            if v in spanned:
                continue
            new_images = [
                im | (((v & g).bit_count() & 1) << r) for im, g in zip(images, gens)
            ]
            if Counter(new_images) != prefix[r + 1]:
                continue
            rows.append(v)
            added = [x ^ v for x in spanned]
            spanned.update(added)
            hit = walk(r + 1, new_images)
            if hit is not None:
                return hit
            rows.pop()
            spanned.difference_update(added)
        return None

    witness = walk(0, images)
    if witness is None:
        return MatchResult(False, None, tried, "search exhausted")
    return MatchResult(True, tuple(witness), tried)
