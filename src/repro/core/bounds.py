"""Eccentricity bound maintenance (Lemmas 3.1 and 3.3), metric-generic.

Every algorithm under the BFS-framework keeps, for each vertex ``v``, a
lower bound ``ecc_lower[v]`` and an upper bound ``ecc_upper[v]`` on
``ecc(v)``, initialised to ``0`` and ``+inf`` (Section 3.1 step 1).  After a
traversal from a source ``t`` with known ``ecc(t)`` and distance vector
``dist(t, .)``, the triangle inequalities of Lemma 3.1 tighten the bounds
of every other vertex:

.. math::

    ecc(v) \\le dist(v, t) + ecc(t)

    ecc(v) \\ge \\max\\{dist(v, t),\\; ecc(t) - dist(t, v)\\}

When distance probing follows a farthest-first node order ``L^z`` of a
reference node ``z``, Lemma 3.3 additionally caps ``ecc(v)`` by what the
*unprobed tail* of the order can contribute:

.. math::

    ecc(v) \\le \\max\\{\\underline{ecc}(v),\\;
                       dist(v_{next}, z) + dist(v, z)\\}

where ``v_next`` is the first unprobed node.  (The paper states the lemma
with the last probed node ``v_i``; using the next unprobed node is the
slightly tighter variant the paper's own Example 3.4 traces, and is valid
by the same proof since every unprobed node ``u`` has
``dist(u, z) <= dist(v_next, z)``.)

Both lemmas are pure triangle inequalities, so they hold for *any*
shortest-path metric — unweighted hops, non-negative edge weights, and
directed reachability alike (Dragan et al.'s certificate view).  A
:class:`BoundState` is therefore parameterised by

* ``dtype`` — ``int32`` hop counts (the paper's setting) or ``float64``
  weighted distances;
* ``tolerance`` — the slack used by every bound comparison.  Integer
  metrics use the exact ``0`` default; float metrics pass an absolute
  tolerance (distances are sums of ``float64`` weights) and every
  "have the bounds met?" question goes through the single
  :meth:`BoundState.bounds_met` helper;
* for *directed* (asymmetric) metrics, ``dist(v, t) != dist(t, v)`` in
  general, so the Lemma 3.1 update methods accept the reverse-distance
  vector separately (``dist_from``); symmetric callers omit it.

Bound arrays are updated with whole-array numpy operations only, and the
core invariant ``lower <= upper (+ tolerance)`` is re-checked on every
update.  Every update also keeps the count of resolved vertices (and,
once a traced probe asks for it, the capped gap mass of int32 bounds):
subset updates adjust them over the vertices they touch and whole-array
updates recount, so the solver's per-probe progress query costs nothing
once only a few hundred vertices are still open.
"""

from __future__ import annotations

from typing import Optional, Tuple, Union

import numpy as np

from repro.errors import InvalidParameterError
from repro.graph import native
from repro.sentinels import INFINITE_ECC, infinity_for, unreached_mask

__all__ = ["INFINITE_ECC", "BoundState", "lemma31_lower", "lemma31_upper"]

#: Numeric scalar accepted wherever an eccentricity value is expected.
Numeric = Union[int, float]


def lemma31_lower(dist_to_t: np.ndarray, ecc_t: Numeric) -> np.ndarray:
    """Element-wise Lemma 3.1 lower bound: max(dist, ecc(t) - dist)."""
    return np.maximum(dist_to_t, ecc_t - dist_to_t)


def lemma31_upper(dist_to_t: np.ndarray, ecc_t: Numeric) -> np.ndarray:
    """Element-wise Lemma 3.1 upper bound: dist + ecc(t)."""
    return dist_to_t + ecc_t


class BoundState:
    """Mutable lower/upper eccentricity bounds for all vertices.

    Parameters
    ----------
    num_vertices:
        Size of the bound vectors.
    dtype:
        Bound-array dtype — ``int32`` (default, unweighted/directed hop
        metrics) or ``float64`` (weighted distances).
    tolerance:
        Absolute comparison slack used by :meth:`bounds_met` and every
        consistency check.  ``0`` (default) gives exact integer
        comparison; float metrics pass e.g. ``1e-9``.
    infinity:
        The "+infinity" initial upper bound.  Defaults to the dtype's
        canonical sentinel (``2**30`` for integers, ``inf`` for floats).

    Notes
    -----
    The class enforces the core invariant ``lower <= upper + tolerance``
    on every update; a violation means the caller fed inconsistent
    distances and is reported as :class:`InvalidParameterError` rather
    than silently producing a wrong eccentricity.
    """

    __slots__ = (
        "_lower",
        "_upper",
        "_resolved",
        "_gap_cap",
        "_gap_mass",
        "_int_bounds",
        "tolerance",
        "infinity",
        "_dtype",
        "_gap_buf",
    )

    def __init__(
        self,
        num_vertices: int,
        dtype: "np.typing.DTypeLike" = np.int32,
        tolerance: float = 0.0,
        infinity: Optional[Numeric] = None,
    ) -> None:
        if num_vertices < 0:
            raise InvalidParameterError("num_vertices must be non-negative")
        if tolerance < 0:
            raise InvalidParameterError("tolerance must be non-negative")
        self._dtype = np.dtype(dtype)
        self.tolerance = float(tolerance)
        self.infinity = (
            infinity if infinity is not None else infinity_for(self._dtype)
        )
        self._lower = np.zeros(num_vertices, dtype=self._dtype)
        self._upper = np.full(num_vertices, self.infinity, dtype=self._dtype)
        # Kept totals: the resolved count always; for int32 bounds also
        # the gap mass capped at `_gap_cap`, once progress() asks for it.
        self._int_bounds = (
            self._dtype == np.int32 and self.tolerance.is_integer()
        )
        self._gap_cap: Optional[int] = None
        self._resolved = 0
        self._gap_mass = 0
        self._recount()
        # Scratch for progress()'s numpy gap reduction, allocated on use.
        self._gap_buf: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    # The bound arrays
    # ------------------------------------------------------------------
    @property
    def lower(self) -> np.ndarray:
        """Per-vertex lower bounds (read them; update through methods)."""
        return self._lower

    @lower.setter
    def lower(self, value: np.ndarray) -> None:
        self._lower = value
        self._recount()

    @property
    def upper(self) -> np.ndarray:
        """Per-vertex upper bounds (read them; update through methods)."""
        return self._upper

    @upper.setter
    def upper(self, value: np.ndarray) -> None:
        self._upper = value
        self._recount()

    def _recount(self) -> None:
        """Recompute the kept totals over the whole arrays."""
        self._resolved, self._gap_mass = self._totals(self._lower, self._upper)

    def _totals(self, lower: np.ndarray, upper: np.ndarray) -> Tuple[int, int]:
        """Resolved count and kept-cap gap mass (0 if none) of ``lower/upper``.

        int32 bounds go through the native kernel's one-pass reduction
        when it is loaded.
        """
        cap = self._gap_cap
        kern = native.kernels() if self._int_bounds else None
        if kern is not None:
            return kern.bound_progress(
                lower, upper, int(self.tolerance), 0 if cap is None else cap
            )
        resolved = int(np.count_nonzero(self.bounds_met(lower, upper)))
        if cap is None:
            return resolved, 0
        gap = np.subtract(upper, lower, dtype=np.int64)
        return resolved, int(np.minimum(gap, cap).sum())

    def _account(
        self,
        old_lower: np.ndarray,
        old_upper: np.ndarray,
        new_lower: np.ndarray,
        new_upper: np.ndarray,
    ) -> None:
        """Adjust the kept totals for an update of distinct vertices.

        Takes the touched vertices' bounds before and after the update,
        as arrays aligned with the subset.
        """
        resolved_old, mass_old = self._totals(old_lower, old_upper)
        resolved_new, mass_new = self._totals(new_lower, new_upper)
        self._resolved += resolved_new - resolved_old
        self._gap_mass += mass_new - mass_old

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        return len(self._lower)

    @property
    def dtype(self) -> np.dtype:
        return self._dtype

    def bounds_met(
        self,
        lower: Union[np.ndarray, Numeric],
        upper: Union[np.ndarray, Numeric],
    ) -> Union[np.ndarray, np.bool_]:
        """The one "have these bounds met?" comparison, tolerance-aware.

        Every resolution test in the solver core — scalar or
        whole-array — routes through this helper so integer metrics get
        exact comparison (``tolerance == 0`` with ``lower <= upper``
        invariant reduces it to equality) and float metrics get the
        documented absolute-tolerance comparison, in one place.
        """
        return upper - lower <= self.tolerance  # type: ignore[operator]

    def resolved_mask(self) -> np.ndarray:
        """Boolean mask of vertices whose bounds have met."""
        return np.asarray(self.bounds_met(self._lower, self._upper))

    def unresolved_in(self, subset: np.ndarray) -> np.ndarray:
        """Boolean mask over ``subset``: ``True`` where bounds are open."""
        return ~np.asarray(
            self.bounds_met(self._lower[subset], self._upper[subset])
        )

    def unresolved_subset(self, subset: np.ndarray) -> np.ndarray:
        """The members of ``subset`` whose bounds have not met yet."""
        return subset[self.unresolved_in(subset)]

    def num_resolved(self) -> int:
        """Number of vertices with matching bounds (kept by every update)."""
        return self._resolved

    def progress(
        self, gap_cap: Optional[float] = None
    ) -> Tuple[int, Optional[float]]:
        """Resolved count, plus the capped gap mass when ``gap_cap`` is set.

        The gap mass is ``sum(min(upper - lower, gap_cap))`` — the
        remaining bound-gap signal traced probes report, with untouched
        vertices (infinite upper bound) counted as ``gap_cap``.  The
        resolved count is kept by every update.  For int32 bounds and an
        integer ``gap_cap`` so is the mass: the first call sums it once,
        and from then on each update adjusts it over the vertices it
        touches, so a traced probe no longer pays a pass over all ``n``
        bounds.  Float bounds get one pass per call, where an
        incremental sum could drift from the exact one.
        """
        if gap_cap is None:
            return self._resolved, None
        if self._int_bounds and float(gap_cap).is_integer():
            if self._gap_cap != int(gap_cap):
                self._gap_cap = int(gap_cap)
                self._recount()
            return self._resolved, float(self._gap_mass)
        buf = self._gap_buf
        if buf is None:
            buf = self._gap_buf = np.empty(len(self._lower), np.float64)
        # In-place fused form of np.minimum(self.gap(), gap_cap).sum():
        # the temporaries of the spelled-out form would be the largest
        # slice of a traced probe's capture cost.
        np.subtract(self._upper, self._lower, out=buf)
        np.minimum(buf, gap_cap, out=buf)
        return self._resolved, float(buf.sum())

    def all_resolved(self) -> bool:
        return self.num_resolved() == self.num_vertices

    def gap(self) -> np.ndarray:
        """Per-vertex ``upper - lower`` gap, widened to avoid overflow.

        :dtype gap: int64
        """
        if np.issubdtype(self._dtype, np.floating):
            return self._upper.astype(np.float64) - self._lower.astype(
                np.float64
            )
        return self._upper.astype(np.int64) - self._lower.astype(np.int64)

    def eccentricities(self) -> np.ndarray:
        """The exact eccentricities; requires all bounds resolved."""
        if not self.all_resolved():
            raise InvalidParameterError(
                "bounds are not all resolved; eccentricities are not final"
            )
        return self._lower.copy()

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------
    def set_exact(self, vertex: int, value: Numeric) -> None:
        """Pin one vertex's eccentricity (e.g. after its own traversal)."""
        self._check_consistent(
            bool(
                self._lower[vertex] - self.tolerance
                <= value
                <= self._upper[vertex] + self.tolerance
            ),
            f"exact ecc {value} outside current bounds of vertex {vertex}",
        )
        old_lower, old_upper = self._lower[vertex], self._upper[vertex]
        was_met = bool(self.bounds_met(old_lower, old_upper))
        self._lower[vertex] = value
        self._upper[vertex] = value
        self._resolved += not was_met
        if self._gap_cap is not None:
            old_gap = int(old_upper) - int(old_lower)
            self._gap_mass -= min(old_gap, self._gap_cap)

    def apply_lemma31(
        self,
        dist_to_t: np.ndarray,
        ecc_t: Numeric,
        dist_from_t: Optional[np.ndarray] = None,
    ) -> None:
        """Tighten all bounds after a traversal of ``t`` (Lemma 3.1).

        ``dist_to_t`` holds ``dist(v, t)`` — the distances *into* the
        source, which drive both the lower bound ``ecc(v) >= dist(v, t)``
        and the upper bound ``ecc(v) <= dist(v, t) + ecc(t)``.  For
        symmetric metrics it equals ``dist(t, v)`` and the second lower
        bound ``ecc(v) >= ecc(t) - dist(t, v)`` uses the same vector;
        directed callers pass the forward-distance vector ``dist(t, .)``
        as ``dist_from_t``.  Unreachable entries are left untouched.
        """
        reachable = ~unreached_mask(dist_to_t)
        dist = dist_to_t.astype(self._dtype)
        if dist_from_t is None:
            lower_candidate = lemma31_lower(dist, ecc_t)
        else:
            lower_candidate = np.maximum(
                dist, ecc_t - dist_from_t.astype(self._dtype)
            )
        new_lower = np.maximum(
            self._lower, np.where(reachable, lower_candidate, 0)
        )
        new_upper = np.where(
            reachable,
            np.minimum(self._upper, lemma31_upper(dist, ecc_t)),
            self._upper,
        )
        self._check_consistent(
            bool(np.all(new_lower <= new_upper + self.tolerance)),
            "Lemma 3.1 update produced lower > upper: inconsistent distances",
        )
        self._lower = new_lower
        self._upper = new_upper
        self._recount()

    def apply_lower_only(self, dist_to_t: np.ndarray) -> None:
        """Raise lower bounds to ``dist(v, t)`` when ``ecc(t)`` is unknown.

        Section 3.1 notes this weaker update ("if one only knows
        dist(v, t)"); kBFS-style estimators rely on it, and it is the
        *whole* per-probe lower update of the directed sweep (a backward
        BFS yields ``dist(v, t)`` but not ``ecc(t)``).
        """
        reachable = ~unreached_mask(dist_to_t)
        new_lower = np.maximum(
            self._lower,
            np.where(reachable, dist_to_t.astype(self._dtype), 0),
        )
        self._check_consistent(
            bool(np.all(new_lower <= self._upper + self.tolerance)),
            "lower-only update produced lower > upper",
        )
        self._lower = new_lower
        self._recount()

    def apply_lemma31_subset(
        self,
        subset: np.ndarray,
        dist_subset: np.ndarray,
        ecc_t: Numeric,
        dist_from_subset: Optional[np.ndarray] = None,
    ) -> None:
        """Lemma 3.1 tightening restricted to ``subset``.

        ``dist_subset`` holds ``dist(v, t)`` aligned with ``subset`` (the
        gathered distances, not the full vector).  This is the territory
        seeding step of Algorithm 2 lines 8-9.  Directed callers pass
        the gathered forward distances ``dist(t, v)`` as
        ``dist_from_subset`` for the ``ecc(t) - dist(t, v)`` term;
        symmetric metrics omit it.  Like every subset update it expects
        distinct vertex ids.

        :dtype dist: int32
        """
        dist = dist_subset.astype(self._dtype)
        old_lower = self._lower[subset]
        old_upper = self._upper[subset]
        if dist_from_subset is None:
            new_lower = np.maximum(old_lower, lemma31_lower(dist, ecc_t))
        else:
            new_lower = np.maximum(
                old_lower,
                np.maximum(
                    dist, ecc_t - dist_from_subset.astype(self._dtype)
                ),
            )
        new_upper = np.minimum(old_upper, lemma31_upper(dist, ecc_t))
        self._check_consistent(
            bool(np.all(new_lower <= new_upper + self.tolerance)),
            "Lemma 3.1 subset update produced lower > upper: "
            "inconsistent distances",
        )
        self._lower[subset] = new_lower
        self._upper[subset] = new_upper
        self._account(old_lower, old_upper, new_lower, new_upper)

    def apply_probe_subset(
        self,
        subset: np.ndarray,
        dist_subset: np.ndarray,
        dist_to_z_subset: np.ndarray,
        tail_radius: Numeric,
    ) -> None:
        """One FFO-sweep probe's update of ``subset`` (Algorithm 2, 14-16).

        Lemma 3.1 raises ``lower[subset]`` to ``dist_subset``
        (``dist(v, t)`` for the probe ``t``), then Lemma 3.3 caps
        ``upper[subset]`` at ``max(lower, dist(v, z) + tail_radius)``
        with ``dist_to_z_subset`` gathered over ``subset``.  Equal to
        the raise followed by :meth:`apply_lemma33_tail` on the same
        subset, in one gather and one scatter.  The cap never falls
        below the raised lower bound, so one consistency check covers
        both steps.

        :dtype new_lower: int32
        """
        lower = self._lower[subset]
        upper = self._upper[subset]
        new_lower = np.maximum(lower, dist_subset.astype(self._dtype))
        self._check_consistent(
            bool(np.all(new_lower <= upper + self.tolerance)),
            "lower-only subset update produced lower > upper",
        )
        cap = np.maximum(
            new_lower, dist_to_z_subset.astype(self._dtype) + tail_radius
        )
        new_upper = np.minimum(upper, cap)
        self._lower[subset] = new_lower
        self._upper[subset] = new_upper
        self._account(lower, upper, new_lower, new_upper)

    def apply_lemma33_tail(
        self,
        dist_to_z: np.ndarray,
        tail_radius: Numeric,
        subset: Optional[np.ndarray] = None,
    ) -> None:
        """Cap upper bounds by the FFO tail (Lemma 3.3).

        Parameters
        ----------
        dist_to_z:
            Distances *into* the reference node ``z`` (``dist(v, z)``;
            for symmetric metrics this is the reference's own distance
            vector).
        tail_radius:
            ``dist(v_next, z)`` for the first unprobed node of ``L^z``
            (0 when the order is exhausted).
        subset:
            Optional vertex-id array restricting the update to the
            territory ``V^z`` of ``z``; other vertices keep their bounds.
        """
        if subset is None:
            cap = np.maximum(
                self._lower, dist_to_z.astype(self._dtype) + tail_radius
            )
            new_upper = np.minimum(self._upper, cap)
            self._check_consistent(
                bool(np.all(self._lower <= new_upper + self.tolerance)),
                "Lemma 3.3 update produced lower > upper",
            )
            self._upper = new_upper
            self._recount()
        else:
            lower = self._lower[subset]
            old_upper = self._upper[subset]
            cap = np.maximum(
                lower, dist_to_z[subset].astype(self._dtype) + tail_radius
            )
            new_upper = np.minimum(old_upper, cap)
            self._check_consistent(
                bool(np.all(lower <= new_upper + self.tolerance)),
                "Lemma 3.3 update produced lower > upper",
            )
            self._upper[subset] = new_upper
            self._account(lower, old_upper, lower, new_upper)

    @staticmethod
    def _check_consistent(condition: bool, message: str) -> None:
        if not condition:
            raise InvalidParameterError(message)

    def __repr__(self) -> str:
        return (
            f"BoundState(n={self.num_vertices}, "
            f"resolved={self.num_resolved()})"
        )
