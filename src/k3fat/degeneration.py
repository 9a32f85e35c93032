"""Degeneration recursion for homogeneous systems with n = 4^u * 9^w points.

One recursion step degenerates the surface into its blow-up at b general
points together with b planes, splitting L^gamma(d, m^n) into four branch
systems for a matching degree k:

    surface branch      L^gamma(d, k^b)
    surface hat branch  L^gamma(d, (k+1)^b)
    planar branch       L(k, m^c)        on each plane, c = n/b in {4, 9}
    planar hat branch   L(k-1, m^c)

The dimensions combine along the b matching curves (degree-k rational
curves), as in the degeneration of Ciliberto and Miranda (J. reine angew.
Math. 501, 1998), through the restriction dimensions

    r_surface = l_S - l_S_hat - 1,   r_planar = l_P - l_P_hat - 1,

the transversal intersection max(-1, r_surface + b*r_planar - b*k), and

    l0 = intersection + b*(l_P_hat + 1) + l_S_hat + 1.

The degenerate-fiber dimension l0 bounds the true dimension l from above,
and l >= edim always, so l0 == edim certifies dim = edim (non-special).
The engine only ever certifies; when the side conditions of a step fail it
reports UNKNOWN rather than guessing.

One function, _step, computes the arithmetic of a step in one pass: b,
the interval [k_min, k_max] of admissible matching degrees, the chosen
degree k, the four branch vdims from the node's shared terms gamma d^2/2 + 1
and c m(m+1)/2, and the bookkeeping identity, which it checks on every step
(EngineError when it fails).  Each end of the interval is the least k >= 0
with k(k+3) >= r for an integer threshold r read off one of the two
quadratic inequalities, that is ceil((sqrt(9 + 4r) - 3)/2), computed in
closed form with math.isqrt and one integer correction (_least_k).  The
final-step tie-break (_final_k) compares k_min and k_max with 2d, so no
search runs per node, whatever d is.

The recursion runs on system keys (gamma, d, m, n), as in K3System.key; each
distinct key becomes one TraceNode, and one row of the trace's flat node
table (schema k3fat.trace/2).  The records TraceNode and DegenerationStep
are named tuples, built without a K3System (`TraceNode.system` derives one
on demand) and read back by tuple unpacking.  They hold what the recursion
decides, and the trace rows derive the rest: a node's edim, max(vdim, -1),
whether it is certified (its dim is not None), and the non-special planar
branches L(k, m^c) and L(k-1, m^c) from their vdims.  A system with
u + w = t has about 2^t + 1 distinct nodes, each costing the per-node Python
overhead once in the recursion and once in the rows of the trace.

The memo is the trace: it holds the keys in the order the recursion first
reaches them, surface branch before surface hat branch, which is DFS
preorder from the root, the rows' order: each node takes one step, in the
regime of the sign of its vdim v, and asks for its two branch keys once.
At v = -1 both regimes' rules apply to that step.  There gamma d^2 + 4 =
b c m(m+1), so a_num // b = c m(m+1), and in both regimes k_min and k_max
are the least k with (k+1)(k+2) >= c m(m+1) and with (k+1)(k+2) >
c m(m+1); as c m(m+1) is never such a product for c in {4, 9}, both
regimes admit one k, the same, which _final_k also picks (at v = -1 it
meets only L^4(1, 1^4), k = 2).  The step is recorded as NONNEG when the
NONNEG rule accepts it, else as NEG.

One recursion resolves at most MAX_NODES distinct nodes.  Each node past
that budget is reported UNKNOWN, of kind "failed", with a note, so the
verdict of a system with more nodes than the budget is UNKNOWN rather
than an error.  The recursion takes one Python frame per level, so its
depth is bounded by the interpreter's recursion limit (see MAX_NODES).
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Dict, Iterator, NamedTuple, Optional, Tuple

from .core import (
    DimensionReport,
    K3System,
    Key,
    Status,
    edim,
    k3_vdim_formula,
)

#: Resolves a single-point system L^gamma(d, mu) to a DimensionReport.
BaseResolver = Callable[[int, int, int], DimensionReport]

# Most distinct nodes one recursion resolves; every node past them is left
# UNKNOWN, so a recursion costs bounded time and memory.  Python's recursion
# limit bounds its depth, at one frame per level: 989 levels, L^4(10, 1^(4^989)),
# from a script's top level at the default limit of 1 000.  The deepest case
# in CI, L^4(500, 100^(4^10 9^5)), has 32 769 nodes.
MAX_NODES = 150_000


class Regime(Enum):
    """Sign regime of the recursion: v >= -1 (NONNEG) or v <= -1 (NEG)."""

    NONNEG = "NONNEG"
    NEG = "NEG"


# Members read on every node, bound once.
_NONSPECIAL = Status.NONSPECIAL
_CONDITIONAL = Status.CONDITIONAL
_UNKNOWN = Status.UNKNOWN
_NONNEG = Regime.NONNEG
_NEG = Regime.NEG
_BRANCH_OK = (_NONSPECIAL, _CONDITIONAL)
# Builds a named tuple of class `cls` from the tuple of all its fields, as
# `cls._make` does, without the Python-level `cls.__new__` that binds them
# one by one; the recursion builds two records per node this way.
_record = tuple.__new__


class EngineError(RuntimeError):
    """An internal consistency check of the recursion failed."""


def factor_4_9(n: int) -> Optional[Tuple[int, int]]:
    """Return (u, w) with n = 4^u * 9^w, or None if n has no such form."""
    if n < 1:
        return None
    u = w = 0
    while n % 4 == 0:
        n //= 4
        u += 1
    while n % 9 == 0:
        n //= 9
        w += 1
    return (u, w) if n == 1 else None


def _least_k(r: int) -> int:
    """Smallest k >= 0 with k(k+3) >= r.

    For r > 0 that is ceil(x) with x = (sqrt(9 + 4r) - 3)/2, the positive
    root of k^2 + 3k - r.  With s = isqrt(9 + 4r), x lies in
    [(s - 3)/2, (s - 2)/2), so ceil(x) is (s - 2) // 2 or one more."""
    if r <= 0:
        return 0
    k = (math.isqrt(9 + 4 * r) - 2) // 2
    return k if k * (k + 3) >= r else k + 1


def _final_k(regime: Regime, d: int, k_min: int, k_max: int) -> int:
    """The matching degree of a final step (b = 1) over gamma = 4, from its
    non-empty interval [k_min, k_max].

    The choice mirrors the proved endgame.  NONNEG: for d >= 2 the largest
    admissible k outside {2d-1, 2d}, where the single-point branches
    L^4(d, 2d) would be special, or k_max when there is none; since 2d-1 and
    2d are adjacent, that is 2d-2 exactly when k_max is one of them and
    k_min <= 2d-2.  NEG: k = 2d whenever it is admissible.  Otherwise k_max.
    """
    if regime is _NONNEG:
        if d >= 2 and 2 * d - 1 <= k_max <= 2 * d and k_min <= 2 * d - 2:
            return 2 * d - 2
    elif k_min <= 2 * d <= k_max:
        return 2 * d
    return k_max


def _step(key: Key, v: int, c: int) -> Tuple[int, int, int, int, Tuple[int, int, int, int]]:
    """The arithmetic of one degeneration step of the system `key`, of vdim
    v, through planes of c points, in the regime of the sign of v (NONNEG
    for v >= -1, NEG otherwise):

        (b, k_min, k_max, k, (v_S, v_S_hat, v_P, v_P_hat))

    [k_min, k_max] is the interval of admissible matching degrees, k the
    chosen one, the largest admissible one apart from the final-step rule
    of _final_k, and the vdims are those of the surface branches at
    multiplicities k and k+1 and the unclamped ones of the planar branches
    at degrees k and k-1.

    NONNEG regime: k^2 + k <= alpha and k^2 + 3k >= beta with
        alpha = (gamma d^2 + 4)/b,    beta = c m(m+1) - 2,
    equivalent to v_surface >= -1 and v_planar >= -1.

    NEG regime: k^2 + 3k >= alpha and k^2 + k <= beta with
        alpha = (gamma d^2 + 4)/b - 2,  beta = c m(m+1),
    equivalent to v_surface_hat <= -1 and v_planar_hat <= -1.

    The interval is never empty.  With a = gamma d^2 + 4 and q = c m(m+1),
    v >= -1 is a >= b q, so b (k+1)(k+2) > a, true at k_max, gives (k+1)(k+2) > q;
    v < -1 is a < b q, so (k+1)(k+2) > q, true at k_max, gives b (k+1)(k+2) > a:
    either way k_max meets the inequality that defines k_min.

    The bookkeeping identity of _identity_holds is checked on every step;
    EngineError is raised when it fails.
    """
    gamma, d, m, n = key
    b = n // c
    a_num = gamma * d * d + 4
    cm = c * m * (m + 1)
    # Each end is the least k meeting one inequality, rewritten as
    # k(k+3) >= r: for the integer x = (k+1)(k+2) = k(k+3) + 2, b*x > a_num
    # is x >= a_num // b + 1 and b*x >= a_num is x >= ceil(a_num / b).
    regime = _NONNEG if v >= -1 else _NEG
    if regime is _NONNEG:
        # k(k+1) <= alpha  and  k(k+3) >= beta
        k_max = _least_k(a_num // b - 1)  # least k with b (k+1)(k+2) > a_num
        k_min = _least_k(cm - 2)
    else:
        # (k+1)(k+2) >= alpha + 2  and  k(k+1) <= beta
        k_min = _least_k(-(-a_num // b) - 2)  # least k with b (k+1)(k+2) >= a_num
        k_max = _least_k(cm - 1)  # least k with (k+1)(k+2) > cm
    k = _final_k(regime, d, k_min, k_max) if gamma == 4 and b == 1 else k_max
    # The shared terms: the ambient gamma d^2/2 + 1 and the c m(m+1)/2
    # conditions of one plane's points.
    ambient = gamma // 2 * d * d + 1
    planar = cm // 2
    surface = b * (k * (k + 1) // 2)
    vdims = (ambient - surface, ambient - surface - b * (k + 1),
             k * (k + 3) // 2 - planar, (k - 1) * (k + 2) // 2 - planar)
    if not _identity_holds(v, b, k, vdims):
        raise EngineError(f"vdim bookkeeping identity failed for {_name(key)}, c={c}, k={k}")
    return b, k_min, k_max, k, vdims


def _recombine(
    l_s: int, l_s_hat: int, l_p: int, l_p_hat: int, b: int, k: int
) -> Tuple[int, int, int, int]:
    """(r_surface, r_planar, intersection, l0) of one step."""
    r_s = l_s - l_s_hat - 1
    r_p = l_p - l_p_hat - 1
    intersection = max(-1, r_s + b * r_p - b * k)
    return r_s, r_p, intersection, intersection + b * (l_p_hat + 1) + l_s_hat + 1


def _identity_holds(v: int, b: int, k: int, vdims: Tuple[int, int, int, int]) -> bool:
    """The four equivalent virtual-dimension bookkeeping identities

        v = v_S + b*v_P_hat + b = v_S + b*(v_P - k)
          = v_S_hat + b*v_P + b = v_S_hat + b*(v_P_hat + k + 2)

    for the branch vdims of _step.  A permanent self-check inside the
    recursion.
    """
    v_s, v_sh, v_p, v_ph = vdims
    return (
        v == v_s + b * v_ph + b
        == v_s + b * (v_p - k)
        == v_sh + b * v_p + b
        == v_sh + b * (v_ph + k + 2)
    )


# ---------------------------------------------------------------------------
# Trace records


class TraceNode(NamedTuple):
    """One node of the recursion tree: a system, by its key, with its
    verdict and, for composite systems, the degeneration step that
    resolved it; its edim is max(vdim, -1)."""

    key: Key
    vdim: int
    dim: Optional[int]
    status: Status
    kind: str  # "unconditioned" | "base" | "step" | "failed"
    step: Optional["DegenerationStep"] = None
    note: Optional[str] = None

    @property
    def system(self) -> K3System:
        return K3System(*self.key)


class DegenerationStep(NamedTuple):
    """One recursion level: the chosen (c, b, k), the surface branch nodes,
    the vdims of the planar branches L(k, m^c) and L(k-1, m^c), the restriction
    dimensions and l0 (None when a surface branch has no certified dimension)."""

    c: int
    b: int
    k: int
    regime: Regime
    surface_node: TraceNode
    surface_hat_node: TraceNode
    planar_vdim: int
    planar_hat_vdim: int
    r_surface: Optional[int]
    r_planar: Optional[int]
    intersection_dim: Optional[int]
    l0: Optional[int]


TRACE_SCHEMA = "k3fat.trace/2"

#: Columns of a node row, all scalars.  "surface" and "surface_hat" are the
#: ids of the two surface branch nodes; the two planar branches are inline,
#: as "planar.*" and "planar_hat.*", derived from the step's k and planar
#: vdims.  The row of a node without a step stops after "note".
TRACE_FIELDS = (
    "gamma", "d", "m", "n", "vdim", "edim", "dim", "status", "certified", "kind", "note",
    "c", "b", "k", "regime", "surface", "surface_hat",
    *(f"{leaf}.{name}" for leaf in ("planar", "planar_hat")
      for name in ("delta", "vdim", "edim", "dim", "status")),
    "r_surface", "r_planar", "intersection_dim", "l0",
)

_ENCODER = json.JSONEncoder(separators=(",", ":"))
# Node rows per encoder call in json_chunks; one call for the whole table
# would hold all of its rows and their text at once.
_ROWS_PER_CHUNK = 64


@dataclass(frozen=True)
class DegenerationTrace:
    """Serializable audit trail of one full recursion.

    `nodes` holds the recursion's distinct nodes in DFS preorder from the
    root.  The document (schema k3fat.trace/2) has one positional row per
    node, whose id is its index in `nodes`, 0 for the root:

        {"schema": "k3fat.trace/2", "root": 0, "fields": TRACE_FIELDS,
         "nodes": [row, ...]}

    A node shared by several steps appears once and is referenced by id.
    """

    nodes: Tuple[TraceNode, ...]

    @property
    def node(self) -> TraceNode:
        """The root."""
        return self.nodes[0]

    def to_json(self) -> str:
        """The document in compact JSON with one node row per line."""
        return "".join(self.json_chunks())

    def json_chunks(self) -> Iterator[str]:
        """The text of to_json() in pieces, each node row encoded only when
        its piece is asked for, so that a writer holds one piece at a time."""
        head = _ENCODER.encode({"schema": TRACE_SCHEMA, "root": 0, "fields": list(TRACE_FIELDS)})
        yield head[:-1] + ',"nodes":[\n'
        ids = {node[0]: i for i, node in enumerate(self.nodes)}
        separator = ""
        for start in range(0, len(self.nodes), _ROWS_PER_CHUNK):
            chunk = list(_node_rows(self.nodes[start:start + _ROWS_PER_CHUNK], ids))
            # A row holds only scalars and this module's fixed strings, none
            # of which contains a bracket, so "],[" in the text of a chunk of
            # rows is always the boundary between two rows.
            yield separator + _ENCODER.encode(chunk)[1:-1].replace("],[", "],\n[")
            separator = ",\n"
        yield "\n]}"


def _node_rows(nodes: Tuple[TraceNode, ...], ids: Dict[Key, int]) -> Iterator[list]:
    """The rows of `nodes`, with `ids` mapping each key to its row id; the
    records are read by tuple unpacking, cheaper than field by field."""
    # A Status or Regime member's JSON string is its `_value_`, the attribute
    # that `.value` reads through a descriptor.
    nonspecial = _NONSPECIAL._value_
    for key, vdim, dim, status, kind, step, note in nodes:
        e = vdim if vdim > -1 else -1
        if step is None:
            yield [*key, vdim, e, dim, status._value_, dim is not None, kind, note]
            continue
        c, b, k, regime, node_s, node_sh, v_p, v_ph, r_s, r_p, intersection, l0 = step
        e_p = v_p if v_p > -1 else -1
        e_ph = v_ph if v_ph > -1 else -1
        yield [*key, vdim, e, dim, status._value_, dim is not None, kind, note,
               c, b, k, regime._value_, ids[node_s[0]], ids[node_sh[0]],
               k, v_p, e_p, e_p, nonspecial,
               k - 1, v_ph, e_ph, e_ph, nonspecial,
               r_s, r_p, intersection, l0]


# ---------------------------------------------------------------------------
# The recursion


def _name(key: Key) -> str:
    return "L^{}({}, {}^{})".format(*key)


def _resolve(key: Key, base: BaseResolver, memo: Dict[Key, Optional[TraceNode]]) -> TraceNode:
    """Build, store in `memo` and return the node of a key not yet there: a
    leaf, or one step that certifies it or leaves it UNKNOWN, "failed".

    Past MAX_NODES keys in the memo the node is UNKNOWN, with a note.  The
    key is reserved before its branches are resolved, so len(memo) also
    counts the nodes in progress.  The placeholder is never read: every step
    lowers the point count, so no descendant has the key."""
    if len(memo) >= MAX_NODES:
        v = k3_vdim_formula(*key)
        node = memo[key] = TraceNode(key, v, None, _UNKNOWN, "failed", None,
                                     f"node budget of {MAX_NODES} spent; dimension not certified")
        return node
    gamma, d, m, n = key
    if n == 1:
        rep = base(gamma, d, m)
        node = memo[key] = TraceNode(key, rep.vdim, rep.dim, rep.status, "base")
        return node
    v = k3_vdim_formula(*key)
    if n == 0:
        node = memo[key] = TraceNode(key, v, v, _NONSPECIAL, "unconditioned")
        return node
    memo[key] = None
    c = 9 if n % 9 == 0 else 4
    b, _, _, k, (v_s, v_sh, v_p, v_ph) = _step(key, v, c)
    # k >= 1 (k_min >= 1 in NONNEG, k_max >= 1 in NEG, as c m(m+1) >= 8),
    # so both children hold points and both planar degrees are >= 0.
    # A node is a non-empty tuple, so `or` falls through only on a miss.
    key_s, key_sh = (gamma, d, k, b), (gamma, d, k + 1, b)
    node_s = memo.get(key_s) or _resolve(key_s, base, memo)
    node_sh = memo.get(key_sh) or _resolve(key_sh, base, memo)

    l_s, l_sh = node_s.dim, node_sh.dim
    if l_s is None or l_sh is None:
        ok = nonneg = False
        r_s = r_p = intersection = l0 = None
    else:
        # A planar branch is non-special, so its dimension is its edim.
        e_p = v_p if v_p > -1 else -1
        e_ph = v_ph if v_ph > -1 else -1
        r_s, r_p, intersection, l0 = _recombine(l_s, l_sh, e_p, e_ph, b, k)
        status_s, status_sh = node_s.status, node_sh.status
        branch_nonspecial = status_s in _BRANCH_OK and status_sh in _BRANCH_OK
        nonneg = v >= -1 and v_s >= -1 and v_p >= -1 and branch_nonspecial
        # At v <= -1 the NEG rule: the plain step needs both hat branches
        # virtually empty and the surface branches non-special; the gamma=4
        # endgame replaces that by the k = 2d step through the known
        # dimension-0 single-point system, which is only applied inside the
        # proved scope (c = 4, or 2d != 1 mod 3).
        ok = nonneg or v <= -1 and (
            (v_sh <= -1 and v_ph <= -1 and branch_nonspecial)
            or (gamma == 4 and b == 1 and k == 2 * d and (c == 4 or (2 * d) % 3 != 1)
                and v <= -d and l_s == 0 and l_sh == -1 and v_p <= 2 * d - 1 and v_ph <= -1))
    regime = _NONNEG if v > -1 or nonneg else _NEG
    step = _record(DegenerationStep, (c, b, k, regime, node_s, node_sh, v_p, v_ph,
                                      r_s, r_p, intersection, l0))
    if ok:
        # A NONNEG step combines to v, a NEG step to -1: to edim either way.
        e = v if v > -1 else -1
        if l0 != e:
            raise EngineError(f"{regime._value_} step for {_name(key)} at k={k} "
                              f"combined to l0={l0} != {e}")
        conditional = status_s is _CONDITIONAL or status_sh is _CONDITIONAL
        node = _record(TraceNode, (key, v, e, _CONDITIONAL if conditional else _NONSPECIAL,
                                   "step", step, None))
    else:
        node = _record(TraceNode, (key, v, None, _UNKNOWN, "failed", step,
                                   "step side conditions failed; dimension not certified"))
    memo[key] = node
    return node


def recurse(sys: K3System, base: BaseResolver) -> Tuple[DimensionReport, DegenerationTrace]:
    """Run the degeneration recursion down to single-point base cases.

    `base` resolves L^gamma(d, mu) leaves to dimension reports.  Returns the
    certified report (UNKNOWN when some step's side conditions fail, or when
    the recursion needs more than MAX_NODES nodes) together with the full
    audit trace.
    """
    n = sys.count
    if n != 0 and factor_4_9(n) is None:
        raise ValueError(f"point count {n} is not of the form 4^u * 9^w")
    memo: Dict[Key, Optional[TraceNode]] = {}
    node = _resolve(sys.key, base, memo)
    trace = DegenerationTrace(tuple(memo.values()))
    report = DimensionReport(node.vdim, edim(node.vdim), node.dim, node.status, trace=trace)
    return report, trace
