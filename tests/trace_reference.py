"""The nested trace serialiser of schema 1, kept as the reference for the
flat node table of schema k3fat.trace/2.

`reference_dict(trace)` rebuilds the nested dictionary that the trace
serialised before the node table: the root carries its system and
`certified`, every step lists its four branches, and a node shared by
several steps is expanded again at each of them.  The two planar branches
are derived from the step: L(k, m^c) and L(k-1, m^c), non-special, with
the step's two planar vdims.  `json.dumps` of it with `indent=2` gives the
schema-1 `to_json()` bytes.

`ref_node_order(root)` walks the tree from the root and lists its distinct
nodes in DFS preorder, surface branch before surface hat branch: the order
that the rows of the node table, and so `trace.nodes`, must have.

`ref_recurse(sys, base)` is the recursion as two mutually recursive
functions that try each regime of a node's vdim in turn, both at v = -1,
with the step arithmetic of tests/step_reference.py: the nodes that
`recurse` must build, in the order it must first reach them.
"""
from typing import Dict

from k3fat import degeneration
from k3fat.core import Key, Status, edim, k3_vdim_formula
from k3fat.degeneration import DegenerationStep, EngineError, Regime, TraceNode
from step_reference import ref_branch_vdims, ref_select_k


def ref_recurse(sys, base):
    """The distinct nodes of the recursion on `sys` over the single-point
    resolver `base`, in the order the recursion first reaches them."""
    memo: Dict[Key, TraceNode] = {}
    _ref_resolve(sys.key, base, memo)
    return tuple(memo.values())


def _ref_resolve(key, base, memo):
    # the key is reserved before its branches, so len(memo) counts the
    # nodes in progress against the budget
    if len(memo) < degeneration.MAX_NODES:
        memo[key] = None
        node = _ref_new_node(key, base, memo)
    else:
        v = k3_vdim_formula(*key)
        node = TraceNode(key, v, None, Status.UNKNOWN, "failed",
                         note=f"node budget of {degeneration.MAX_NODES} spent; "
                              "dimension not certified")
    memo[key] = node
    return node


def _ref_new_node(key, base, memo):
    """A base or unconditioned leaf, or the first step, over the regimes of
    the vdim, that certifies; else UNKNOWN, "failed", with the last step
    tried."""
    gamma, d, m, n = key
    if n == 1:
        rep = base(gamma, d, m)
        return TraceNode(key, rep.vdim, rep.dim, rep.status, "base")
    v = k3_vdim_formula(*key)
    if n == 0:
        return TraceNode(key, v, v, Status.NONSPECIAL, "unconditioned")

    c = 9 if n % 9 == 0 else 4
    b = n // c
    if v > -1:
        regimes = (Regime.NONNEG,)
    elif v < -1:
        regimes = (Regime.NEG,)
    else:
        regimes = (Regime.NONNEG, Regime.NEG)
    step = None
    for regime in regimes:
        k = ref_select_k(gamma, d, m, n, c, regime)
        if k is None:
            continue
        v_s, v_sh, v_p, v_ph = ref_branch_vdims(gamma, d, m, b, c, k)
        key_s, key_sh = (gamma, d, k, b), (gamma, d, k + 1, b)
        node_s = memo[key_s] if key_s in memo else _ref_resolve(key_s, base, memo)
        node_sh = memo[key_sh] if key_sh in memo else _ref_resolve(key_sh, base, memo)
        l_s, l_sh = node_s.dim, node_sh.dim
        if l_s is None or l_sh is None:
            step = DegenerationStep(c, b, k, regime, node_s, node_sh, v_p, v_ph,
                                    None, None, None, None)
            continue
        # the planar branches are non-special: dimension edim
        r_s = l_s - l_sh - 1
        r_p = edim(v_p) - edim(v_ph) - 1
        intersection = max(-1, r_s + b * r_p - b * k)
        l0 = intersection + b * (edim(v_ph) + 1) + l_sh + 1
        step = DegenerationStep(c, b, k, regime, node_s, node_sh, v_p, v_ph,
                                r_s, r_p, intersection, l0)
        ok_branches = {node_s.status, node_sh.status} <= {Status.NONSPECIAL, Status.CONDITIONAL}
        if regime is Regime.NONNEG:
            ok = v_s >= -1 and v_p >= -1 and ok_branches
            target = v
        else:
            ok = (v_sh <= -1 and v_ph <= -1 and ok_branches) or (
                gamma == 4 and b == 1 and k == 2 * d and (c == 4 or (2 * d) % 3 != 1)
                and v <= -d and l_s == 0 and l_sh == -1 and v_p <= 2 * d - 1 and v_ph <= -1)
            target = -1
        if ok:
            if l0 != target:
                raise EngineError(f"{regime.value} step for {key} combined to {l0} != {target}")
            conditional = Status.CONDITIONAL in (node_s.status, node_sh.status)
            status = Status.CONDITIONAL if conditional else Status.NONSPECIAL
            return TraceNode(key, v, edim(v), status, "step", step)

    note = ("no admissible matching degree" if step is None
            else "step side conditions failed; dimension not certified")
    return TraceNode(key, v, None, Status.UNKNOWN, "failed", step, note)


def ref_node_order(root):
    """The distinct nodes below `root`, root included, in DFS preorder."""
    order = []
    ids: Dict[Key, int] = {}
    todo = [root]
    while todo:
        node = todo.pop()
        key = node[0]
        if key in ids:
            continue
        ids[key] = len(order)
        order.append(node)
        step = node.step
        if step is not None:
            todo += (step.surface_hat_node, step.surface_node)
    return order


def _planar_dict(delta, vdim):
    """The planar branch L(delta, m^c) of vdim `vdim`, non-special."""
    return {
        "delta": delta,
        "vdim": vdim,
        "edim": edim(vdim),
        "dim": edim(vdim),
        "status": Status.NONSPECIAL.value,
    }


def _branch_summary(node):
    out = {
        "vdim": node.vdim,
        "edim": edim(node.vdim),
        "dim": node.dim,
        "status": node.status.value,
        "kind": node.kind,
    }
    if node.note:
        out["note"] = node.note
    if node.step is not None:
        out["step"] = _step_to_dict(node.step)
    return out


def _step_to_dict(step):
    return {
        "c": step.c,
        "b": step.b,
        "k": step.k,
        "regime": step.regime.value,
        "branches": {
            "surface": _branch_summary(step.surface_node),
            "surface_hat": _branch_summary(step.surface_hat_node),
            "planar": _planar_dict(step.k, step.planar_vdim),
            "planar_hat": _planar_dict(step.k - 1, step.planar_hat_vdim),
        },
        "r_surface": step.r_surface,
        "r_planar": step.r_planar,
        "intersection_dim": step.intersection_dim,
        "l0": step.l0,
    }


def _node_to_dict(node):
    sys = node.system
    out = {
        "system": {"gamma": sys.gamma, "d": sys.degree, "m": sys.multiplicity, "n": sys.count},
        "vdim": node.vdim,
        "edim": edim(node.vdim),
        "dim": node.dim,
        "status": node.status.value,
        "certified": node.dim is not None,
        "kind": node.kind,
    }
    if node.note:
        out["note"] = node.note
    if node.step is not None:
        out["step"] = _step_to_dict(node.step)
    return out


def reference_dict(trace):
    """The schema-1 nested dictionary of a DegenerationTrace."""
    return _node_to_dict(trace.node)
