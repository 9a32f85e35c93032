"""The nested trace serialiser of schema 1, kept as the reference for the
flat node table of schema k3fat.trace/2.

`reference_dict(trace)` rebuilds the nested dictionary that `to_dict()`
returned before the node table: the root carries its system and
`certified`, every step lists its four branches, and a node shared by
several steps is expanded again at each of them.  `json.dumps` of it with
`indent=2` gives the schema-1 `to_json()` bytes.

`ref_node_order(root)` walks the tree from the root and lists its distinct
nodes in DFS preorder, surface branch before surface hat branch: the order
that the rows of the node table, and so `trace.nodes`, must have.
"""
from typing import Dict

from k3fat.core import Key


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
        step = node[7]  # node.step
        if step is not None:
            todo += (step[5], step[4])  # surface_hat_node, then surface_node
    return order


def _planar_leaf_dict(leaf):
    return {
        "delta": leaf.system.degree,
        "vdim": leaf.vdim,
        "edim": leaf.edim,
        "dim": leaf.dim,
        "status": leaf.status.value,
    }


def _branch_summary(node):
    out = {
        "vdim": node.vdim,
        "edim": node.edim,
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
            "planar": _planar_leaf_dict(step.planar_leaf),
            "planar_hat": _planar_leaf_dict(step.planar_hat_leaf),
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
        "edim": node.edim,
        "dim": node.dim,
        "status": node.status.value,
        "certified": node.certified,
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
