#!/usr/bin/env python3
"""Walk through the degeneration recursion on concrete systems.

Each recursion step degenerates the surface into its blow-up at b points
plus b planes, splits the system into four branch systems for a matching
degree k, and recombines their dimensions along the matching curves.  The
recombined fiber dimension l0 bounds the true dimension from above, and
l0 == edim certifies the system is non-special.
"""
from k3fat import K3System, Status, classify, edim, recurse
from k3fat.classify import base_gamma4


def base(gamma, d, mu):
    return base_gamma4(d, mu)


def show(node, indent=0):
    pad = "  " * indent
    s = node.system
    head = f"{pad}L^4({s.degree}, {s.multiplicity}^{s.count})"
    print(f"{head}: vdim={node.vdim} dim={node.dim} {node.status.value} [{node.kind}]")
    if node.step is None:
        return
    st = node.step
    print(f"{pad}  step: c={st.c} b={st.b} k={st.k} regime={st.regime.value} "
          f"r_surface={st.r_surface} r_planar={st.r_planar} "
          f"intersection={st.intersection_dim} l0={st.l0}")
    # the planar branches L(k, m^c) and L(k-1, m^c) are non-special
    print(f"{pad}  planar branches: L({st.k}, ...) dim {edim(st.planar_vdim)}; "
          f"L({st.k - 1}, ...) dim {edim(st.planar_hat_vdim)}")
    show(st.surface_node, indent + 1)
    show(st.surface_hat_node, indent + 1)


print("=== Nine simple points in degree 3: non-special of dimension 10 ===")
rep, trace = recurse(K3System.homogeneous(4, 3, 1, 9), base)
show(trace.node)

print("\n=== Four double points in degree 2: certified empty ===")
print("(the surface branch is the SPECIAL single-divisor system of dim 0,")
print(" absorbed by the k = 2d endgame of the negative regime)")
rep, trace = recurse(K3System.homogeneous(4, 2, 2, 4), base)
show(trace.node)

print("\n=== A two-level recursion: 36 points ===")
rep, trace = recurse(K3System.homogeneous(4, 3, 2, 36), base)
show(trace.node)

print("\n=== The open case: nine double points in degree 2 ===")
rep, trace = recurse(K3System.homogeneous(4, 2, 2, 9), base)
show(trace.node)
assert rep.status is Status.UNKNOWN
print("\nThe recursion refuses to certify: 2d = 4 is 1 mod 3 and there is no")
print("power of 4 in n, which is exactly the region the classification leaves")
print("open.  classify() reports the same verdict:")
print(" ", classify(K3System.homogeneous(4, 2, 2, 9)).status)

print("\nTraces serialize to JSON for audit:")
print(trace.to_json())
