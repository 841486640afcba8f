"""Integral coalition costs in polynomial time: Edmonds' maximum-weight
blossom algorithm, and Gallai's reduction of a minimum edge cover to it.

Gallai (1959): for a coalition S let b_v be the weight of v's cheapest
candidate edge, the candidates being E[S] and the boundary of S as in
``covers.min_edge_cover_exact``. Some minimum cover is a matching M of
G[S] plus, for each member that M leaves unmatched, its cheapest candidate
edge. So c(S) is the sum of b_v over S less the largest total gain of a
matching of G[S], where edge uv gains b_u + b_v - w_uv.

The matching is Edmonds' primal-dual blossom algorithm (Edmonds 1965,
"Paths, trees, and flowers"). Each stage grows alternating trees from the
unmatched vertices along tight edges only. When no tight edge extends
them, one scan over the positive-gain edges sets the dual step: the least
slack from an S-blossom to a free one, or half the least slack between
two S-blossoms, unless a T-blossom's dual or a vertex dual is smaller.
The edge that sets the step turns tight and its S end is scanned again;
a T-blossom whose dual reaches 0 is expanded; a vertex dual of 0 ends the
search. S-blossoms are kept from stage to stage. A stage takes O(n) steps
of O(m) each, and there are at most n/2 + 1 stages, so the search takes
O(n^2 m) time, which is O(n^3) on sparse graphs.

One int search: ``gallai_cover`` scales the candidate weights once by L,
the LCM of their denominators, so b and the gains are ints, and the
cover's edges do not depend on L. ``max_weight_matching`` takes int gains
only. Duals and slacks are kept doubled, so a dual only moves by + and -;
the one halving, of the slack between two S-blossoms, is exact on ints,
and an odd slack raises RuntimeError. No value passes through float.

Each cost carries one certificate: a dual of the edge-cover LP of S with
odd-set rows (Schrijver, Combinatorial Optimization, ch. 27), read off the
matching's final duals. With pi_v half of vertex v's doubled dual and z_B
the dual of blossom B, set y_v = b_v - pi_v - (the sum of z_B over the
blossoms B that hold v), and give the members U of each blossom B the
odd-set value z_U = z_B. ``gallai_cover`` checks, in ints times 2L, that
y >= 0, z >= 0 and each U is odd; that on every candidate edge the y of
its members plus the z of each U it touches is at most its weight; and
that the sum of y plus the sum of z_U (|U| + 1)/2 equals the cover's
weight, summed from the graph's own Fraction weights. By weak duality the
cover is then minimum, whatever the matching did, and a wrong L shows as
unequal totals. A failed check raises RuntimeError.

Why y >= 0 holds: if v lies in a blossom, the cycle of its innermost
blossom has an edge vu, which stays tight and lies inside every blossom
that holds v. So pi_v + (the z_B of those blossoms) = gain_uv - pi_u <=
b_u + b_v - w_uv <= b_v, since pi_u >= 0 and b_u <= w_uv. A matched v in
no blossom gets the same bound from its matched edge, and an unmatched v
in no blossom ends with pi_v = 0. The check still tests it.

The module imports nothing of the package but ``graphs``, and only
``game``'s allocation and ratio load it."""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Iterable, Sequence

from .graphs import Edge, WeightedGraph, coalition


def max_weight_matching(
    vertex_count: int, edges: Sequence[tuple[int, int, int]]
) -> tuple[list[int], list[int], list[int]]:
    """A maximum-gain matching on vertices 0..vertex_count-1 and its final
    duals: (mate, dual, parent). mate[v] is v's partner, -1 if unmatched;
    dual[v] is twice vertex v's dual, and dual[b] is the dual of blossom b
    (ids n..2n-1); parent[x] is the blossom that holds vertex or blossom x
    directly, -1 at the top. ``edges`` holds (u, v, gain) with u != v, each
    pair once, each gain an int. Edges of gain <= 0 never help, so the
    search skips them."""
    n = vertex_count
    used = [e for e in edges if e[2] > 0]
    tail = [u for u, _, _ in used]
    head = [v for _, v, _ in used]
    twice = [2 * w for _, _, w in used]  # doubled gains, as the duals are
    mate = [-1] * n
    # Ids 0..n-1 are the vertices, n..2n-1 the nontrivial blossoms. dual[v]
    # is twice v's dual; dual[b] is blossom b's own.
    dual = [max((w for _, _, w in used), default=0)] * n + [0] * n
    parent = [-1] * (2 * n)
    incident: list[list[int]] = [[] for _ in range(n)]
    for k, (u, v) in enumerate(zip(tail, head)):
        incident[u].append(k)
        incident[v].append(k)

    children: list = [None] * (2 * n)  # sub-blossoms, base first, round the cycle
    links: list = [None] * (2 * n)  # links[b][i] joins children i and i + 1
    base = list(range(n)) + [-1] * n
    top = list(range(n))  # each vertex's top-level blossom
    free_ids = list(range(2 * n - 1, n - 1, -1))
    # Labels are read on top-level blossoms only.
    label = [0] * (2 * n)  # 0 free, 1 S, 2 T; bit 4 is scan_blossom's breadcrumb
    label_edge: list = [None] * (2 * n)  # (v, w): how w's blossom got its label
    queue: list[int] = []

    def slack(k: int):
        return dual[tail[k]] + dual[head[k]] - twice[k]

    def top_blossoms() -> list[int]:
        return [b for b in range(n, 2 * n) if children[b] is not None and parent[b] < 0]

    def leaves(b: int) -> list[int]:
        out, stack = [], [b]
        while stack:
            t = stack.pop()
            if t < n:
                out.append(t)
            else:
                stack.extend(children[t])
        return out

    def assign_label(w: int, t: int, v: int) -> None:
        # Label w's top-level blossom t (1 S, 2 T), reached from v (-1: none);
        # a T-blossom's base mate becomes S.
        b = top[w]
        label[b], label_edge[b] = t, None if v < 0 else (v, w)
        if t == 1:
            queue.extend(leaves(b))
        else:
            stem = base[b]
            assign_label(mate[stem], 1, stem)

    def scan_blossom(v: int, w: int) -> int:
        # Trace back from S-vertices v and w in turn: the base of the blossom
        # their edge closes, or -1 when the two paths reach two single vertices.
        path, found = [], -1
        while v >= 0:
            b = top[v]
            if label[b] & 4:
                found = base[b]
                break
            path.append(b)
            label[b] = 5
            if label_edge[b] is None:
                v = -1
            else:
                v = label_edge[top[label_edge[b][0]]][0]
            if w >= 0:
                v, w = w, v
        for b in path:
            label[b] = 1
        return found

    def add_blossom(stem: int, v: int, w: int) -> None:
        # The S-blossom closed by edge vw, based at stem; its T-vertices turn S.
        bb, bv, bw = top[stem], top[v], top[w]
        b = free_ids.pop()
        base[b], parent[b], parent[bb] = stem, -1, b
        path, joins = [], [(v, w)]
        while bv != bb:
            parent[bv] = b
            path.append(bv)
            joins.append(label_edge[bv])
            bv = top[label_edge[bv][0]]
        path.append(bb)
        path.reverse()
        joins.reverse()
        while bw != bb:
            parent[bw] = b
            path.append(bw)
            joins.append(label_edge[bw][::-1])
            bw = top[label_edge[bw][0]]
        children[b], links[b] = path, joins
        label[b], label_edge[b], dual[b] = 1, label_edge[bb], 0
        for x in leaves(b):
            if label[top[x]] == 2:
                queue.append(x)
            top[x] = b

    def expand_blossom(b: int) -> None:
        # Free the children of T-blossom b, whose dual reached 0, as top-level
        # blossoms. Walk from the child through which b was reached to its
        # base, relabeling the children on the even side T and S; the others
        # stay free, and the next dual step finds any tight edge into them.
        kids, joins = children[b], links[b]
        for c in kids:
            parent[c] = -1
            for x in leaves(c):
                top[x] = c
        entry = top[label_edge[b][1]]
        j = kids.index(entry)
        step = 1 if j & 1 else -1
        if step == 1:
            j -= len(kids)
        v, w = label_edge[b]
        while j:
            assign_label(w, 2, v)
            j += step
            v, w = joins[j] if step == 1 else joins[j - 1][::-1]
            j += step
        label[kids[j]], label_edge[kids[j]] = 2, (v, w)
        children[b] = links[b] = None
        free_ids.append(b)

    def augment_blossom(b: int, v: int) -> None:
        # Flip the alternating path inside b from vertex v to b's base, which
        # makes v the base; sub-blossoms on the path flip the same way.
        stack = [(b, v)]
        while stack:
            b, v = stack.pop()
            t = v
            while parent[t] != b:
                t = parent[t]
            if t >= n:
                stack.append((t, v))
            kids, joins = children[b], links[b]
            i = j = kids.index(t)
            step = 1 if i & 1 else -1
            if step == 1:
                j -= len(kids)
            while j:
                j += step
                w, x = joins[j] if step == 1 else joins[j - 1][::-1]
                if kids[j] >= n:
                    stack.append((kids[j], w))
                j += step
                if kids[j] >= n:
                    stack.append((kids[j], x))
                mate[w], mate[x] = x, w
            children[b], links[b] = kids[i:] + kids[:i], joins[i:] + joins[:i]
            base[b] = v

    def augment_matching(v: int, w: int) -> None:
        # Flip the augmenting path through the S-vertices v and w.
        for s, j in ((v, w), (w, v)):
            while True:
                bs = top[s]
                if bs >= n:
                    augment_blossom(bs, s)
                mate[s] = j
                if label_edge[bs] is None:
                    break
                bt = top[label_edge[bs][0]]
                s, j = label_edge[bt]
                if bt >= n:
                    augment_blossom(bt, j)
                mate[j] = s

    def half(x: int) -> int:
        if x % 2:
            raise RuntimeError("odd slack between two S-blossoms under integer gains")
        return x // 2

    while True:  # one stage per augmentation
        label[:] = [0] * (2 * n)
        label_edge[:] = [None] * (2 * n)
        queue.clear()
        for v in range(n):
            if mate[v] < 0 and label[top[v]] == 0:
                assign_label(v, 1, -1)
        augmented = False
        while True:  # one dual adjustment per pass
            while queue and not augmented:
                v = queue.pop()
                for k in incident[v]:
                    w = head[k] if tail[k] == v else tail[k]
                    bw = top[w]
                    if bw == top[v] or slack(k) > 0:
                        continue
                    if label[bw] == 0:
                        assign_label(w, 2, v)
                    elif label[bw] == 1:
                        stem = scan_blossom(v, w)
                        if stem >= 0:
                            add_blossom(stem, v, w)
                        else:
                            augment_matching(v, w)
                            augmented = True
                            break
            if augmented:
                break
            # No tight edge extends the search: move the duals by delta, the
            # largest step that keeps them feasible (doubled, as they are).
            # One scan over the edges finds the least slack from an S-blossom
            # to a free one, and half the least between two S-blossoms.
            delta, chosen, expand = min(dual[:n], default=0), -1, -1
            for k, (u, v) in enumerate(zip(tail, head)):
                bu, bv = top[u], top[v]
                if bu == bv:
                    continue
                lu, lv = label[bu], label[bv]
                if lu + lv == 1:  # an S-blossom and a free one
                    d = slack(k)
                elif lu == lv == 1:
                    d = half(slack(k))
                else:
                    continue
                if d < delta:
                    delta, chosen = d, k
            blossoms = top_blossoms()
            for b in blossoms:
                if label[b] == 2 and dual[b] < delta:
                    delta, expand = dual[b], b
            for v in range(n):
                t = label[top[v]]
                if t == 1:
                    dual[v] -= delta
                elif t == 2:
                    dual[v] += delta
            for b in blossoms:
                if label[b] == 1:
                    dual[b] += delta
                elif label[b] == 2:
                    dual[b] -= delta
            if expand >= 0:
                expand_blossom(expand)
            elif chosen >= 0:
                v = tail[chosen]  # the edge is tight now: rescan its S end
                queue.append(v if label[top[v]] == 1 else head[chosen])
            else:  # some vertex dual reached 0: the matching is optimal
                break
        if not augmented:
            break
    return mate, dual, parent


def gallai_cover(
    g: WeightedGraph, members: Iterable[int] | None = None
) -> tuple[Fraction, tuple[Edge, ...]]:
    """c(S) and a minimum cover of S, as its sorted edges: a maximum-gain
    matching of G[S] plus the cheapest candidate edge of each member it
    leaves unmatched, ties to the lowest edge key. Raises RuntimeError
    unless the cover covers S and the covering dual read off the matching's
    duals is feasible and worth exactly the cover's weight."""
    s = coalition(g, g.vertices() if members is None else members)
    weight = {e: g.weight(*e) for e in g.edges if e[0] in s or e[1] in s}
    scale = lcm(*(w.denominator for w in weight.values()))
    scaled = {e: w.numerator * (scale // w.denominator) for e, w in weight.items()}
    cheapest: dict[int, tuple[int, Edge]] = {}  # member -> (scaled weight, edge), first in edge order
    for e, w in scaled.items():
        for v in e:
            if v in s and (v not in cheapest or w < cheapest[v][0]):
                cheapest[v] = (w, e)
    inner = [(e, w) for e, w in scaled.items() if e[0] in s and e[1] in s]
    mate, dual, parent = max_weight_matching(
        g.vertex_count, [(u, v, cheapest[u][0] + cheapest[v][0] - w) for (u, v), w in inner]
    )
    cover = {e for e, _ in inner if mate[e[0]] == e[1]}
    cover.update(cheapest[v][1] for v in s if mate[v] < 0)
    if not s <= {v for e in cover for v in e}:
        raise RuntimeError("Gallai cover leaves a coalition member uncovered")
    # The covering dual, doubled and times L: y[v] is 2y_v, and the members
    # of blossom b form an odd set U with z_U = dual[b].
    chain: dict[int, list[int]] = {v: [] for v in s}  # member -> the blossoms that hold it
    size: dict[int, int] = {}  # blossom -> its member count
    for v in s:
        b = parent[v]
        while b >= 0:
            chain[v].append(b)
            size[b] = size.get(b, 0) + 1
            b = parent[b]
    y = {v: 2 * cheapest[v][0] - dual[v] - 2 * sum(dual[b] for b in chain[v]) for v in s}
    if min(y.values()) < 0 or any(dual[b] < 0 or k % 2 == 0 for b, k in size.items()):
        raise RuntimeError("covering dual: a value is negative or an odd set is even")
    for e, w in scaled.items():
        inside = [v for v in e if v in s]
        touched = {b for v in inside for b in chain[v]}
        if sum(y[v] for v in inside) + 2 * sum(dual[b] for b in touched) > 2 * w:
            raise RuntimeError(f"covering dual: edge {e} is overloaded")
    cost = Fraction(sum(y.values()) + sum(dual[b] * (k + 1) for b, k in size.items()), 2 * scale)
    if sum(weight[e] for e in cover) != cost:
        raise RuntimeError("Gallai cover weight differs from its covering dual's value")
    return cost, tuple(sorted(cover))
