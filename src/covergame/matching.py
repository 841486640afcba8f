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
the LCM of their denominators, so b, the gains and the totals are ints,
and c(S) is the int total over L; the cover's edges do not depend on L.
``max_weight_matching`` scales its own gains the same way (by 1 for
``gallai_cover``'s). Duals and slacks are kept doubled, so a dual only
moves by + and -; the one halving, of the slack between two S-blossoms,
is exact on ints, and an odd slack raises RuntimeError. No value passes
through float.

Each matching is checked against its final duals before it is returned:
every dual is nonnegative, every edge has nonnegative slack, matched edges
are tight, unmatched vertices have dual 0, and only full blossoms carry a
positive dual. The cover the matching gives must cover the coalition and
weigh exactly the sum of b less the matching's gain. A failed check raises
RuntimeError. The module imports nothing of the package but ``graphs``,
and only ``game``'s allocation and ratio load it."""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Iterable, Sequence

from .graphs import Edge, WeightedGraph, coalition


def max_weight_matching(
    vertex_count: int, edges: Sequence[tuple[int, int, int | Fraction]]
) -> list[int]:
    """A maximum-gain matching on vertices 0..vertex_count-1, as a mate
    list (-1 for an unmatched vertex). ``edges`` holds (u, v, gain) with
    u != v, each pair once, each gain an int or a Fraction. Edges of gain
    <= 0 never help, so the search skips them; the certificate still checks
    them. Raises RuntimeError unless the final duals certify the matching."""
    n = vertex_count
    scale = lcm(*(w.denominator for _, _, w in edges))
    edges = [(u, v, w.numerator * (scale // w.denominator)) for u, v, w in edges]
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
    _check_optimum(n, edges, mate, dual, parent)
    return mate


def _check_optimum(n: int, edges, mate: list[int], dual: list[int], parent: list[int]) -> None:
    """Check the matching against its duals (vertex duals doubled), over
    every edge with its scaled gain; RuntimeError on the first failure."""
    if any(d < 0 for d in dual):
        raise RuntimeError("matching certificate: a dual is negative")

    def chain(v: int) -> list[int]:  # v's blossoms, outermost first
        out = [v]
        while parent[out[-1]] >= 0:
            out.append(parent[out[-1]])
        return out[::-1]

    matched_edges = 0
    for u, v, w in edges:
        s = dual[u] + dual[v] - 2 * w
        for a, b in zip(chain(u), chain(v)):
            if a != b:
                break
            s += 2 * dual[a]
        if s < 0:
            raise RuntimeError(f"matching certificate: edge {(u, v)} has negative slack")
        if mate[u] == v:
            if mate[v] != u or s != 0:
                raise RuntimeError(f"matching certificate: matched edge {(u, v)} is not tight")
            matched_edges += 1
    if 2 * matched_edges != sum(1 for x in mate if x >= 0):
        raise RuntimeError("matching certificate: a mate pair is not a given edge")
    if any(mate[v] < 0 and dual[v] != 0 for v in range(n)):
        raise RuntimeError("matching certificate: an unmatched vertex has a positive dual")
    members: dict[int, set[int]] = {}  # blossom -> its vertices
    for v in range(n):
        for b in chain(v)[:-1]:
            members.setdefault(b, set()).add(v)
    for b, inside in members.items():
        if dual[b] > 0 and sum(1 for v in inside if mate[v] in inside) != len(inside) - 1:
            raise RuntimeError("matching certificate: a blossom with a positive dual is not full")


def gallai_cover(
    g: WeightedGraph, members: Iterable[int] | None = None
) -> tuple[Fraction, tuple[Edge, ...]]:
    """c(S) and a minimum cover of S, as its sorted edges: a maximum-gain
    matching of G[S] plus the cheapest candidate edge of each member it
    leaves unmatched, ties to the lowest edge key. Raises RuntimeError
    unless the matching is certified and the cover covers S and weighs
    exactly the sum of b less the matching's gain."""
    s = coalition(g, g.vertices() if members is None else members)
    candidates = [e for e in g.edges if e[0] in s or e[1] in s]
    weights = [g.weight(*e) for e in candidates]
    scale = lcm(*(w.denominator for w in weights))
    scaled = {e: w.numerator * (scale // w.denominator) for e, w in zip(candidates, weights)}
    cheapest: dict[int, tuple[int, Edge]] = {}  # member -> (scaled weight, edge), first in edge order
    for e, w in scaled.items():
        for v in e:
            if v in s and (v not in cheapest or w < cheapest[v][0]):
                cheapest[v] = (w, e)
    inner = [(e, w) for e, w in scaled.items() if e[0] in s and e[1] in s]
    mate = max_weight_matching(
        g.vertex_count, [(u, v, cheapest[u][0] + cheapest[v][0] - w) for (u, v), w in inner]
    )
    total = sum(cheapest[v][0] for v in s)
    cover = set()
    for (u, v), w in inner:
        if mate[u] == v:
            total -= cheapest[u][0] + cheapest[v][0] - w
            cover.add((u, v))
    cover.update(cheapest[v][1] for v in s if mate[v] < 0)
    if not s <= {v for e in cover for v in e}:
        raise RuntimeError("Gallai cover leaves a coalition member uncovered")
    if sum(scaled[e] for e in cover) != total:
        raise RuntimeError("Gallai cover weight differs from the matching's bound")
    return Fraction(total, scale), tuple(sorted(cover))
