"""Integer max flow (Dinic 1970) and min-cut sides. Exact, no floats.

Every maximum flow leaves the same residual reach from the source and to the
sink, so the two min-cut sides do not depend on which one max_flow finds.
"""

from __future__ import annotations

from collections import deque


class MaxFlow:
    def __init__(self, node_count: int):
        self.node_count = node_count
        self.adj: list[list[list[int]]] = [[] for _ in range(node_count)]

    def add_edge(self, u: int, v: int, cap: int) -> None:
        # arc record: [to, remaining capacity, index of reverse arc]
        self.adj[u].append([v, cap, len(self.adj[v])])
        self.adj[v].append([u, 0, len(self.adj[u]) - 1])

    def _levels(self, s: int) -> list[int]:
        """Breadth-first levels from s over the residual arcs, -1 where unreached."""
        level = [-1] * self.node_count
        level[s] = 0
        queue = deque([s])
        while queue:
            x = queue.popleft()
            for arc in self.adj[x]:
                if arc[1] > 0 and level[arc[0]] < 0:
                    level[arc[0]] = level[x] + 1
                    queue.append(arc[0])
        return level

    def max_flow(self, s: int, t: int) -> int:
        """The value of a maximum s-t flow, left in the residual capacities.

        Each phase finds a blocking flow on the level graph of _levels with
        one depth-first search that keeps its path from s as a list of arc
        records. After a push it resumes at the tail of the first arc the
        push saturated, the one nearest s, and cuts the path there; a node
        with no admissible arc left gets level -1, and the search steps back
        one arc. it[x] is the next arc of x to try.
        """
        adj = self.adj
        total = 0
        while True:
            level = self._levels(s)
            if level[t] < 0:
                return total
            it = [0] * self.node_count
            path: list[list[int]] = []
            x = s
            while True:
                if x == t:
                    pushed = min(arc[1] for arc in path)
                    total += pushed
                    for arc in path:
                        arc[1] -= pushed
                        adj[arc[0]][arc[2]][1] += pushed
                    cut = next(i for i, arc in enumerate(path) if not arc[1])
                    x = path[cut - 1][0] if cut else s
                    del path[cut:]
                    continue
                arcs, i, next_level = adj[x], it[x], level[x] + 1
                while i < len(arcs):
                    arc = arcs[i]
                    if arc[1] > 0 and level[arc[0]] == next_level:
                        break
                    i += 1
                it[x] = i
                if i < len(arcs):
                    path.append(arc)
                    x = arc[0]
                elif x == s:
                    break
                else:
                    level[x] = -1
                    path.pop()
                    x = path[-1][0] if path else s
                    it[x] += 1

    def min_cut_source_side(self, s: int) -> set[int]:
        """Residual-reachable nodes after max_flow: the smallest source side
        of a minimum cut."""
        return {x for x, depth in enumerate(self._levels(s)) if depth >= 0}

    def min_cut_sink_side(self, t: int) -> set[int]:
        """Nodes that reach t in the residual graph after max_flow: the
        smallest sink side of a minimum cut. Every other node is on the
        source side of some minimum cut, so the rest is their union."""
        seen = {t}
        queue = deque([t])
        while queue:
            y = queue.popleft()
            for x, _, rev in self.adj[y]:
                # the arc x -> y is the reverse of this one
                if x not in seen and self.adj[x][rev][1] > 0:
                    seen.add(x)
                    queue.append(x)
        return seen
