"""Integer max-flow (Dinic) with min-cut extraction. Exact, no floats."""

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

    def _push(self, s: int, t: int, level: list[int], it: list[int]) -> int:
        # iterative DFS for one blocking-flow augmentation
        path: list[tuple[int, int]] = []
        x = s
        while True:
            if x == t:
                pushed = min(self.adj[u][i][1] for u, i in path)
                for u, i in path:
                    arc = self.adj[u][i]
                    arc[1] -= pushed
                    self.adj[arc[0]][arc[2]][1] += pushed
                return pushed
            advanced = False
            while it[x] < len(self.adj[x]):
                arc = self.adj[x][it[x]]
                if arc[1] > 0 and level[arc[0]] == level[x] + 1:
                    path.append((x, it[x]))
                    x = arc[0]
                    advanced = True
                    break
                it[x] += 1
            if not advanced:
                if x == s:
                    return 0
                level[x] = -1
                u, _ = path.pop()
                x = u
                it[x] += 1

    def max_flow(self, s: int, t: int) -> int:
        total = 0
        while True:
            level = self._levels(s)
            if level[t] < 0:
                return total
            it = [0] * self.node_count
            while True:
                pushed = self._push(s, t, level, it)
                if pushed == 0:
                    break
                total += pushed

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
