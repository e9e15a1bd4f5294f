"""Dijkstra single-source shortest paths over a dense adjacency matrix.

Irregular control flow (nested loops with data-dependent branches) plus a
linear-scan priority selection — a contrast to the streaming codecs.
"""

from __future__ import annotations

from typing import List

from .base import Workload, _LCG, format_int_array, scale_index

_SCALE_NODES = (8, 16, 28)
INF = 0x3FFFFFFF


def generate_graph(nodes: int, seed: int) -> List[int]:
    """Random dense weighted digraph as a row-major adjacency matrix."""
    rng = _LCG(seed)
    matrix = []
    for i in range(nodes):
        for j in range(nodes):
            if i == j:
                matrix.append(0)
            elif rng.int_range(0, 99) < 55:
                matrix.append(rng.int_range(1, 40))
            else:
                matrix.append(INF)
    return matrix


def dijkstra_reference(matrix: List[int], nodes: int,
                       source: int) -> List[int]:
    dist = [INF] * nodes
    done = [False] * nodes
    dist[source] = 0
    for _ in range(nodes):
        best = -1
        best_dist = INF
        for v in range(nodes):
            if not done[v] and dist[v] < best_dist:
                best, best_dist = v, dist[v]
        if best < 0:
            break
        done[best] = True
        for v in range(nodes):
            weight = matrix[best * nodes + v]
            if weight < INF and dist[best] + weight < dist[v]:
                dist[v] = dist[best] + weight
    return dist


_C_TEMPLATE = """
// Dijkstra shortest paths over a dense adjacency matrix
{graph_def}
int dist[{n}];
int done[{n}];

int dijkstra(int n, int source) {{
    int inf = {inf};
    for (int i = 0; i < n; i += 1) {{ dist[i] = inf; done[i] = 0; }}
    dist[source] = 0;
    for (int round = 0; round < n; round += 1) {{
        int best = -1;
        int best_dist = inf;
        for (int v = 0; v < n; v += 1) {{
            if (!done[v] && dist[v] < best_dist) {{
                best = v;
                best_dist = dist[v];
            }}
        }}
        if (best < 0) break;
        done[best] = 1;
        for (int v = 0; v < n; v += 1) {{
            int w = graph[best * n + v];
            if (w < inf && dist[best] + w < dist[v]) {{
                dist[v] = dist[best] + w;
            }}
        }}
    }}
    return 0;
}}

int main() {{
    int n = {n};
    dijkstra(n, 0);
    int reachable = 0;
    int total = 0;
    int far = 0;
    for (int v = 0; v < n; v += 1) {{
        if (dist[v] < {inf}) {{
            reachable += 1;
            total += dist[v];
            if (dist[v] > far) far = dist[v];
        }}
    }}
    print_int(reachable);
    print_int(total);
    print_int(far);
    return 0;
}}
"""


def make_dijkstra(scale: str = "small") -> Workload:
    nodes = _SCALE_NODES[scale_index(scale)]
    matrix = generate_graph(nodes, seed=58)
    dist = dijkstra_reference(matrix, nodes, 0)
    finite = [d for d in dist if d < INF]
    expected = [len(finite), sum(finite), max(finite)]
    source = _C_TEMPLATE.format(
        n=nodes, inf=INF,
        graph_def=format_int_array("graph", matrix))
    return Workload(name="dijkstra",
                    description="Dijkstra shortest paths (dense graph)",
                    c_source=source, expected_output=expected)
