"""Cycle detection and simple-cycle enumeration (Johnson's algorithm).

Used for:

* witness extraction in the deadlock analysis (the illegitimate cycles of
  Example 4.3, Figure 3);
* pseudo-livelock enumeration, where each simple cycle of a projection
  multigraph names one pseudo-livelock subset (Definition 5.13).
"""

from __future__ import annotations

from collections.abc import Hashable, Iterator, Sequence

from repro.graphs.digraph import Digraph
from repro.graphs.scc import strongly_connected_components


def has_cycle(graph: Digraph) -> bool:
    """Whether *graph* contains any directed cycle (self-loops count)."""
    for component in strongly_connected_components(graph):
        if len(component) > 1:
            return True
        node = component[0]
        if graph.has_edge(node, node):
            return True
    return False


def simple_cycles(graph: Digraph,
                  max_length: int | None = None) -> Iterator[list[Hashable]]:
    """Enumerate simple cycles of *graph* as node lists.

    A cycle ``[v0, v1, ..., vk]`` denotes the edge sequence
    ``v0 -> v1 -> ... -> vk -> v0``.  Self-loops are emitted as ``[v]``.
    Parallel edges do not multiply node cycles here; callers that need
    edge-resolved cycles (the pseudo-livelock enumeration does) should use
    :func:`simple_edge_cycles`.

    Unbounded enumeration uses Johnson's algorithm restricted, at each outer
    step, to the SCC of the current root.  With a *max_length* bound a plain
    ordered DFS is used instead: Johnson's blocking bookkeeping is unsound
    under depth cut-offs (a node blocked on a too-long path would suppress a
    short cycle elsewhere).
    """
    if max_length is not None:
        yield from _bounded_simple_cycles(graph, max_length)
        return

    # Self-loops first; Johnson's core below operates on loop-free SCCs.
    for node in graph.nodes:
        if graph.has_edge(node, node):
            yield [node]

    remaining = set(graph.nodes)
    order = {node: i for i, node in enumerate(graph.nodes)}

    while remaining:
        sub = graph.induced_subgraph(remaining)
        components = [c for c in strongly_connected_components(sub)
                      if len(c) > 1]
        if not components:
            break
        component = min(components, key=lambda c: min(order[n] for n in c))
        root = min(component, key=lambda n: order[n])
        scc_graph = graph.induced_subgraph(component)

        blocked: set[Hashable] = set()
        block_map: dict[Hashable, set[Hashable]] = {n: set() for n in component}
        path: list[Hashable] = []

        def unblock(node: Hashable) -> None:
            stack = [node]
            while stack:
                current = stack.pop()
                if current in blocked:
                    blocked.discard(current)
                    stack.extend(block_map[current])
                    block_map[current].clear()

        def circuit(node: Hashable) -> Iterator[list[Hashable]]:
            found = False
            path.append(node)
            blocked.add(node)
            for succ in scc_graph.successors(node):
                if succ == node:
                    continue  # self-loops already reported
                if succ == root:
                    yield list(path)
                    found = True
                elif succ not in blocked:
                    if max_length is not None and len(path) >= max_length:
                        continue
                    sub_found = False
                    for cycle in circuit(succ):
                        yield cycle
                        sub_found = True
                    found = found or sub_found
            if found:
                unblock(node)
            else:
                for succ in scc_graph.successors(node):
                    if succ != node:
                        block_map[succ].add(node)
            path.pop()
            return

        yield from circuit(root)
        remaining.discard(root)


def _bounded_simple_cycles(graph: Digraph,
                           max_length: int) -> Iterator[list[Hashable]]:
    """All simple cycles of length <= *max_length* via ordered DFS.

    Each cycle is reported exactly once by rooting it at its smallest node
    (in graph insertion order) and never descending into smaller nodes.
    """
    order = {node: i for i, node in enumerate(graph.nodes)}
    for root in graph.nodes:
        if graph.has_edge(root, root):
            yield [root]
        if max_length < 2:
            continue
        path = [root]
        on_path = {root}

        def dfs(node: Hashable) -> Iterator[list[Hashable]]:
            for succ in sorted(graph.successors(node), key=order.__getitem__):
                if succ == root and len(path) >= 2:
                    yield list(path)
                elif (succ not in on_path and order[succ] > order[root]
                        and len(path) < max_length):
                    path.append(succ)
                    on_path.add(succ)
                    yield from dfs(succ)
                    on_path.discard(succ)
                    path.pop()

        yield from dfs(root)


def simple_edge_cycles(
        graph: Digraph,
        max_length: int | None = None,
) -> Iterator[list[tuple[Hashable, Hashable, Hashable]]]:
    """Enumerate simple cycles resolved down to individual parallel edges.

    Yields each cycle as a list of ``(source, target, key)`` edges.  A node
    cycle with parallel edges expands into one edge cycle per combination,
    which is what pseudo-livelock enumeration needs: two local transitions
    with identical write projections are distinct pseudo-livelock members.
    """
    for node_cycle in simple_cycles(graph, max_length=max_length):
        pairs = [(node_cycle[i], node_cycle[(i + 1) % len(node_cycle)])
                 for i in range(len(node_cycle))]
        choices: list[list[tuple[Hashable, Hashable, Hashable]]] = [
            [(s, t, k) for k in sorted(graph.edge_keys(s, t), key=repr)]
            for s, t in pairs
        ]
        yield from _product(choices)


def _product(choices: list[list[tuple]]) -> Iterator[list[tuple]]:
    """Cartesian product of per-position edge choices, as lists."""
    if not choices:
        return
    indices = [0] * len(choices)
    while True:
        yield [choices[i][indices[i]] for i in range(len(choices))]
        pos = len(choices) - 1
        while pos >= 0:
            indices[pos] += 1
            if indices[pos] < len(choices[pos]):
                break
            indices[pos] = 0
            pos -= 1
        if pos < 0:
            return


def find_cycle_through(graph: Digraph, node: Hashable,
                       max_length: int | None = None) -> list[Hashable] | None:
    """A shortest directed cycle through *node*, or ``None``.

    Returned in the same node-list convention as :func:`simple_cycles`.
    Runs a BFS from *node* back to itself.
    """
    if node not in graph:
        return None
    if graph.has_edge(node, node):
        return [node]
    parents: dict[Hashable, Hashable] = {}
    frontier = [node]
    depth = 0
    visited = {node}
    while frontier:
        depth += 1
        if max_length is not None and depth > max_length:
            return None
        next_frontier = []
        for current in frontier:
            for succ in graph.successors(current):
                if succ == node:
                    path = [current]
                    while path[-1] != node:
                        path.append(parents[path[-1]])
                    path.reverse()
                    return path
                if succ not in visited:
                    visited.add(succ)
                    parents[succ] = current
                    next_frontier.append(succ)
        frontier = next_frontier
    return None


def csr_cycle_through(succ_off: Sequence[int], succ_flat: Sequence[int],
                      member: Sequence[int], node: int) -> list[int] | None:
    """A shortest cycle through *node* inside the vertices where
    *member* is nonzero, on a CSR graph (see
    :func:`repro.graphs.scc.csr_components`).

    The same BFS as :func:`find_cycle_through` on the induced subgraph,
    scanning each row in CSR order, so both return the same cycle.
    Only the vertices the search reaches get a parent entry.
    """
    parents = {node: node}
    frontier = [node]
    while frontier:
        next_frontier = []
        for current in frontier:
            for position in range(succ_off[current], succ_off[current + 1]):
                succ = succ_flat[position]
                if not member[succ]:
                    continue
                if succ == node:
                    path = [current]
                    while path[-1] != node:
                        path.append(parents[path[-1]])
                    path.reverse()
                    return path
                if succ not in parents:
                    parents[succ] = current
                    next_frontier.append(succ)
        frontier = next_frontier
    return None
