"""Strongly connected components via Tarjan's algorithm (iterative).

The deadlock-freedom decision procedure (Theorem 4.2) reduces to: *does any
SCC of the deadlock-induced RCG both contain an illegitimate local state and
contain a cycle?*  An SCC contains a cycle iff it has more than one node or
its single node carries a self-loop.

The same algorithm runs on three graph forms: a :class:`Digraph` over
hashable nodes, bitmask rows over a small local state space
(:func:`masked_cyclic_mask`), and CSR arrays over a global state space
(:func:`csr_components`, the global checker's livelock and ranking
analyses).
"""

from __future__ import annotations

from array import array
from collections.abc import Hashable, Iterator, Sequence

from repro.graphs.digraph import Digraph


def strongly_connected_components(graph: Digraph) -> list[list[Hashable]]:
    """Return the SCCs of *graph* as lists of nodes.

    Components are returned in reverse topological order (every edge between
    components points from a later component to an earlier one), which is
    the order Tarjan's algorithm naturally emits.

    The implementation is iterative so that local state spaces with long
    chains do not overflow the Python recursion limit.
    """
    index_of: dict[Hashable, int] = {}
    lowlink: dict[Hashable, int] = {}
    on_stack: set[Hashable] = set()
    stack: list[Hashable] = []
    components: list[list[Hashable]] = []
    counter = 0

    for root in graph.nodes:
        if root in index_of:
            continue
        # Each frame is (node, iterator over successors).
        work = [(root, iter(list(graph.successors(root))))]
        index_of[root] = lowlink[root] = counter
        counter += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, successors = work[-1]
            advanced = False
            for succ in successors:
                if succ not in index_of:
                    index_of[succ] = lowlink[succ] = counter
                    counter += 1
                    stack.append(succ)
                    on_stack.add(succ)
                    work.append((succ, iter(list(graph.successors(succ)))))
                    advanced = True
                    break
                if succ in on_stack:
                    lowlink[node] = min(lowlink[node], index_of[succ])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
            if lowlink[node] == index_of[node]:
                component = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                components.append(component)
    return components


def condensation(graph: Digraph) -> tuple[Digraph, dict[Hashable, int]]:
    """Condense *graph* by its SCCs.

    Returns ``(dag, membership)`` where ``dag`` is a :class:`Digraph` whose
    nodes are component indices and ``membership`` maps each original node
    to its component index.
    """
    components = strongly_connected_components(graph)
    membership = {node: idx
                  for idx, component in enumerate(components)
                  for node in component}
    dag = Digraph(nodes=range(len(components)))
    for source, target, _key in graph.edges():
        cs, ct = membership[source], membership[target]
        if cs != ct and not dag.has_edge(cs, ct):
            dag.add_edge(cs, ct)
    return dag, membership


def masked_cyclic_mask(succ_masks: list[int], alive: int) -> int:
    """Vertices on a directed cycle of a bit-packed induced subgraph.

    *succ_masks* gives each vertex's successor set as a bitmask over
    vertex indices; *alive* selects the induced subgraph.  Returns the
    union mask of all cyclic SCCs (more than one vertex, or a self-loop)
    — the primitive behind the Theorem 4.2 check and the
    branch-and-bound feedback-vertex-set search, replacing a
    ``Digraph.induced_subgraph`` rebuild plus Tarjan over hashed nodes
    with shift-and-mask arithmetic on Python ints.
    """
    index_of: dict[int, int] = {}
    lowlink: dict[int, int] = {}
    on_stack: set[int] = set()
    stack: list[int] = []
    counter = 0
    cyclic = 0

    todo = alive
    while todo:
        root_bit = todo & -todo
        todo &= todo - 1
        root = root_bit.bit_length() - 1
        if root in index_of:
            continue
        work = [[root, succ_masks[root] & alive]]
        index_of[root] = lowlink[root] = counter
        counter += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            frame = work[-1]
            node = frame[0]
            remaining = frame[1]
            advanced = False
            while remaining:
                bit = remaining & -remaining
                remaining &= remaining - 1
                succ = bit.bit_length() - 1
                if succ not in index_of:
                    frame[1] = remaining
                    index_of[succ] = lowlink[succ] = counter
                    counter += 1
                    stack.append(succ)
                    on_stack.add(succ)
                    work.append([succ, succ_masks[succ] & alive])
                    advanced = True
                    break
                if succ in on_stack and index_of[succ] < lowlink[node]:
                    lowlink[node] = index_of[succ]
            if advanced:
                continue
            work.pop()
            if work and lowlink[node] < lowlink[work[-1][0]]:
                lowlink[work[-1][0]] = lowlink[node]
            if lowlink[node] != index_of[node]:
                continue
            component = 0
            size = 0
            while True:
                member = stack.pop()
                on_stack.discard(member)
                component |= 1 << member
                size += 1
                if member == node:
                    break
            if size > 1 or (succ_masks[node] >> node) & 1:
                cyclic |= component
    return cyclic


def csr_components(succ_off: Sequence[int], succ_flat: Sequence[int],
                   keep: Sequence[int]) -> Iterator[list[int]]:
    """SCCs of a CSR graph's subgraph induced by the mask *keep*.

    Vertex ``v``'s successors are ``succ_flat[succ_off[v]:succ_off[v +
    1]]``; ``keep[v]`` is nonzero for the vertices of the subgraph.
    Components are yielded lazily, in Tarjan's emission (reverse
    topological) order, so a caller that needs only the first cyclic
    one stops the walk there.  Roots are tried in ascending index and a
    root with no successors at all is skipped: it is a trivial
    component that no cycle passes through, and it is still emitted if
    a later root reaches it.  The bookkeeping — visit numbers,
    lowlinks, the Tarjan stack and the DFS path — lives in flat
    ``array('q')`` buffers and a bytearray, never in per-vertex
    objects, so the walk allocates ``O(n)`` machine words whatever the
    graph.
    """
    n = len(keep)
    order = array("q", [0]) * n  # visit number, 0 = unvisited
    low = array("q", [0]) * n
    on_stack = bytearray(n)
    stack = array("q")
    # The DFS path: its vertices and each one's next edge position.
    path, resume = array("q"), array("q")
    counter = 0
    for root in range(n):
        if (not keep[root] or order[root]
                or succ_off[root] == succ_off[root + 1]):
            continue
        counter += 1
        order[root] = low[root] = counter
        stack.append(root)
        on_stack[root] = 1
        path.append(root)
        resume.append(succ_off[root])
        while path:
            node = path[-1]
            position = resume[-1]
            end = succ_off[node + 1]
            while position < end:
                succ = succ_flat[position]
                position += 1
                if not keep[succ]:
                    continue
                if not order[succ]:
                    resume[-1] = position
                    counter += 1
                    order[succ] = low[succ] = counter
                    stack.append(succ)
                    on_stack[succ] = 1
                    path.append(succ)
                    resume.append(succ_off[succ])
                    break
                if on_stack[succ] and order[succ] < low[node]:
                    low[node] = order[succ]
            else:
                path.pop()
                resume.pop()
                if path and low[node] < low[path[-1]]:
                    low[path[-1]] = low[node]
                if low[node] == order[node]:
                    component = []
                    while True:
                        member = stack.pop()
                        on_stack[member] = 0
                        component.append(member)
                        if member == node:
                            break
                    yield component


def csr_cyclic_components(succ_off: Sequence[int],
                          succ_flat: Sequence[int],
                          keep: Sequence[int]) -> Iterator[list[int]]:
    """The components of :func:`csr_components` that contain a cycle
    (more than one vertex, or a self-loop), in the same order."""
    for component in csr_components(succ_off, succ_flat, keep):
        if len(component) > 1:
            yield component
            continue
        node = component[0]
        for position in range(succ_off[node], succ_off[node + 1]):
            if succ_flat[position] == node:
                yield component
                break


def cyclic_components(graph: Digraph) -> list[list[Hashable]]:
    """SCCs of *graph* that contain at least one cycle.

    An SCC is *cyclic* iff it has more than one node, or its single node has
    a self-loop.  These are exactly the components through which a directed
    cycle can pass.
    """
    cyclic = []
    for component in strongly_connected_components(graph):
        if len(component) > 1:
            cyclic.append(component)
        else:
            node = component[0]
            if graph.has_edge(node, node):
                cyclic.append(component)
    return cyclic
