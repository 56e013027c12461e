"""Parameterized ring protocol model (Section 2 of the paper).

A parameterized protocol ``p(K)`` is described by a *representative process*
(:class:`ProcessTemplate`) — the variables each process owns, the window of
neighbouring processes it reads, and its guarded-command actions — together
with a locally conjunctive set of legitimate states given as a local
predicate ``LC_r``.

The model supports:

* unidirectional rings (each process reads its predecessor and itself) and
  bidirectional rings (predecessor, itself, successor), and more generally
  any contiguous read window;
* one or more finite-domain variables owned per process;
* deterministic and nondeterministic guarded commands, written either as
  Python callables or in a small guarded-command text DSL
  (:func:`repro.protocol.dsl.parse_action`);
* instantiation to a concrete ring of ``K`` processes
  (:meth:`RingProtocol.instantiate`).
"""

from repro import _lazy

__all__ = _lazy.exports(globals(), {
    "variables": ("Variable",),
    "localstate": ("LocalState", "LocalStateSpace", "LocalView"),
    "actions": ("Action", "LocalTransition"),
    "process": ("ProcessTemplate",),
    "ring": ("RingProtocol",),
    "instance": ("RingInstance",),
    "dsl": ("parse_action", "parse_predicate"),
})
