"""The differential matrix: every fast engine pinned to its oracle.

The naive engines (the pure-Python global interpreter, the ``Digraph``
trail searcher, the naive synthesis backend) and the flat synthesis
search are reachable only through the API, and only these tests call
them.  The matrix has

* one source table (:mod:`tests.differential.sources`),
* one axes table (:mod:`tests.differential.axes`),
* one naive serial reference per ``(source, analysis)``, computed once
  per session, and one harness that runs a cell and shrinks a
  divergence to a 1-minimal reproducer
  (:mod:`tests.differential.harness`,
  :mod:`tests.differential.shrink`).

The session-scoped ``matrix`` fixture (``tests/conftest.py``) is the
one :class:`~tests.differential.harness.Matrix` of a test run.  The
cells live in ``test_matrix.py`` (the reference, the production
default with one axis changed at a time, and multi-axis combinations)
and in the engine suites that call ``matrix.cell`` under their own
names.
"""
