"""Golden references for the production fast paths.

Each module keeps, verbatim, the straightforward implementation a fast
path in ``src/`` was derived from.  They are not production code: the
equivalence tests and the throughput benchmarks compare the fast paths
against them bit for bit.

* :mod:`tests.reference.compile` — the from-scratch compile loop the
  prefix trie is pinned against;
* :mod:`tests.reference.cost_model` — the scalar traffic and roofline
  formulas behind the batch cost model;
* :mod:`tests.reference.tuner` — the pre-fast-path tuning loop.

``tests/conftest.py`` and ``benchmarks/conftest.py`` put the repository
root on ``sys.path``, so both suites import this package when run alone.
"""
