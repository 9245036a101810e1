"""Test-only reference implementations the production code is checked against.

* :mod:`tests.oracle.intervals` — merge/intersect/subtract algebra over
  ``(n, 2)`` interval arrays,
* :mod:`tests.oracle.metrics` — the per-channel / per-package /
  per-request metrics pass built on it.

Nothing under ``src/`` imports these modules.
"""
