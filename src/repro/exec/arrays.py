"""Array-backend seam for the columnar executor.

numpy is an *accelerator*, never a dependency.  Every columnar code
path has a pure-python fallback, selected automatically when numpy is
missing or forced with ``REPRO_EXEC_FORCE_FALLBACK=1`` (the differential
test suite runs both ways).

Numeric columns are lowered to ``float64`` lanes.  IEEE-754 doubles make
elementwise ``+ - * /`` and the six comparisons bit-identical to the
python-float semantics of :func:`repro.algebra.values.sql_arith` /
:func:`~repro.algebra.values.sql_compare`, which is what lets the
columnar backend promise row-set equality with the interpreter.  The one
deliberate divergence: python ints are arbitrary precision, float64
lanes are not — integer arithmetic beyond 2^53 would lose exactness.
Query results compare through :func:`~repro.algebra.values.group_key`
(integral floats normalise to int), so within the exact range the
backends stay row-set identical.
"""

from __future__ import annotations

import os

try:  # pragma: no cover - exercised via the numpy-less fallback suite
    import numpy as _np
except ImportError:  # pragma: no cover
    _np = None

HAVE_NUMPY = _np is not None

#: environment switch forcing the pure-python path (tests, debugging).
FORCE_FALLBACK_ENV = "REPRO_EXEC_FORCE_FALLBACK"


def numpy_module():
    """The numpy module when the accelerated path is active, else None."""
    if _np is None:
        return None
    if os.environ.get(FORCE_FALLBACK_ENV, "").strip() not in ("", "0"):
        return None
    return _np


def using_numpy() -> bool:
    """Whether the columnar executor currently runs on numpy lanes."""
    return numpy_module() is not None
