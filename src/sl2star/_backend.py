"""The arithmetic kernel that the series layer calls.

There is one kernel, the pure-Python ``_kernel_py``.  Callers reach it as
``_backend.kernel`` so that a tracer can wrap its functions in one place.
"""

from . import _kernel_py as kernel  # noqa: F401
