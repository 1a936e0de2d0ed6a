"""The arithmetic kernel that the series layer calls.

There is one kernel, the pure-Python ``_kernel_py``.  Only ``series`` calls
it, as ``_backend.kernel``, where a tracer can wrap its functions at once.
"""

from . import _kernel_py as kernel  # noqa: F401
