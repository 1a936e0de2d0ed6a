"""The lifted scalar format stays inside the series layer.

``series.py`` is the one module that calls the arithmetic kernel
(``_kernel_py``, reached as ``_backend.kernel``) and the one that reads a
series value's lift or its private fields.  Every other module of the
package multiplies and sums scalars through the series API and
``series.ProductSums``, so a second copy of the lifted arithmetic cannot
grow outside it unseen.  Inside it, the kernel keeps one rational
arithmetic, whose public functions are pinned here.
"""

import ast
import pathlib
import re

import pytest

PACKAGE = pathlib.Path(__file__).parents[1] / "src" / "sl2star"
KERNEL_SIDE = {"series.py", "_kernel_py.py", "_backend.py"}
FORBIDDEN = re.compile(
    r"_backend|_kernel_py|kernel\.|\.lifted\(|\._wrap|\._bound|\._SPAN")

MODULES = sorted(p.name for p in PACKAGE.glob("*.py")
                 if p.name not in KERNEL_SIDE)


def test_the_scan_sees_every_module():
    assert {"ncalg.py", "coalg.py", "uhsl2.py", "checks.py", "cli.py"} \
        <= set(MODULES)
    assert KERNEL_SIDE <= {p.name for p in PACKAGE.glob("*.py")}


@pytest.mark.parametrize("name", MODULES)
def test_only_the_series_layer_reaches_the_kernel(name):
    text = (PACKAGE / name).read_text()
    hits = [f"{name}:{i}: {line.strip()}"
            for i, line in enumerate(text.splitlines(), 1)
            if FORBIDDEN.search(line)]
    assert not hits, "\n".join(hits)


def test_the_kernel_keeps_one_arithmetic():
    """The kernel's public functions: a second rational arithmetic beside
    lift, one lifted step and reduce cannot grow back unseen."""
    tree = ast.parse((PACKAGE / "_kernel_py.py").read_text())
    names = {node.name for node in tree.body
             if isinstance(node, ast.FunctionDef)
             and not node.name.startswith("_")}
    assert names == {"qnorm", "limit", "lift", "convolve", "add_lifted",
                     "cancel", "reduce", "s_add", "s_mul"}
