"""numpy, executed on its first attribute read when qdelta is imported before
it, so that the commands computing on Python floats alone (ss, --version,
--help) never execute it. Bind it with `from ._lazy import np`: `import numpy`
reads the lazy module's __spec__, which executes it at once."""

import importlib.util
import sys

if "numpy" in sys.modules:
    np = sys.modules["numpy"]
else:  # importlib's lazy import, registered first: numpy's relative imports need it
    _spec = importlib.util.find_spec("numpy")
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    np = sys.modules["numpy"] = importlib.util.module_from_spec(_spec)
    _spec.loader.exec_module(np)
