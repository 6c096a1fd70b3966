"""obibench: the wall-clock benchmark of this OBIWAN reproduction.

Four workloads over real localhost sockets, fifteen end-to-end metrics
measured with tracing off, and a per-layer ledger from a separate traced
run.  ``BENCHMARK.json`` at the repository root is the definition;
``obibench/README.md`` says why each workload and metric exists.

The program under test lives in ``src/`` beside this package.  It is put
on ``sys.path`` here so that ``python3 -m obibench`` works from a bare
checkout without ``PYTHONPATH``; a checkout without it fails on the
first ``import repro``.
"""

import sys
from pathlib import Path

_SRC = Path(__file__).resolve().parent.parent / "src"
if _SRC.is_dir() and str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))
