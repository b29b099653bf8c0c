"""Start the benchmark's span recorder in every traced process.

``run.py --trace 1`` puts this directory on ``PYTHONPATH`` of the
traced workload only, so Python imports this module at start-up in
that process and in everything it launches: command-line children,
serve daemons, cluster router and shards.  Forked pool workers inherit
the recorder instead.  Untraced runs never see this directory.
"""

import importlib.util
import os
import sys

_PATH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "spans.py")
_SPEC = importlib.util.spec_from_file_location("e2e_spans", _PATH)
_SPANS = importlib.util.module_from_spec(_SPEC)
sys.modules["e2e_spans"] = _SPANS
_SPEC.loader.exec_module(_SPANS)
_SPANS.install_from_env()
