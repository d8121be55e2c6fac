"""One set-up measurement in a fresh interpreter.

    python3 perfbench/setup_probe.py SRC_DIR CONFIG_JSON

numpy is imported first; the timed part is ``import radhydro``,
``parse_config``, ``build_limit_initial`` and ``build_shapes``. Prints
one JSON object with ``setup_s``.
"""

import json
import sys
import time

import numpy  # noqa: F401  (imported before the clock starts)

src, raw = sys.argv[1], json.loads(sys.argv[2])
sys.path.insert(0, src)
start = time.perf_counter()
import radhydro  # noqa: E402
from radhydro.config import build_limit_initial, build_shapes, parse_config  # noqa: E402

config = parse_config(raw)
build_limit_initial(config)
build_shapes(config)
elapsed = time.perf_counter() - start
print(json.dumps({"setup_s": elapsed, "radhydro": radhydro.__file__}))
