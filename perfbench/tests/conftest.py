"""Put the benchmark's modules and the program's sources on the path."""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
PERFBENCH = os.path.dirname(HERE)
for path in (os.path.join(os.path.dirname(PERFBENCH), "src"), PERFBENCH):
    if path not in sys.path:
        sys.path.insert(0, path)
