"""Print the seconds a fresh interpreter spends before its first `decide`:
importing `toralconj` and loading one workload's pairs.

    python3 decidebench/setup_probe.py <workload>
"""

import sys
import time

if __name__ == "__main__":
    start = time.perf_counter()
    from pathlib import Path

    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import toralconj  # noqa: F401
    from corpus import load

    load(sys.argv[1])
    print(time.perf_counter() - start)
