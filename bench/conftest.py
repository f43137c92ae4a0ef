import sys
from pathlib import Path

# The self-tests exercise the checkout's own package, as the benchmark does.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
