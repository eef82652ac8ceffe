import sys
from pathlib import Path

# The benchmark imports the package from the checkout's src/, as run.py does.
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
