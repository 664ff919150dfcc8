import os
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")


def pytest_configure(config):
    # pyproject's `pythonpath` puts src on this process's path only; the
    # tests that run the CLI in a subprocess need it in the environment.
    os.environ["PYTHONPATH"] = os.pathsep.join(
        part for part in (SRC, os.environ.get("PYTHONPATH")) if part)
