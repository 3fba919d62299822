"""Command-line entry point for ``python -m geomind``."""
from .cli import entry

if __name__ == "__main__":
    entry()
