"""`python -m rarcheck`: the command-line driver (see cli.py)."""

from .cli import main

main()
