"""Run the command-line tool as ``python -m specscan``."""

from .cli import main

raise SystemExit(main())
