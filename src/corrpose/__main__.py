"""``python -m corrpose``: the command-line runner of :mod:`corrpose.cli`."""
from .cli import main

raise SystemExit(main())
