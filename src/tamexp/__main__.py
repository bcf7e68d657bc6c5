"""`python -m tamexp`: the command-line driver of `tamexp.cli`."""

from .cli import main

raise SystemExit(main())
