"""``python -m qnetfid``: the command-line front end (see :mod:`qnetfid.cli`)."""

import sys

from .cli import main

sys.exit(main())
