"""``python -m eotile``: the same command line as the ``eotile`` script."""

import sys

from .cli import main

sys.exit(main())
