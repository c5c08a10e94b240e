"""`python -m semsched`: the same entry point as the `semsched` script."""

import sys

from semsched.cli import main

sys.exit(main())
