"""Path set-up for the spine's own tests.

Run with ``pytest benchmarks/spine/tests``; not part of the tier-1 suite.
"""

import sys
from pathlib import Path

SPINE = Path(__file__).resolve().parents[1]
if str(SPINE) not in sys.path:
    sys.path.insert(0, str(SPINE))

import spine_config  # noqa: E402

spine_config.use_checkout()
