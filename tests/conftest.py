"""One group pipeline cache shared across the test modules, keyed by spec text."""

from __future__ import annotations

from rigidity.audit import Pipelines

# quaternion group of order 8 as 2x2 matrices over F_3
Q8_FLATS = ((0, 2, 1, 0), (1, 1, 1, 2))
Q8 = "Mat(3, 2; [0 2 1 0], [1 1 1 2])"

_PIPELINES = Pipelines()
group = _PIPELINES.group
classed = _PIPELINES.classes
charactered = _PIPELINES.characters
