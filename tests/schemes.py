"""Weight schemes that several test modules share."""

import random
from fractions import Fraction

from nedist.ted import WeightScheme


def criterion_1_random_scheme() -> WeightScheme:
    """The random scheme of the release gate's criterion 1 (seed 97)."""
    rng = random.Random(97)
    leaf = {lv: Fraction(rng.randint(1, 8), rng.randint(1, 4)) for lv in range(1, 8)}
    move = {lv: Fraction(rng.randint(1, 8), rng.randint(1, 4)) for lv in range(1, 8)}
    return WeightScheme(leaf, move, name="random")
