"""Edge relation codes of the reaction-graph wire protocol.

The numeric codes are fixed by the combiner prompt's mapping and must
not be renumbered: 4 is the listing's ``NUM_RELATIONS`` count marker,
no relation, which is why the two arrow relations sit at 5 and 6.
"""

from __future__ import annotations

from enum import IntEnum


class EdgeRelation(IntEnum):
    REACTANT_TO_COND = 0
    COND_TO_PRODUCT = 1
    REACTANT_TO_PRODUCT = 2
    NO_EDGE = 3
    REACTANT_TO_ARROW = 5
    ARROW_TO_PRODUCT = 6
