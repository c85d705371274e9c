"""rxnparse: reaction-diagram parsing via multigraph evidence fusion.

The package turns perception-level detections (molecule, arrow, text and
identifier boxes) into structured reaction equations, and ships the
hard/soft-match evaluation harness used to score such systems.
"""

__version__ = "0.1.0"
