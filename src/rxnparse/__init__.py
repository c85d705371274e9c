"""rxnparse: reaction-diagram parsing via multigraph evidence fusion.

The package turns perception-level detections (molecule, arrow, text and
identifier boxes) into structured reaction equations, and ships the
hard/soft-match evaluation harness used to score such systems.
"""

from .config import ConfigError, ReasoningConfig
from .entities import (
    ArrowDirection,
    Entity,
    EntityKind,
    ReactionDocument,
    SchemaError,
    document_to_json,
    load_document,
)
from .evaluation import (
    AlignmentError,
    CorpusDocument,
    MatchReport,
    entities_match,
    reaction_matches_hard,
    reaction_matches_soft,
    score,
    score_corpus,
)
from .geometry import (
    AxisBox,
    OrientedQuad,
    center_distance_normalized,
    iou_axis,
    region_from_array,
    region_iou,
    region_to_array,
)
from .pipeline import PipelineConfig, RunManifest, run_batch, run_document
from .planner import AgentPlan, DiagramFeatures, extract_features, plan_from_json, plan_to_json, route
from .reactions import (
    BoxedReaction,
    Conservation,
    ConstraintError,
    Reaction,
    ResolutionError,
    ResponseFormatError,
    boxed_reactions_from_json,
    parse_combiner_response,
    reaction_to_json,
    reactions_to_json,
)
from .render import render_svg

__version__ = "0.1.0"
