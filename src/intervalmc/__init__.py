"""Model checking for interval temporal logic fragments over finite
Kripke structures, with a bounded brute-force oracle and SAT/QBF instance
generators for end-to-end validation.
"""

from .class_checker import ClassEngine, check_ab
from .cli import check
from .descriptor_checker import model_check_univ
from .logic import (
    And,
    Box,
    Const,
    Diamond,
    FALSE,
    Formula,
    Fragment,
    Implies,
    Modality,
    Not,
    Or,
    Prop,
    TRUE,
    classify,
    desugar,
    formula_size,
    modal_count,
    negate_to_exists,
    parse_formula,
    prop_letters,
    to_text,
    val,
)
from .model import (
    DescriptorElement,
    KripkeStructure,
    Track,
    concat_desc,
    enumerate_tracks,
    format_kripke,
    is_track,
    parse_kripke,
    shortest_witness,
    track_label,
    witnessed_descriptors,
)
from .oracle import BoundedVerdict, default_bound, eval_bounded, model_check_bounded
from .record import Verdict
from .reductions import (
    CnfFormula,
    QbfFormula,
    brute_qbf,
    brute_sat,
    build_qbf_instance,
    build_sat_instance,
    decode_sat_assignment,
    parse_dimacs,
    parse_qdimacs,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
